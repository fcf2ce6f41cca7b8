//! The load driver: N connection threads replaying materialized schedules
//! against one target, with phase barriers and end-of-run aggregation.
//!
//! Execution discipline:
//!
//! * Every connection thread hits **two barriers per phase** — one after
//!   its op loop, one after the flush point — unconditionally, even when
//!   its socket died. Fault windows therefore align across connections,
//!   and a half-dead run still produces an honest report instead of a
//!   deadlock.
//! * Open-loop latency is measured from the *scheduled* send time, so a
//!   server that falls behind is charged its queueing delay (no
//!   coordinated omission). Closed-loop latency is measured from the
//!   actual send.
//! * Transport failures are recorded, then the connection re-dials with a
//!   short backoff; after `MAX_CONSECUTIVE_FAILURES` the rest of the
//!   phase is charged as transport errors — the schedule's op count is
//!   always fully accounted, one outcome per scheduled op.

use crate::report::{classify, Accounting, Outcome, Report, RunMeta};
use crate::scenario::{schedule, schedule_hash, ConnSchedule, Scenario};
use crate::slo::Slo;
use seqge_serve::{Client, ClientConfig};
use serde_json::Value;
use std::io;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Consecutive transport failures before a connection gives up on the
/// remainder of the current phase.
const MAX_CONSECUTIVE_FAILURES: u32 = 20;

/// Driver knobs (the `seqge loadgen` flags).
#[derive(Debug, Clone)]
pub struct LoadOpts {
    /// `host:port` of a `seqge serve` listener or a cluster router.
    pub target: String,
    /// Concurrent connections.
    pub connections: usize,
    /// Schedule seed: same seed, same schedule, bit for bit.
    pub seed: u64,
    /// Multiplier on every phase's op count.
    pub scale: f64,
    /// Vertex count for key generation; `None` probes the server's
    /// `stats` op.
    pub nodes: Option<u32>,
    /// `k` for `topk` requests.
    pub k: usize,
    /// Per-call read deadline.
    pub timeout: Duration,
}

impl Default for LoadOpts {
    fn default() -> Self {
        LoadOpts {
            target: "127.0.0.1:7878".to_string(),
            connections: 4,
            seed: 42,
            scale: 1.0,
            nodes: None,
            k: 10,
            timeout: Duration::from_secs(10),
        }
    }
}

/// Materializes every connection's schedule and the run's determinism
/// witness. Exposed for `--dry-run`.
pub fn materialize(
    scenario: &Scenario,
    nodes: u32,
    k: usize,
    connections: usize,
    seed: u64,
) -> (Vec<ConnSchedule>, String) {
    let schedules: Vec<ConnSchedule> =
        (0..connections).map(|c| schedule(scenario, nodes, k, c, connections, seed)).collect();
    let hash = format!("{:016x}", schedule_hash(&schedules));
    (schedules, hash)
}

/// Asks the target's `stats` op how many vertices it serves.
pub fn probe_nodes(target: &str, timeout: Duration) -> io::Result<u32> {
    let cfg = ClientConfig { timeout, ..ClientConfig::default() };
    let mut client = Client::connect_with(target, cfg)?;
    let stats = client.stats()?;
    stats.get("nodes").and_then(Value::as_u64).map(|n| n as u32).ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidData, "stats reply carries no node count")
    })
}

/// Asks the target's `stats` op which training backend it runs, reduced
/// to the backend name (`"float"`, `"fpga-sim"`); `"unknown"` when the
/// target predates the descriptor or cannot be reached.
pub fn probe_backend(target: &str, timeout: Duration) -> String {
    let cfg = ClientConfig { timeout, ..ClientConfig::default() };
    let backend = Client::connect_with(target, cfg)
        .and_then(|mut client| client.stats())
        .ok()
        .and_then(|stats| match stats.get("backend") {
            Some(Value::Str(s)) => Some(s.clone()),
            Some(v) => v.get("kind").and_then(Value::as_str).map(str::to_string),
            None => None,
        });
    backend.unwrap_or_else(|| "unknown".to_string())
}

/// Runs `scenario` against `opts.target` and returns the aggregated
/// report. Fails only on setup errors (unreachable target at start);
/// mid-run transport trouble is accounted, not fatal.
pub fn run(scenario: &Scenario, opts: &LoadOpts) -> io::Result<Report> {
    let nodes = match opts.nodes {
        Some(n) => n,
        None => probe_nodes(&opts.target, opts.timeout)?,
    };
    if nodes < 4 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("target serves {nodes} nodes; loadgen needs at least 4"),
        ));
    }
    let (schedules, hash) = materialize(scenario, nodes, opts.k, opts.connections, opts.seed);
    let acc = Accounting::new(Slo::default());
    let barrier = Barrier::new(opts.connections);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for (c, sched) in schedules.iter().enumerate() {
            let acc = &acc;
            let barrier = &barrier;
            let opts = &*opts;
            scope.spawn(move || drive_connection(c, sched, scenario, opts, acc, barrier));
        }
    });
    let meta = RunMeta {
        scenario: scenario.name.to_string(),
        target: opts.target.clone(),
        seed: opts.seed,
        connections: opts.connections,
        scale: opts.scale,
        nodes,
        backend: probe_backend(&opts.target, opts.timeout),
        schedule_hash: hash,
        wall_s: started.elapsed().as_secs_f64(),
    };
    Ok(acc.report(meta))
}

/// One connection thread: replay each phase, barrier, maybe flush,
/// barrier again.
fn drive_connection(
    conn: usize,
    sched: &ConnSchedule,
    scenario: &Scenario,
    opts: &LoadOpts,
    acc: &Accounting,
    barrier: &Barrier,
) {
    let client_id = format!("loadgen-c{conn}");
    let cfg = ClientConfig {
        timeout: opts.timeout,
        retries: 0,
        client_id: client_id.clone(),
        ..ClientConfig::default()
    };
    let mut client = Client::connect_with(&opts.target, cfg.clone()).ok();
    // One strictly increasing write sequence per connection for the whole
    // run: the server dedups on (client_id, seq), so a reconnect must not
    // rewind it.
    let mut next_seq = 1u64;
    for (p, phase) in scenario.phases.iter().enumerate() {
        let ops = &sched.phases[p];
        let window = phase.window.as_str();
        let open_loop = phase.arrival.is_open_loop();
        let phase_start = Instant::now();
        let mut consecutive_failures = 0u32;
        for s in ops {
            let op_label = s.op.label();
            if consecutive_failures >= MAX_CONSECUTIVE_FAILURES {
                acc.record(op_label, window, Outcome::Transport, None, None);
                continue;
            }
            let due = Duration::from_nanos(s.offset_ns);
            if open_loop {
                let elapsed = phase_start.elapsed();
                if due > elapsed {
                    std::thread::sleep(due - elapsed);
                }
            }
            let line = s.op.request_line(&client_id, &mut next_seq);
            // Every request carries a fresh always-sampled trace context:
            // when the server has tracing on, each op leaves a span tree
            // keyed by this id, and SLO-violating samples surface it as an
            // exemplar in the report. The server ignores the field when
            // tracing is off; id generation is one atomic add.
            let trace_id = seqge_obs::trace::next_id();
            let ctx = seqge_obs::TraceCtx { trace_id, parent_span: 0, sampled: true };
            let line = seqge_serve::protocol::attach_trace(&line, &ctx);
            // Scheduled start for open loops (charges queueing delay when
            // the driver or server falls behind), actual send otherwise.
            let t0 = if open_loop { phase_start + due } else { Instant::now() };
            let reply = match client.as_mut() {
                Some(cl) => cl.call_raw(&line),
                None => Err(io::Error::new(io::ErrorKind::NotConnected, "no connection")),
            };
            match reply {
                Ok(body) => {
                    consecutive_failures = 0;
                    let latency_ns = t0.elapsed().as_nanos() as u64;
                    acc.record(op_label, window, classify(&body), Some(latency_ns), Some(trace_id));
                }
                Err(_) => {
                    consecutive_failures += 1;
                    acc.record(op_label, window, Outcome::Transport, None, Some(trace_id));
                    std::thread::sleep(Duration::from_millis(20));
                    client = Client::connect_with(&opts.target, cfg.clone()).ok();
                }
            }
        }
        // Both barriers run unconditionally: a dead connection must not
        // stall the fleet.
        barrier.wait();
        if phase.flush_after && conn == 0 {
            if client.is_none() {
                client = Client::connect_with(&opts.target, cfg.clone()).ok();
            }
            if let Some(cl) = client.as_mut() {
                // Make this phase's writes visible to the next phase's
                // reads; not an accounted workload op.
                let _ = cl.flush();
            }
        }
        barrier.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::builtin;

    #[test]
    fn materialize_is_deterministic_and_hex_hashed() {
        let s = builtin("hot_read", 0.02).unwrap();
        let (a, ha) = materialize(&s, 64, 10, 2, 7);
        let (b, hb) = materialize(&s, 64, 10, 2, 7);
        assert_eq!(a, b);
        assert_eq!(ha, hb);
        assert_eq!(ha.len(), 16, "hash renders as 16 hex chars");
        assert!(ha.chars().all(|c| c.is_ascii_hexdigit()));
        let (_, hc) = materialize(&s, 64, 10, 2, 8);
        assert_ne!(ha, hc);
    }

    #[test]
    fn run_rejects_unreachable_targets() {
        let s = builtin("hot_read", 0.01).unwrap();
        let opts = LoadOpts {
            // Port 1 on loopback refuses immediately (no hung connect).
            target: "127.0.0.1:1".to_string(),
            connections: 1,
            timeout: Duration::from_millis(200),
            ..LoadOpts::default()
        };
        assert!(run(&s, &opts).is_err());
    }
}
