//! A 2-shard router whose shard connections fail underneath it.
//!
//! Every shard drops 5 % of its connections after reading a request and
//! stalls 2 % of its replies by 30 ms (`SEQGE_FAULT`). A client with the
//! `cluster_e2e.rs` retry policy streams adds, all four read ops and
//! reversed-orientation removes through the router. The contract:
//!
//! * no hard errors — every failure a client sees after its retries is
//!   coded `overloaded` or `degraded`;
//! * exactly-once training — a write whose ack was lost is resent under the
//!   same `WriteId` and deduplicated, so after `flush` the shards' summed
//!   `edges_inserted` / `edges_removed` equal the acked adds and removes,
//!   and `seqge_serve_deduped_total` equals the resends;
//! * the router still answers `ping` and `cluster_status`, and its merged
//!   metrics carry its own request telemetry and the shards' counters;
//! * a dropped connection does not cost a read: the router redials a read,
//!   or a fan-out leg, once within its deadline, and the redial drops on
//!   its own 5 % draw. So about one in twenty of the reads' first failures
//!   still ends `degraded`, where without the redial every one does. The
//!   router counts every failed shard exchange, first failures and failed
//!   redials alike, in `seqge_cluster_shard_errors_total`; the degraded
//!   reads must stay within a tenth of that count plus 3 (twice the
//!   expectation, and a margin), which a router without the redial misses
//!   by far;
//! * health follows the last exchange: after the stream `cluster_status`
//!   reports both shards healthy.
//!
//! A second cluster then boots under drops alone (`conn_drop` at 5 %, no
//! stalls). A read can then end `degraded` only if its shard drops two
//! exchanges in a row, the first try and the redial, since nothing else
//! talks to a shard in between. The seed is one whose drop schedule has no
//! two drops in a row over every exchange the run makes (the test checks
//! that from the schedule itself), so every redial lands and the stream
//! must read no degraded reply at all.
//!
//! This suite has its own file because the fault schedule is read from the
//! environment when each shard boots: set inside `cluster_e2e.rs`, it would
//! reach every other scenario there.

use seqge_backend::BackendKind;
use seqge_cluster::{Cluster, ClusterConfig};
use seqge_eval::EdgeOp;
use seqge_graph::generators::classic::erdos_renyi;
use seqge_graph::spanning_forest;
use seqge_serve::protocol::{op_name, CODE_DEGRADED, CODE_OVERLOADED};
use seqge_serve::{Client, ClientConfig, FaultInjector, FaultPoint};
use serde_json::Value;
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::time::Duration;

const DIM: usize = 8;
const SEED: u64 = 11;
const SHARDS: usize = 2;

/// The training backend under test: `SEQGE_BACKEND=float|fpga-sim`.
fn backend_kind() -> BackendKind {
    match std::env::var("SEQGE_BACKEND") {
        Ok(s) => BackendKind::parse(&s).expect("SEQGE_BACKEND"),
        Err(_) => BackendKind::Float,
    }
}

fn client(addr: &str) -> Client {
    Client::connect_with(
        addr,
        ClientConfig {
            timeout: Duration::from_secs(5),
            retries: 12,
            client_id: "faults".to_string(),
            ..ClientConfig::default()
        },
    )
    .expect("client connects")
}

/// Requests answered, failures by their leading protocol code, and
/// degraded replies (coded failures and partial or replica answers) per op.
#[derive(Default)]
struct Tally {
    ok: u64,
    coded: u64,
    degraded: BTreeMap<&'static str, u64>,
}

impl Tally {
    /// Books one call's outcome; `true` when it succeeded. A failure that
    /// is not coded `overloaded` or `degraded` is a hard error and fails
    /// the test on the spot.
    fn book<T>(&mut self, what: &'static str, r: io::Result<T>) -> bool {
        match r {
            Ok(_) => {
                self.ok += 1;
                true
            }
            Err(e) => {
                let msg = e.to_string();
                assert!(
                    e.kind() == io::ErrorKind::InvalidData
                        && (msg.starts_with(CODE_OVERLOADED) || msg.starts_with(CODE_DEGRADED)),
                    "{what}: hard error `{msg}` ({:?})",
                    e.kind()
                );
                self.coded += 1;
                if msg.starts_with(CODE_DEGRADED) {
                    *self.degraded.entry(what).or_default() += 1;
                }
                false
            }
        }
    }

    /// Sends one read and books it, counting an answer that is partial
    /// (`degraded: true`) or came from a replica as degraded too. Every
    /// answer must carry the op's payload as the typed client decodes it
    /// (`payload`); one without it is a hard error.
    fn read(
        &mut self,
        c: &mut Client,
        what: &'static str,
        line: &str,
        payload: fn(&Value) -> bool,
    ) {
        let r = c.call(line);
        if let Ok(v) = &r {
            assert!(payload(v), "{what}: answer without its payload: {v:?}");
            if v.get("code").and_then(Value::as_str) == Some(CODE_DEGRADED) {
                *self.degraded.entry(what).or_default() += 1;
            }
        }
        self.book(what, r);
    }
}

/// A `topk` answer's `results`: `(node, score)` items, as `Client::topk` reads them.
fn has_results(v: &Value) -> bool {
    v.get("results").and_then(Value::as_array).is_some_and(|items| {
        items.iter().all(|item| {
            item.get("node").and_then(Value::as_u64).is_some()
                && item.get("score").and_then(Value::as_f64).is_some()
        })
    })
}

/// A `get_embedding` answer's `embedding`: `DIM` numbers.
fn has_embedding(v: &Value) -> bool {
    v.get("embedding")
        .and_then(Value::as_array)
        .is_some_and(|xs| xs.len() == DIM && xs.iter().all(|x| x.as_f64().is_some()))
}

/// A `score_link` answer's `score`: a number.
fn has_score(v: &Value) -> bool {
    v.get("score").and_then(Value::as_f64).is_some()
}

/// Sums every series of counter `name` in a Prometheus body.
fn scrape_sum(body: &str, name: &str) -> u64 {
    body.lines()
        .filter(|l| l.strip_prefix(name).is_some_and(|rest| rest.starts_with(['{', ' '])))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum()
}

/// The router's merged Prometheus scrape, taken once every shard answered
/// (a dropped shard connection leaves its series out of a `degraded`
/// reply).
fn full_scrape(c: &mut Client) -> String {
    for _ in 0..20 {
        let v = c.call(r#"{"cmd":"metrics","format":"prometheus"}"#).expect("metrics");
        if v.get("degraded") != Some(&Value::Bool(true)) {
            return v.get("body").and_then(Value::as_str).expect("metrics body").to_string();
        }
    }
    panic!("every metrics scrape missed a shard");
}

/// One `stats` counter summed over the shards, asked directly.
fn shard_sum(cluster: &Cluster, field: &str) -> u64 {
    cluster
        .shard_addrs()
        .iter()
        .map(|addr| {
            let stats = client(&addr.to_string()).stats().expect("shard stats");
            stats.get(field).and_then(Value::as_u64).unwrap_or(0)
        })
        .sum()
}

#[test]
fn router_keeps_exactly_once_under_shard_connection_faults() {
    // Read once per shard by `start_node`, so set before the cluster boots.
    std::env::set_var("SEQGE_FAULT", "conn_drop=0.05,conn_stall=0.02");
    std::env::set_var("SEQGE_FAULT_SEED", "7");
    std::env::set_var("SEQGE_FAULT_STALL_MS", "30");

    let full = erdos_renyi(120, 0.06, 5);
    let split = spanning_forest(&full);
    let initial = split.initial_graph(&full);
    let edges = split.removed_edges;
    let (cluster, base) = boot(&initial, "mixed");
    let mut c = client(&cluster.addr().to_string());

    let (tally, adds, removes) = stream(&mut c, &edges);
    eprintln!(
        "{}: {} requests, {} ok, {} coded errors, degraded reads {:?}; acked {adds} adds, \
         {removes} removes",
        backend_kind(),
        tally.ok + tally.coded,
        tally.ok,
        tally.coded,
        tally.degraded
    );

    let body = full_scrape(&mut c);
    let shard_errors = scrape_sum(&body, "seqge_cluster_shard_errors_total");
    let degraded: u64 = tally.degraded.values().sum();
    eprintln!("{shard_errors} failed shard exchanges, {degraded} degraded reads");
    assert!(
        degraded <= shard_errors / 10 + 3,
        "reads degraded past one redial: {:?} against {shard_errors} shard errors",
        tally.degraded
    );
    let injected = scrape_sum(&body, "seqge_serve_fault_injected_total");
    assert!(injected > 0, "no fault fired, so this run tested nothing");

    // A lost ack is resent under the same WriteId: the owner applies it
    // once, so the counters match the acks, not the attempts.
    assert_eq!(shard_sum(&cluster, "edges_inserted"), adds, "adds applied != adds acked");
    assert_eq!(shard_sum(&cluster, "edges_removed"), removes, "removes applied != removes acked");
    // The shards' write counters, merged by the router, hold every attempt.
    let shard_adds = scrape_sum(&body, "seqge_serve_requests_total{op=\"add_edge\"}");
    let shard_removes = scrape_sum(&body, "seqge_serve_requests_total{op=\"remove_edge\"}");
    assert!(shard_adds >= adds, "router merge lost shard counters: {shard_adds} < {adds}");
    assert!(shard_removes >= removes, "router merge lost shard counters");
    // A shard drops a connection only after handling the request, so every
    // write it saw beyond the first copy was a resend of an applied write,
    // and the WriteId table, not the graph, must have answered it.
    let resends = shard_adds + shard_removes - adds - removes;
    assert!(resends > 0, "no write was resent, so dedup went untested");
    assert_eq!(scrape_sum(&body, "seqge_serve_deduped_total"), resends, "a resend was not deduped");

    c.ping().expect("router answers ping after the faults");
    let status = c.call(r#"{"cmd":"cluster_status"}"#).expect("router answers cluster_status");
    assert_eq!(
        status.get("healthy_shards").and_then(Value::as_u64),
        Some(SHARDS as u64),
        "a shard that answers again reads healthy: {status:?}"
    );

    // The router's own telemetry, booked by the front end it shares with
    // the node.
    assert!(scrape_sum(&body, "seqge_cluster_requests_total{op=\"topk\"}") > 0);
    assert!(body.contains("# TYPE seqge_cluster_request_latency_ns summary"), "{body}");
    eprintln!("{injected} faults injected; {resends} resent writes deduplicated");

    drop(c);
    cluster.shutdown().expect("clean cluster shutdown");
    let _ = std::fs::remove_dir_all(&base);

    // Drops alone: every read's first failure is redialed onto a schedule
    // slot that does not drop.
    std::env::set_var("SEQGE_FAULT", DROP_ONLY);
    std::env::set_var("SEQGE_FAULT_SEED", DROP_ONLY_SEED.to_string());
    let (cluster, base) = boot(&initial, "drop_only");
    let mut c = client(&cluster.addr().to_string());
    let (tally, adds, removes) = stream(&mut c, &edges);
    let body = full_scrape(&mut c);
    let exchanges = scrape_sum(&body, "seqge_serve_requests_total");
    let first_pair = first_double_drop();
    eprintln!(
        "drops only: {} requests, {} ok, degraded reads {:?}; {exchanges} shard exchanges, \
         the schedule's first double drop at visit {first_pair}",
        tally.ok + tally.coded,
        tally.ok,
        tally.degraded
    );
    assert!(
        exchanges < first_pair,
        "{exchanges} shard exchanges reach the schedule's first double drop ({first_pair}): \
         pick another seed"
    );
    assert!(scrape_sum(&body, "seqge_serve_fault_injected_total") > 0, "no drop fired");
    assert!(tally.degraded.is_empty(), "a redialed read came back degraded: {:?}", tally.degraded);
    assert_eq!(shard_sum(&cluster, "edges_inserted"), adds, "adds applied != adds acked");
    assert_eq!(shard_sum(&cluster, "edges_removed"), removes, "removes applied != removes acked");
    drop(c);
    cluster.shutdown().expect("clean cluster shutdown");
    let _ = std::fs::remove_dir_all(&base);
}

/// The drops-only schedule: 5 % of deliveries dropped, nothing stalled.
const DROP_ONLY: &str = "conn_drop=0.05";
/// Its seed: no two drops in a row before visit 3 122 (see
/// [`first_double_drop`]), past the ≈ 2 400 exchanges of the run.
const DROP_ONLY_SEED: u64 = 1065 << 16;

/// The first visit at which the drops-only schedule drops twice in a row,
/// replayed from the schedule's own hash. Every shard draws the same
/// schedule, one visit per request it answers.
fn first_double_drop() -> u64 {
    let schedule = FaultInjector::parse(DROP_ONLY, DROP_ONLY_SEED).expect("fault spec");
    let mut last = false;
    (0..)
        .find(|_| {
            let now = schedule.should(FaultPoint::ConnDrop);
            std::mem::replace(&mut last, now) && now
        })
        .expect("a 5 % schedule drops twice in a row eventually")
}

/// Boots a 2-shard in-process cluster over `initial` in a fresh directory
/// named after `run`, under the fault schedule the environment holds now.
fn boot(initial: &seqge_graph::Graph, run: &str) -> (Cluster, PathBuf) {
    let base =
        std::env::temp_dir().join(format!("seqge_router_faults_{run}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let cfg = ClusterConfig {
        train_backend: backend_kind(),
        ..ClusterConfig::in_process(SHARDS, base.clone(), DIM, SEED)
    };
    (Cluster::start(&cfg, initial).expect("cluster boots"), base)
}

/// Streams every edge's add and the four reads after it, then removes
/// every third edge reversed, and flushes. Returns the tally and the acked
/// adds and removes.
fn stream(c: &mut Client, edges: &[(u32, u32)]) -> (Tally, u64, u64) {
    let op = op_name(EdgeOp::Cosine);
    let mut tally = Tally::default();
    let (mut adds, mut removes) = (0u64, 0u64);
    for &(u, v) in edges {
        adds += u64::from(tally.book("add_edge", c.add_edge(u, v)));
        let topk = format!(r#"{{"cmd":"topk","node":{u},"k":5,"op":"{op}""#);
        tally.read(c, "topk", &format!("{topk}}}"), has_results);
        let ann = format!(r#"{topk},"mode":"ann","probes":4}}"#);
        tally.read(c, "topk ann", &ann, has_results);
        let emb = format!(r#"{{"cmd":"get_embedding","node":{v}}}"#);
        tally.read(c, "get_embedding", &emb, has_embedding);
        let score = format!(r#"{{"cmd":"score_link","u":{u},"v":{v},"op":"{op}"}}"#);
        tally.read(c, "score_link", &score, has_score);
    }
    for &(u, v) in edges.iter().step_by(3) {
        removes += u64::from(tally.book("remove_edge", c.remove_edge(v, u)));
    }
    c.flush().expect("flush barrier");
    (tally, adds, removes)
}
