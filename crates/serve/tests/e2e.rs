//! End-to-end tests: a real server on a loopback socket, a real client.
//!
//! The acceptance loop — boot from a partial graph, stream the held-out
//! edges in over the write plane while querying the read plane, watch
//! link-prediction scores improve, shut down, recover bit-identically.
//!
//! The whole suite is backend-generic: `SEQGE_BACKEND=fpga-sim` runs every
//! test against the fixed-point accelerator backend (the CI backend matrix
//! does exactly that); default is float.

use seqge_backend::{BackendKind, BackendSpec};
use seqge_eval::EdgeOp;
use seqge_graph::generators::classic::erdos_renyi;
use seqge_graph::spanning_forest;
use seqge_serve::{start_backend, Client, ServeConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

const DIM: usize = 8;
const SEED: u64 = 11;

fn backend_kind() -> BackendKind {
    match std::env::var("SEQGE_BACKEND") {
        Ok(s) => BackendKind::parse(&s).expect("SEQGE_BACKEND"),
        Err(_) => BackendKind::Float,
    }
}

fn spec() -> BackendSpec {
    seqge_serve::shard_spec(backend_kind(), DIM, SEED)
}

/// Boots a server over the spanning forest of a random graph; returns the
/// handle plus the removed (held-out) edges.
fn forest_server(config: ServeConfig) -> (seqge_serve::ServerHandle, Vec<(u32, u32)>) {
    forest_server_on(backend_kind(), config)
}

/// [`forest_server`] on a given backend, whatever `SEQGE_BACKEND` says.
fn forest_server_on(
    kind: BackendKind,
    config: ServeConfig,
) -> (seqge_serve::ServerHandle, Vec<(u32, u32)>) {
    let full = erdos_renyi(40, 0.18, 7);
    let split = spanning_forest(&full);
    let initial = split.initial_graph(&full);
    let mut backend = seqge_serve::shard_spec(kind, DIM, SEED).cold(initial.num_nodes());
    backend.bootstrap(&initial);
    let handle = start_backend("127.0.0.1:0", initial, backend, config).expect("server starts");
    (handle, split.removed_edges)
}

#[test]
fn serves_queries_while_ingesting_and_scores_improve() {
    let (handle, removed) = forest_server(ServeConfig::default());
    assert!(removed.len() >= 10, "test graph must hold out a real stream");
    let mut c = Client::connect(handle.addr()).expect("client connects");
    c.ping().unwrap();

    // Cold read plane.
    let stats = c.stats().unwrap();
    assert_eq!(stats.get("nodes").and_then(|v| v.as_u64()), Some(40));
    let emb = c.get_embedding(0).unwrap();
    assert_eq!(emb.len(), DIM);
    let cold_mean: f64 =
        removed.iter().map(|&(u, v)| c.score_link(u, v, EdgeOp::Cosine).unwrap()).sum::<f64>()
            / removed.len() as f64;

    // Stream every held-out edge in while interleaving reads (the reads
    // must never error or observe a torn snapshot, whatever the trainer is
    // doing at that moment).
    for (i, &(u, v)) in removed.iter().enumerate() {
        c.add_edge(u, v).unwrap();
        if i % 5 == 0 {
            let top = c.topk(u, 3, EdgeOp::Cosine).unwrap();
            assert!(top.len() <= 3);
            assert!(top.iter().all(|&(n, _)| n != u), "query node excluded");
            let row = c.get_embedding(v).unwrap();
            assert_eq!(row.len(), DIM);
            assert!(row.iter().all(|x| x.is_finite()));
        }
    }
    let version = c.flush().unwrap();
    assert!(version > 0, "training must have published new snapshots");

    // Everything queued was applied (nothing rejected, nothing pending).
    let stats = c.stats().unwrap();
    assert_eq!(stats.get("edges_inserted").and_then(|v| v.as_u64()), Some(removed.len() as u64));
    assert_eq!(stats.get("pending").and_then(|v| v.as_u64()), Some(0));
    assert_eq!(stats.get("rejected").and_then(|v| v.as_u64()), Some(0));

    // The model has now trained on the held-out edges: their link scores
    // must improve over the cold forest-only model on average.
    let warm_mean: f64 =
        removed.iter().map(|&(u, v)| c.score_link(u, v, EdgeOp::Cosine).unwrap()).sum::<f64>()
            / removed.len() as f64;
    assert!(
        warm_mean > cold_mean,
        "ingesting edges must raise their mean link score (cold {cold_mean:.4}, warm {warm_mean:.4})"
    );

    // topk of an endpoint should now rank its freshly trained neighbors
    // with finite, ordered scores.
    let (u, _) = removed[0];
    let top = c.topk(u, 5, EdgeOp::Cosine).unwrap();
    assert!(!top.is_empty());
    assert!(top.windows(2).all(|w| w[0].1 >= w[1].1), "topk is sorted best-first");

    handle.shutdown().unwrap();
}

#[test]
fn protocol_errors_are_clean_and_connection_survives() {
    let (handle, _) = forest_server(ServeConfig::default());
    let mut c = Client::connect(handle.addr()).unwrap();

    // Malformed JSON, unknown command, missing fields, bad values: each
    // gets an {"ok":false} line and the connection stays usable.
    for bad in [
        "{this is not json",
        r#"{"cmd":"warp_drive"}"#,
        r#"{"cmd":"add_edge","u":1}"#,
        r#"{"cmd":"topk","node":1,"op":"manhattan"}"#,
        r#"[1,2,3]"#,
        r#"{"cmd":"get_embedding","node":4999}"#,
        r#"{"cmd":"add_edge","u":0,"v":0}"#,
        r#"{"cmd":"add_edge","u":0,"v":4999}"#,
        r#"{"cmd":"snapshot"}"#, // ephemeral server: nowhere to write
        r#"{"cmd":"restore"}"#,  // retired op: unknown command
    ] {
        let resp = c.call_raw(bad).unwrap();
        assert!(resp.contains("\"ok\":false") || resp.contains("\"ok\": false"), "{bad} → {resp}");
        c.ping().expect("connection survives a protocol error");
    }
    handle.shutdown().unwrap();
}

#[test]
fn oversized_line_is_rejected_and_connection_closed() {
    let (handle, _) = forest_server(ServeConfig::default());
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let big = vec![b'x'; seqge_serve::MAX_LINE_BYTES + 4096];
    stream.write_all(&big).unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("exceeds"), "oversized line must be called out: {line}");
    // Server closes: next read sees EOF.
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "connection must be closed");
    handle.shutdown().unwrap();
}

#[test]
fn concurrent_readers_and_writer_make_progress() {
    let (handle, removed) = forest_server(ServeConfig::default());
    let addr = handle.addr();
    let writer = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        for &(u, v) in &removed {
            c.add_edge(u, v).unwrap();
        }
        c.flush().unwrap()
    });
    let readers: Vec<_> = (0..3)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for q in 0..60u32 {
                    let node = (q * 7 + i) % 40;
                    let emb = c.get_embedding(node).unwrap();
                    assert!(emb.iter().all(|x| x.is_finite()));
                    let _ = c.score_link(node, (node + 1) % 40, EdgeOp::Dot).unwrap();
                }
            })
        })
        .collect();
    let version = writer.join().expect("writer thread");
    assert!(version > 0);
    for r in readers {
        r.join().expect("reader thread");
    }
    handle.shutdown().unwrap();
}

#[test]
fn metrics_op_exposes_request_latency_after_traffic() {
    let (handle, removed) = forest_server(ServeConfig::default());
    let mut c = Client::connect(handle.addr()).unwrap();

    // Generate traffic on both planes so every core series has samples.
    for &(u, v) in removed.iter().take(8) {
        c.add_edge(u, v).unwrap();
        let _ = c.get_embedding(u).unwrap();
    }
    c.flush().unwrap();
    let _ = c.stats().unwrap();

    let text = c.metrics("prometheus").unwrap();
    // Request-latency summary with quantile labels, per op.
    assert!(
        text.contains("# TYPE seqge_serve_request_latency_ns summary"),
        "missing latency family:
{text}"
    );
    for needle in [
        "seqge_serve_request_latency_ns{op=\"get_embedding\",quantile=\"0.5\"}",
        "seqge_serve_request_latency_ns{op=\"get_embedding\",quantile=\"0.99\"}",
        "seqge_serve_requests_total{op=\"add_edge\"} 8",
        "seqge_serve_events_enqueued_total 8",
        "seqge_serve_events_applied_total 8",
        "seqge_serve_trainer_backlog 0",
        "seqge_serve_ingest_batch_size_count",
        "seqge_serve_walks_trained_total",
    ] {
        assert!(
            text.contains(needle),
            "missing `{needle}` in:
{text}"
        );
    }
    // Every non-comment line must parse as `id value`.
    for line in text.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
        let value = line.rsplit(' ').next().unwrap();
        assert!(value.parse::<f64>().is_ok(), "unparseable exposition line: {line}");
    }
    // Latency histograms actually saw the traffic.
    let count_line = text
        .lines()
        .find(|l| l.starts_with("seqge_serve_request_latency_ns_count{op=\"get_embedding\"}"))
        .expect("latency count series present");
    let count: u64 = count_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(count >= 8, "expected >=8 get_embedding samples, saw {count}");

    // JSON rendering of the same registry.
    let js = c.metrics("json").unwrap();
    assert!(js.starts_with("{\"counters\":["), "{js}");
    assert!(js.contains("seqge_serve_request_latency_ns"));
    assert!(js.contains("\"p99\":"));

    // Unknown format is a clean protocol error.
    assert!(c.call(r#"{"cmd":"metrics","format":"xml"}"#).is_err());

    handle.shutdown().unwrap();
}

/// The fpga-sim series reach a live registry: the cycle planner, the
/// sampled deviation (the boot window is always shadowed) and the kernel's
/// saturation count, zero on a healthy stream.
#[test]
fn fpga_sim_series_reach_the_metrics_op() {
    let (handle, removed) = forest_server_on(BackendKind::FpgaSim, ServeConfig::default());
    let mut c = Client::connect(handle.addr()).unwrap();
    for &(u, v) in removed.iter().take(8) {
        c.add_edge(u, v).unwrap();
    }
    c.flush().unwrap();
    let text = c.metrics("prometheus").unwrap();
    let value = |id: &str| -> f64 {
        let line = text.lines().find(|l| l.strip_prefix(id).is_some_and(|v| v.starts_with(' ')));
        let line = line.unwrap_or_else(|| panic!("missing `{id}` in:\n{text}"));
        line.rsplit(' ').next().unwrap().parse().unwrap()
    };
    assert!(value("seqge_backend_cycles_total") > 0.0, "{text}");
    assert!(value("seqge_backend_deviation") > 0.0, "{text}");
    assert_eq!(value("seqge_backend_saturations_total"), 0.0, "{text}");
    handle.shutdown().unwrap();
}

#[test]
fn stats_reports_uptime_and_versions() {
    let (handle, removed) = forest_server(ServeConfig::default());
    let mut c = Client::connect(handle.addr()).unwrap();
    for &(u, v) in removed.iter().take(3) {
        c.add_edge(u, v).unwrap();
    }
    c.flush().unwrap();
    let stats = c.stats().unwrap();
    assert!(stats.get("uptime_ms").and_then(|v| v.as_u64()).is_some(), "{stats:?}");
    let snap_ver = stats.get("snapshot_version").and_then(|v| v.as_u64()).unwrap();
    assert!(snap_ver > 0, "flush must have published: {stats:?}");
    assert_eq!(stats.get("enqueued").and_then(|v| v.as_u64()), Some(3));
    assert_eq!(stats.get("snapshots_written").and_then(|v| v.as_u64()), Some(0));
    // The reply names the training engine actually running (+ key params).
    let backend = stats.get("backend").expect("stats carries the backend descriptor");
    let rendered = format!("{backend:?}");
    assert!(
        rendered.contains(backend_kind().as_str()),
        "backend descriptor must name `{}`: {rendered}",
        backend_kind()
    );
    assert!(rendered.contains("dim"), "descriptor carries key params: {rendered}");
    handle.shutdown().unwrap();
}

#[test]
fn reads_shed_with_overloaded_while_writes_keep_flowing() {
    // trainer_stall=1.0 makes every apply sleep, so a tiny write burst
    // builds real backlog; max_backlog 0 sheds reads at the first pending
    // event. Writes are never shed — that's the plane we protect.
    let fault = seqge_serve::FaultInjector::parse("trainer_stall=1.0", 0)
        .unwrap()
        .with_stall(std::time::Duration::from_millis(30));
    let config =
        ServeConfig { max_backlog: 0, fault: std::sync::Arc::new(fault), ..ServeConfig::default() };
    let (handle, removed) = forest_server(config);
    let mut c = Client::connect(handle.addr()).unwrap();
    for &(u, v) in removed.iter().take(8) {
        c.add_edge(u, v).expect("writes are never shed");
    }
    let err = c.get_embedding(0).expect_err("read plane must shed under backlog");
    assert!(err.to_string().contains("overloaded"), "unexpected shed error: {err}");

    // flush is the barrier that drains the backlog; afterwards reads serve
    // again and the shed is visible in stats.
    c.flush().unwrap();
    let emb = c.get_embedding(0).expect("reads recover once the backlog drains");
    assert_eq!(emb.len(), DIM);
    let stats = c.stats().unwrap();
    assert!(
        stats.get("overloaded").and_then(|v| v.as_u64()).unwrap() >= 1,
        "shed not counted: {stats:?}"
    );
    handle.shutdown().unwrap();
}

#[test]
fn retried_writes_dedup_by_client_sequence() {
    let (handle, removed) = forest_server(ServeConfig::default());
    let mut c = Client::connect(handle.addr()).unwrap();
    let (u, v) = removed[0];
    let (u2, v2) = removed[1];

    let first = c
        .call_raw(&format!(r#"{{"cmd":"add_edge","u":{u},"v":{v},"client":"t1","seq":1}}"#))
        .unwrap();
    assert!(first.contains("\"queued\":true"), "{first}");
    assert!(!first.contains("deduped"), "fresh write must not be deduped: {first}");

    // The retry of an acknowledged write: acked again, applied never.
    let retry = c
        .call_raw(&format!(r#"{{"cmd":"add_edge","u":{u},"v":{v},"client":"t1","seq":1}}"#))
        .unwrap();
    assert!(retry.contains("\"deduped\":true"), "{retry}");

    // A later sequence number is new work; replaying below the high-water
    // mark dedups even for a different edge (the mark is per client).
    let second = c
        .call_raw(&format!(r#"{{"cmd":"add_edge","u":{u2},"v":{v2},"client":"t1","seq":2}}"#))
        .unwrap();
    assert!(second.contains("\"queued\":true") && !second.contains("deduped"), "{second}");
    let stale = c
        .call_raw(&format!(r#"{{"cmd":"add_edge","u":{u2},"v":{v2},"client":"t1","seq":2}}"#))
        .unwrap();
    assert!(stale.contains("\"deduped\":true"), "{stale}");

    // A different client id is a different stream: same seq, fresh write.
    let other = c
        .call_raw(&format!(
            r#"{{"cmd":"add_edge","u":{},"v":{},"client":"t2","seq":1}}"#,
            removed[2].0, removed[2].1
        ))
        .unwrap();
    assert!(other.contains("\"queued\":true") && !other.contains("deduped"), "{other}");

    c.flush().unwrap();
    let stats = c.stats().unwrap();
    assert_eq!(stats.get("enqueued").and_then(|s| s.as_u64()), Some(3), "{stats:?}");
    assert_eq!(stats.get("deduped").and_then(|s| s.as_u64()), Some(2), "{stats:?}");
    handle.shutdown().unwrap();
}

/// Eight connections race the identical write: one appends, seven dedup.
/// The check, the log append and the record happen under one lock, so a
/// retry in flight beside its original is never logged a second time.
#[test]
fn concurrent_retries_of_one_write_are_logged_once() {
    use seqge_serve::wal::{FsyncPolicy, WalConfig};
    use std::sync::{Arc, Barrier};
    const CONNS: usize = 8;
    const ROUNDS: usize = 20;
    let dir = std::env::temp_dir().join(format!("seqge_serve_dup_race_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let wcfg = WalConfig { dir: dir.clone(), fsync: FsyncPolicy::Always };
    let full = erdos_renyi(40, 0.18, 7);
    let split = spanning_forest(&full);
    let initial = split.initial_graph(&full);
    let removed = split.removed_edges;
    assert!(removed.len() >= ROUNDS, "one fresh edge per round");
    let boot = seqge_serve::boot_wal(&wcfg, Some(initial), &spec(), 0).expect("store commits");
    let config =
        ServeConfig { workers: CONNS, wal: Some(Arc::new(boot.wal)), ..Default::default() };
    let handle = start_backend("127.0.0.1:0", boot.graph, boot.backend, config).unwrap();
    let addr = handle.addr();

    let barrier = Barrier::new(CONNS);
    let send_all = || {
        let mut c = Client::connect(addr).unwrap();
        let mut replies = Vec::new();
        for (&(u, v), seq) in removed[..ROUNDS].iter().zip(1..) {
            let line =
                format!(r#"{{"cmd":"add_edge","u":{u},"v":{v},"client":"dup","seq":{seq}}}"#);
            barrier.wait();
            replies.push(c.call_raw(&line).unwrap());
        }
        replies
    };
    let replies: Vec<Vec<String>> = std::thread::scope(|s| {
        let senders: Vec<_> = (0..CONNS).map(|_| s.spawn(send_all)).collect();
        senders.into_iter().map(|t| t.join().unwrap()).collect()
    });
    for round in 0..ROUNDS {
        let round_replies: Vec<&String> = replies.iter().map(|r| &r[round]).collect();
        let logged = round_replies.iter().filter(|r| r.contains("\"seq\":")).count();
        let deduped = round_replies.iter().filter(|r| r.contains("\"deduped\":true")).count();
        assert_eq!((logged, deduped), (1, CONNS - 1), "round {}: {round_replies:?}", round + 1);
    }

    let mut c = Client::connect(addr).unwrap();
    c.flush().unwrap();
    let stats = c.stats().unwrap();
    let count = |key: &str| stats.get(key).and_then(|s| s.as_u64());
    assert_eq!(count("wal_appends"), Some(ROUNDS as u64), "{stats:?}");
    assert_eq!(count("deduped"), Some((ROUNDS * (CONNS - 1)) as u64), "{stats:?}");
    assert_eq!(count("rejected"), Some(0), "{stats:?}");
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_mode_survives_graceful_shutdown_bit_identically() {
    use seqge_serve::wal::{FsyncPolicy, WalConfig};
    let dir = std::env::temp_dir().join(format!("seqge_serve_wal_e2e_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let wcfg = WalConfig { dir: dir.clone(), fsync: FsyncPolicy::Batch };

    let full = erdos_renyi(40, 0.18, 7);
    let split = spanning_forest(&full);
    let initial = split.initial_graph(&full);
    let removed = split.removed_edges;
    let boot =
        seqge_serve::boot_wal(&wcfg, Some(initial), &spec(), 0).expect("cold init commits a store");
    assert_eq!(boot.report.gen, 0);
    let config = ServeConfig { wal: Some(std::sync::Arc::new(boot.wal)), ..ServeConfig::default() };
    let handle = start_backend("127.0.0.1:0", boot.graph, boot.backend, config).unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();

    // WAL-mode acks carry the assigned log sequence number.
    let (u, v) = removed[0];
    let ack = c
        .call_raw(&format!(r#"{{"cmd":"add_edge","u":{u},"v":{v},"client":"w","seq":1}}"#))
        .unwrap();
    assert!(ack.contains("\"seq\":1"), "WAL ack must carry the log seq: {ack}");
    let half = removed.len() / 2;
    for &(u, v) in &removed[1..half] {
        c.add_edge(u, v).unwrap();
    }
    c.flush().unwrap();

    // The on-disk generations are authoritative: there is no op to roll
    // the live state back over them.
    let resp = c.call_raw(r#"{"cmd":"restore"}"#).unwrap();
    assert!(resp.contains("unknown command `restore`"), "restore is a retired op: {resp}");
    let stats = c.stats().unwrap();
    assert_eq!(stats.get("wal"), Some(&serde::value::Value::Bool(true)), "{stats:?}");
    assert_eq!(stats.get("wal_fsync").and_then(|s| s.as_str()), Some("batch"), "{stats:?}");
    let frozen: Vec<Vec<f32>> = (0..40).map(|n| c.get_embedding(n).unwrap()).collect();

    // Graceful shutdown commits a snapshot generation and rotates the log,
    // so the reboot replays nothing — and matches bit for bit.
    handle.shutdown().unwrap();
    let boot2 = seqge_serve::boot_wal(&wcfg, None, &spec(), 0).expect("store recovers");
    assert!(boot2.report.gen >= 1, "shutdown must commit a generation: {:?}", boot2.report);
    assert_eq!(boot2.report.replayed, 0, "rotation left nothing to replay: {:?}", boot2.report);
    let config2 =
        ServeConfig { wal: Some(std::sync::Arc::new(boot2.wal)), ..ServeConfig::default() };
    let handle2 = start_backend("127.0.0.1:0", boot2.graph, boot2.backend, config2).unwrap();
    let mut c2 = Client::connect(handle2.addr()).unwrap();
    for (n, frozen_row) in frozen.iter().enumerate() {
        let row = c2.get_embedding(n as u32).unwrap();
        assert_eq!(&row, frozen_row, "row {n} differs after WAL reboot");
    }

    // The rebooted server keeps ingesting.
    for &(u, v) in &removed[half..] {
        c2.add_edge(u, v).unwrap();
    }
    c2.flush().unwrap();
    let stats = c2.stats().unwrap();
    assert_eq!(stats.get("rejected").and_then(|s| s.as_u64()), Some(0), "{stats:?}");
    handle2.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_command_drains_and_stops_the_server() {
    let (handle, removed) = forest_server(ServeConfig::default());
    let mut c = Client::connect(handle.addr()).unwrap();
    for &(u, v) in &removed {
        c.add_edge(u, v).unwrap();
    }
    c.shutdown_server().unwrap();
    // wait() returns once the stop flag (set by the command) is honored;
    // the trainer drains queued events before exiting.
    let stats = handle.stats();
    handle.wait().unwrap();
    assert_eq!(
        stats.applied.get(),
        removed.len() as u64,
        "queued events must be drained during graceful shutdown"
    );
}
