//! Serving-path benchmark: query latency and ingest throughput of the
//! `seqge-serve` daemon, measured over a real loopback TCP connection so
//! the numbers include framing, JSON, and syscall costs — what a client
//! actually observes.
//!
//! Three phases:
//!
//! 1. **idle queries** — p50/p99 latency of `get_embedding`, `topk`, and
//!    `score_link` against a quiescent server (trainer thread parked);
//! 2. **ingest** — stream the spanning-forest-removed edges through
//!    `add_edge` and `flush`; throughput counts the full pipeline (walk
//!    restart from both endpoints, OS-ELM updates, snapshot republication),
//!    then the same stream again through a WAL-backed server (fsync=batch)
//!    to price the durability tax (`wal_overhead_pct`);
//! 3. **contended queries** — `get_embedding` p50/p99 while a second
//!    connection streams edges, demonstrating that the lock-free snapshot
//!    reads hold up under concurrent training.
//!
//! Writes `results/bench_serve.json` via `--json` (the experiment-script
//! convention) or to that default path when the flag is omitted.

use seqge_backend::BackendSpec;
use seqge_bench::{banner, write_json, Args};
use seqge_core::{OsElmConfig, TrainConfig};
use seqge_eval::EdgeOp;
use seqge_graph::{spanning_forest, Dataset};
use seqge_sampling::UpdatePolicy;
use seqge_serve::{start_backend, Client, ServeConfig};
use std::path::Path;
use std::time::Instant;

/// p-th percentile of unsorted per-request latencies, in microseconds.
fn percentile(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    if samples.is_empty() {
        return f64::NAN;
    }
    let idx = ((p / 100.0) * (samples.len() - 1) as f64).round() as usize;
    samples[idx]
}

fn timed<T>(mut op: impl FnMut() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = op();
    (out, t.elapsed().as_secs_f64() * 1e6)
}

fn latency_sweep(name: &str, n: usize, mut op: impl FnMut(u32), num_nodes: usize) -> (f64, f64) {
    let mut lat = Vec::with_capacity(n);
    for i in 0..n {
        let node = (i * 131) % num_nodes;
        let ((), us) = timed(|| op(node as u32));
        lat.push(us);
    }
    let p50 = percentile(&mut lat, 50.0);
    let p99 = percentile(&mut lat, 99.0);
    println!("  {name:<24} p50 {p50:8.1} us   p99 {p99:8.1} us   ({n} requests)");
    (p50, p99)
}

fn main() {
    let args = Args::parse(0.15);
    banner("serving-path latency & ingest throughput", args.scale);

    let dim = *args.dims.first().unwrap_or(&32);
    let mut cfg = TrainConfig::paper_defaults(dim);
    cfg.model.seed = args.seed;
    let ocfg = OsElmConfig { model: cfg.model, ..OsElmConfig::paper_defaults(dim) };

    // Serve the spanning forest; the removed edges are the live stream.
    let full = Dataset::Cora.generate_scaled(args.scale, args.seed);
    let split = spanning_forest(&full);
    let initial = split.initial_graph(&full);
    let stream = split.removed_edges.clone();
    let num_nodes = initial.num_nodes();
    println!(
        "cora scale {}: {} nodes, {} forest edges, {} streamed edges, d={dim}",
        args.scale,
        num_nodes,
        initial.num_edges(),
        stream.len()
    );

    let t = Instant::now();
    let spec = BackendSpec::float(cfg, ocfg, UpdatePolicy::every_edge(), args.seed);
    let mut backend = spec.cold(num_nodes);
    backend.bootstrap(&initial);
    println!("bootstrap: {:.1} ms", t.elapsed().as_secs_f64() * 1e3);
    let initial_wal = initial.clone();
    let handle = start_backend("127.0.0.1:0", initial, backend, ServeConfig::default())
        .expect("server starts");
    let addr = handle.addr();
    let mut c = Client::connect(addr).expect("client connects");

    // Phase 1: idle-server query latency.
    println!("idle queries:");
    let n = 2000;
    let (emb_p50, emb_p99) =
        latency_sweep("get_embedding", n, |node| drop(c.get_embedding(node).unwrap()), num_nodes);
    let (topk_p50, topk_p99) = latency_sweep(
        "topk k=10",
        n,
        |node| drop(c.topk(node, 10, EdgeOp::Cosine).unwrap()),
        num_nodes,
    );
    let (score_p50, score_p99) = latency_sweep(
        "score_link",
        n,
        |node| {
            c.score_link(node, (node + 1) % num_nodes as u32, EdgeOp::Cosine).unwrap();
        },
        num_nodes,
    );

    // Phase 2: ingest throughput (queue everything, flush barrier = fully
    // trained and republished). The initial stream is followed by toggle
    // rounds (remove + re-add keeps the graph invariant) so each arm runs
    // long enough for the plain-vs-WAL comparison to rise above scheduler
    // noise.
    let ingest_events = |c: &mut Client, stream: &[(u32, u32)]| -> (u64, f64) {
        const TOGGLE_ROUNDS: usize = 2;
        let t = Instant::now();
        for &(u, v) in stream {
            c.add_edge(u, v).expect("add_edge");
        }
        for _ in 0..TOGGLE_ROUNDS {
            for &(u, v) in stream {
                c.remove_edge(u, v).expect("remove_edge");
                c.add_edge(u, v).expect("add_edge");
            }
        }
        c.flush().expect("flush");
        (stream.len() as u64 * (1 + 2 * TOGGLE_ROUNDS as u64), t.elapsed().as_secs_f64())
    };
    let (events, ingest_s) = ingest_events(&mut c, &stream);
    let edges_per_sec = events as f64 / ingest_s;
    println!("ingest: {events} events trained in {ingest_s:.2} s  ({edges_per_sec:.0} events/s)");

    // Phase 2b: the same stream through a WAL-backed server with the
    // default `--fsync batch` policy — the steady-state durability tax.
    // Booted identically (same spec, deterministic bootstrap), so the
    // trained work per edge matches the plain arm exactly.
    let wal_dir = std::env::temp_dir().join(format!("seqge_bench_wal_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let wcfg =
        seqge_serve::WalConfig { dir: wal_dir.clone(), fsync: seqge_serve::FsyncPolicy::Batch };
    let boot = seqge_serve::boot_wal(&wcfg, Some(initial_wal), &spec, 0).expect("wal server boots");
    let wal_handle = start_backend(
        "127.0.0.1:0",
        boot.graph,
        boot.backend,
        ServeConfig { wal: Some(std::sync::Arc::new(boot.wal)), ..ServeConfig::default() },
    )
    .expect("wal server starts");
    let mut wc = Client::connect(wal_handle.addr()).expect("wal client connects");
    let (wal_events, wal_ingest_s) = ingest_events(&mut wc, &stream);
    let wal_edges_per_sec = wal_events as f64 / wal_ingest_s;
    let wal_overhead_pct = (1.0 - wal_edges_per_sec / edges_per_sec) * 100.0;
    println!(
        "ingest (wal, fsync=batch): {wal_events} events in {wal_ingest_s:.2} s  \
         ({wal_edges_per_sec:.0} events/s, overhead {wal_overhead_pct:+.1}%)"
    );
    wal_handle.shutdown().expect("wal shutdown");
    let _ = std::fs::remove_dir_all(&wal_dir);

    // Phase 3: query latency under write contention. A writer connection
    // re-toggles a slice of stream edges (remove + re-add keeps the graph
    // invariant) while this connection keeps reading.
    let writer = std::thread::spawn({
        let toggles: Vec<(u32, u32)> = stream.iter().take(400).copied().collect();
        move || {
            let mut w = Client::connect(addr).expect("writer connects");
            for &(u, v) in &toggles {
                w.remove_edge(u, v).expect("remove_edge");
                w.add_edge(u, v).expect("add_edge");
            }
            w.flush().expect("writer flush")
        }
    });
    println!("queries during ingest:");
    let (busy_p50, busy_p99) = latency_sweep(
        "get_embedding (busy)",
        n,
        |node| drop(c.get_embedding(node).unwrap()),
        num_nodes,
    );
    writer.join().expect("writer thread");

    let stats = handle.stats();
    let walks = stats.walks_trained.get();

    // Write-to-visibility freshness: enqueue -> snapshot-publish latency,
    // bucketed by how many writes the publishing batch folded. Populated
    // by the ingest phases above (tracing on by default; SEQGE_OBS=off
    // would leave the histograms empty but keep the event counter).
    println!("write-to-visibility freshness (seqge_freshness_ns):");
    let mut freshness = Vec::new();
    let mut freshness_p99_ms_max = 0.0f64;
    for (bucket, hist) in &stats.freshness_ns {
        let count = hist.count();
        if count == 0 {
            continue;
        }
        let p50_ms = hist.quantile(0.5) / 1e6;
        let p99_ms = hist.quantile(0.99) / 1e6;
        freshness_p99_ms_max = freshness_p99_ms_max.max(p99_ms);
        println!(
            "  batch={bucket:<6} p50 {p50_ms:8.2} ms   p99 {p99_ms:8.2} ms   ({count} publishes)"
        );
        freshness.push(serde_json::json!({
            "batch": *bucket,
            "publishes": count,
            "p50_ms": p50_ms,
            "p99_ms": p99_ms,
        }));
    }
    let writes_visible = stats.writes_visible.get();
    println!("  writes visible: {writes_visible}");
    handle.shutdown().expect("shutdown");

    let record = serde_json::json!({
        "dataset": "cora",
        "scale": args.scale,
        "dim": dim,
        "nodes": num_nodes,
        "streamed_edges": stream.len(),
        "ingest_events": events,
        "requests_per_sweep": n,
        "get_embedding_p50_us": emb_p50,
        "get_embedding_p99_us": emb_p99,
        "topk10_p50_us": topk_p50,
        "topk10_p99_us": topk_p99,
        "score_link_p50_us": score_p50,
        "score_link_p99_us": score_p99,
        "ingest_edges_per_sec": edges_per_sec,
        "ingest_wall_s": ingest_s,
        "ingest_edges_per_sec_wal_batch": wal_edges_per_sec,
        "ingest_wall_s_wal_batch": wal_ingest_s,
        "wal_overhead_pct": wal_overhead_pct,
        "walks_trained": walks,
        "get_embedding_busy_p50_us": busy_p50,
        "get_embedding_busy_p99_us": busy_p99,
        "freshness_ns_buckets": freshness,
        "freshness_p99_ms_max": freshness_p99_ms_max,
        "writes_visible": writes_visible,
        "note": "loopback TCP, line-delimited JSON, one request in flight; \
                 ingest throughput includes walk restarts from both edge \
                 endpoints, OS-ELM training, and snapshot republication, \
                 measured over the stream plus two remove/re-add toggle \
                 rounds; the wal arm runs the identical workload through a \
                 write-ahead-logged server with the default batch fsync \
                 policy; the busy sweep runs against a concurrent writer \
                 connection",
    });
    let path = args.json.clone().unwrap_or_else(|| Path::new("results/bench_serve.json").into());
    write_json(&path, &record).expect("write json");
    println!("json written to {}", path.display());
}
