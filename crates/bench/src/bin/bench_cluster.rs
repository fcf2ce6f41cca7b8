//! Cluster ingest-scaling benchmark: edge-stream throughput of a sharded
//! `seqge-cluster` deployment, 1 shard vs 4 shards, through the router
//! over real loopback TCP.
//!
//! Each arm boots an in-process cluster (`shards` trainer threads, each
//! with its own WAL at fsync=batch) and streams the spanning-forest-held
//! edges through `add_edge` from four concurrent writer connections,
//! finishing with a `flush` barrier so the wall time covers the full
//! pipeline: routing, WAL append, walk restarts on the owning shard,
//! OS-ELM training, and snapshot republication. The client-side pressure
//! (4 connections) is identical in both arms, so the ratio isolates the
//! shard plane.
//!
//! `scaling_ratio` is the headline number: >1 means added shards bought
//! real throughput. Under single-owner partitioning every edge trains on
//! exactly one shard (`edge_owner(u, v) = owner(min(u, v))`), so the
//! 4-shard arm
//! performs the *same* total training work as the 1-shard arm, split
//! across four trainer threads — on a ≥4-core host the ratio is gated in
//! CI at >1.0 (target ≥1.5). Every run also reconciles the per-shard
//! `edges_inserted` counters against the stream length, proving no
//! cross-shard edge trained twice (the earlier both-endpoint router
//! summed to ~2× here). On a smaller host the trainer threads timeshare
//! and the ratio degrades toward 1.0 minus fan-out overhead; the `cores`
//! field records the budget the run actually had.
//!
//! Writes `results/bench_cluster.json` via `--json` (experiment-script
//! convention) or to that default path when the flag is omitted.

use seqge_bench::{bench_args, experiments::SEED, write_json};
use seqge_cluster::{Cluster, ClusterConfig};
use seqge_graph::{spanning_forest, Dataset, Graph};
use seqge_serve::{Client, ClientConfig};
use std::time::{Duration, Instant};

const WRITERS: usize = 4;
/// Repetitions per arm; the fastest run is reported. Sub-second arms on a
/// loaded host are scheduling-noise-dominated, and min-of-N is the usual
/// estimator for the noise-free cost.
const REPS: usize = 3;

/// One connection with its own client id. Write dedup keys on
/// `(client, seq)` and every connection numbers its writes from 1, so
/// writers sharing an id would collide and have most of their stream
/// silently deduped instead of trained — the reconciliation assert below
/// exists to catch exactly that class of bench bug.
fn client(addr: &str, tag: &str) -> Client {
    Client::connect_with(
        addr,
        ClientConfig {
            timeout: Duration::from_secs(30),
            retries: 8,
            client_id: format!("bench-{}-{tag}", std::process::id()),
            ..ClientConfig::default()
        },
    )
    .expect("client connects to router")
}

/// Best (fastest) of [`REPS`] ingest runs: (edges/sec, wall seconds).
fn ingest_best(
    shards: usize,
    initial: &Graph,
    stream: &[(u32, u32)],
    dim: usize,
    seed: u64,
) -> (f64, f64) {
    (0..REPS)
        .map(|_| ingest_run(shards, initial, stream, dim, seed))
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .expect("at least one rep")
}

/// Streams `stream` through a fresh `shards`-shard cluster and returns
/// edges/sec over the write+flush wall time.
fn ingest_run(
    shards: usize,
    initial: &Graph,
    stream: &[(u32, u32)],
    dim: usize,
    seed: u64,
) -> (f64, f64) {
    let base =
        std::env::temp_dir().join(format!("seqge_bench_cluster_{}_{shards}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let cfg = ClusterConfig::in_process(shards, base.clone(), dim, seed);
    let cluster = Cluster::start(&cfg, initial).expect("cluster boots");
    let addr = cluster.addr().to_string();

    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let addr = &addr;
            let chunk: Vec<(u32, u32)> = stream.iter().copied().skip(w).step_by(WRITERS).collect();
            scope.spawn(move || {
                let mut c = client(addr, &format!("w{w}"));
                for (u, v) in chunk {
                    c.add_edge(u, v).expect("write acks");
                }
            });
        }
    });
    let mut c = client(&addr, "flush");
    c.flush().expect("flush barrier");
    let wall = t0.elapsed().as_secs_f64();

    // Exactly-once accounting (outside the timed window): the per-shard
    // train counters must sum to the stream length, or the ratio is
    // comparing arms that did different amounts of work.
    let trained: u64 = cluster
        .shard_addrs()
        .iter()
        .map(|a| {
            let mut sc = client(&a.to_string(), "stats");
            let stats = sc.call(r#"{"cmd":"stats"}"#).expect("shard stats");
            stats.get("edges_inserted").and_then(serde_json::Value::as_u64).unwrap_or(0)
        })
        .sum();
    assert_eq!(
        trained,
        stream.len() as u64,
        "{shards}-shard arm: per-shard edges_inserted must reconcile with the stream \
         (an excess means a cross-shard edge trained twice)"
    );

    cluster.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&base);
    (stream.len() as f64 / wall, wall)
}

fn main() {
    let (scale, path) = bench_args(
        "cluster ingest scaling (1 shard vs 4 shards)",
        0.3,
        "results/bench_cluster.json",
    );
    let dim = 32;
    let full = Dataset::Cora.generate_scaled(scale, SEED);
    let split = spanning_forest(&full);
    let initial = split.initial_graph(&full);
    let stream = split.removed_edges;
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "cora scale {}: {} nodes, {} forest edges, {} streamed edges, d={dim}, {cores} cores",
        scale,
        initial.num_nodes(),
        initial.num_edges(),
        stream.len()
    );

    let (eps1, wall1) = ingest_best(1, &initial, &stream, dim, SEED);
    println!("  1 shard : {eps1:9.0} edges/s  ({wall1:.2}s wall, best of {REPS})");
    let (eps4, wall4) = ingest_best(4, &initial, &stream, dim, SEED);
    println!("  4 shards: {eps4:9.0} edges/s  ({wall4:.2}s wall, best of {REPS})");
    let ratio = eps4 / eps1;
    println!("  scaling : {ratio:.2}x");

    let record = serde_json::json!({
        "dataset": "cora",
        "scale": scale,
        "dim": dim,
        "nodes": initial.num_nodes(),
        "streamed_edges": stream.len(),
        "writer_connections": WRITERS,
        "reps_per_arm": REPS,
        "cores": cores,
        "ingest_1shard_eps": eps1,
        "ingest_1shard_wall_s": wall1,
        "ingest_4shard_eps": eps4,
        "ingest_4shard_wall_s": wall4,
        "scaling_ratio": ratio,
        "exactly_once_verified": true,
        "note": "loopback TCP through the scatter-gather router, 4 concurrent \
                 writer connections in both arms, fsync=batch WAL per shard, \
                 flush barrier included in the wall time, fastest of 3 runs \
                 per arm; single-owner partitioning trains every edge on \
                 exactly one shard (per-shard edges_inserted counters \
                 reconcile with the stream length each run), so both arms do \
                 identical total training work and the ratio measures real \
                 parallelism; attainable ratio is bounded by min(cores, 4) \
                 minus router fan-out overhead",
    });
    write_json(&path, &record).expect("write json");
    println!("json written to {}", path.display());
}
