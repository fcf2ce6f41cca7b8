//! Serving-path micro-benchmarks: one request round-trip over loopback
//! TCP against a live `seqge-serve` daemon.
//!
//! Complements `bench_serve` (the binary records p50/p99 percentiles and
//! ingest throughput into `results/bench_serve.json`; this harness tracks
//! per-operation means for regression comparison). The server boots once
//! per group from a 0.1-scale Cora spanning forest and the client reuses
//! one connection, so the measured cost is request framing + JSON +
//! snapshot read, not connection setup.

use criterion::{criterion_group, criterion_main, Criterion};
use seqge_backend::BackendSpec;
use seqge_core::{OsElmConfig, TrainConfig};
use seqge_eval::EdgeOp;
use seqge_graph::{spanning_forest, Dataset};
use seqge_sampling::UpdatePolicy;
use seqge_serve::{start_backend, Client, ServeConfig, ServerHandle};

const DIM: usize = 32;
const SEED: u64 = 42;

fn boot() -> (ServerHandle, Client, Vec<(u32, u32)>, usize) {
    let mut cfg = TrainConfig::paper_defaults(DIM);
    cfg.model.seed = SEED;
    // A short corpus keeps boot sub-second; query cost is corpus-free.
    cfg.walk.walk_length = 12;
    cfg.walk.walks_per_node = 1;
    let ocfg = OsElmConfig { model: cfg.model, ..OsElmConfig::paper_defaults(DIM) };
    let full = Dataset::Cora.generate_scaled(0.1, SEED);
    let split = spanning_forest(&full);
    let initial = split.initial_graph(&full);
    let n = initial.num_nodes();
    let mut backend = BackendSpec::float(cfg, ocfg, UpdatePolicy::every_edge(), SEED).cold(n);
    backend.bootstrap(&initial);
    let handle = start_backend("127.0.0.1:0", initial, backend, ServeConfig::default())
        .expect("server starts");
    let client = Client::connect(handle.addr()).expect("client connects");
    (handle, client, split.removed_edges, n)
}

fn bench_serve(c: &mut Criterion) {
    let (handle, mut client, stream, num_nodes) = boot();
    let mut group = c.benchmark_group("serve");
    group.sample_size(20);

    let mut i = 0u32;
    group.bench_function("get_embedding", |b| {
        b.iter(|| {
            i = (i + 131) % num_nodes as u32;
            client.get_embedding(i).unwrap()
        });
    });
    group.bench_function("topk10_cosine", |b| {
        b.iter(|| {
            i = (i + 131) % num_nodes as u32;
            client.topk(i, 10, EdgeOp::Cosine).unwrap()
        });
    });
    group.bench_function("score_link_dot", |b| {
        b.iter(|| {
            i = (i + 131) % num_nodes as u32;
            client.score_link(i, (i + 1) % num_nodes as u32, EdgeOp::Dot).unwrap()
        });
    });

    // Ingest: each iteration trains one edge event end-to-end (queue,
    // walk restarts from both endpoints, OS-ELM update, republication —
    // flush is the barrier). Toggling add/remove keeps the graph state
    // stable across iterations.
    let mut j = 0usize;
    let mut pending_add = true;
    group.bench_function("ingest_edge_flush", |b| {
        b.iter(|| {
            let (u, v) = stream[j % stream.len()];
            if pending_add {
                client.add_edge(u, v).unwrap();
            } else {
                client.remove_edge(u, v).unwrap();
                j += 1;
            }
            pending_add = !pending_add;
            client.flush().unwrap()
        });
    });
    group.finish();
    handle.shutdown().expect("shutdown");
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
