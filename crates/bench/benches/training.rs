//! Per-walk training-kernel throughput: every model × the paper's three
//! embedding dimensions (the microbenchmark behind Tables 3/4) and
//! Algorithm 1 at the `large_float` size (n = 50 000), plus the
//! linalg inner kernels the models are built from — fused vs multi-pass
//! `P` maintenance and unrolled vs sequential-fold dot — the read path's
//! scan kernel in ns per row scored, and the publish path: the view render
//! and the index sync.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use seqge_ann::{AnnBuilder, AnnConfig, AnnIndex};
use seqge_backend::{BackendSpec, ViewBuffer};
use seqge_bench::prepared_walks;
use seqge_core::model::EmbeddingModel;
use seqge_core::{
    full_corpus, AlphaOsElm, DataflowOsElm, OsElmConfig, OsElmSkipGram, SkipGram, TrainConfig,
};
use seqge_eval::EdgeOp;
use seqge_fpga::Accelerator;
use seqge_graph::generators::{PlantedPartition, SbmParams};
use seqge_graph::Dataset;
use seqge_linalg::{ops, Mat, NormedMat};
use seqge_sampling::{Rng64, UpdatePolicy};
use seqge_serve::EmbeddingSnapshot;
use std::sync::Arc;

fn bench_training(c: &mut Criterion) {
    let cfg32 = TrainConfig::paper_defaults(32);
    let prep = prepared_walks(Dataset::Cora, 0.3, &cfg32, 1);
    let walks: Vec<_> = prep.walks.iter().take(16).cloned().collect();
    let n = prep.graph.num_nodes();

    let mut group = c.benchmark_group("train_walk");
    macro_rules! bench_model {
        ($name:expr, $dim:expr, $walks:expr, $table:expr, $make:expr) => {
            group.bench_function(BenchmarkId::new($name, $dim), |b| {
                let mut m = $make;
                let mut rng = Rng64::seed_from_u64(7);
                let mut i = 0;
                b.iter(|| {
                    m.train_walk(&$walks[i % $walks.len()], $table, &mut rng);
                    i += 1;
                });
            });
        };
    }
    for &dim in &[32usize, 64, 96] {
        let cfg = TrainConfig::paper_defaults(dim);
        let ocfg = OsElmConfig { model: cfg.model, ..OsElmConfig::paper_defaults(dim) };
        let table = &prep.table;
        bench_model!("original_sgd", dim, walks, table, SkipGram::new(n, cfg.model));
        bench_model!("proposed_oselm", dim, walks, table, OsElmSkipGram::new(n, ocfg));
        bench_model!("dataflow_oselm", dim, walks, table, DataflowOsElm::new(n, ocfg));
        bench_model!("alpha_oselm", dim, walks, table, AlphaOsElm::new(n, ocfg));
        bench_model!("fpga_functional", dim, walks, table, Accelerator::new(n, ocfg));
    }

    // Algorithm 1 at `large_float`'s size, where the 6.4 MB β matrix misses
    // L2 and every sample's row is a cold read; the ≈ 810-row Cora graph
    // above stays cache-resident, the control. A planted partition of
    // 50 000 nodes in blocks of ≈ 224, 3.5 edges per node, r = 1, an
    // every-edge table, every walk in turn. Per-position negatives (the
    // offline tables' rule) and the serving rule, one shared set per walk.
    let mut cfg = TrainConfig::paper_defaults(32);
    cfg.walk.walks_per_node = 1;
    let params = SbmParams::new(50_000, 175_000, 223);
    let graph = PlantedPartition::new(params).expect("valid SBM params").generate(7);
    let (_, walks, table, _) = full_corpus(&graph, &cfg, 7);
    let ocfg = OsElmConfig { model: cfg.model, ..OsElmConfig::paper_defaults(32) };
    let n = graph.num_nodes();
    bench_model!("proposed_oselm_50k", 32, walks, &table, OsElmSkipGram::new(n, ocfg));
    let served = BackendSpec::float(cfg, ocfg, UpdatePolicy::every_edge(), 7).oselm;
    bench_model!("proposed_oselm_50k_per_walk", 32, walks, &table, OsElmSkipGram::new(n, served));
    group.finish();
}

/// The EW-RLS `P` maintenance sweep: the fused single-pass kernel vs the
/// multi-pass downdate → inflate → trace-cap → symmetrize sequence it
/// replaced, at the paper's three dimensions.
fn bench_p_maintenance(c: &mut Criterion) {
    let mut group = c.benchmark_group("p_maintenance");
    for &dim in &[32usize, 64, 96] {
        let p0 = Mat::from_fn(dim, dim, |r, c| {
            let (lo, hi) = (r.min(c), r.max(c));
            if r == c {
                5.0f32
            } else {
                0.1 * ((lo * dim + hi) as f32 * 0.7).sin()
            }
        });
        let ph: Vec<f32> = (0..dim).map(|i| ((i + 1) as f32 * 0.37).sin()).collect();
        let cap = 10.0 * dim as f32;
        group.bench_function(BenchmarkId::new("fused", dim), |b| {
            let mut p = p0.clone();
            b.iter(|| {
                ops::p_downdate_forget(&mut p, black_box(&ph), 1.37, 1.0 / 0.98, cap);
            });
        });
        group.bench_function(BenchmarkId::new("multipass", dim), |b| {
            let mut p = p0.clone();
            b.iter(|| {
                ops::p_downdate_forget_ref(&mut p, black_box(&ph), 1.37, 1.0 / 0.98, cap);
            });
        });
    }
    group.finish();
}

/// Unrolled 8-lane dot vs the sequential fold it replaced — the
/// single hottest operation of the sample stage (one dot per sample).
fn bench_dot(c: &mut Criterion) {
    let mut group = c.benchmark_group("dot");
    for &dim in &[32usize, 64, 96] {
        let x: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.7).sin()).collect();
        let y: Vec<f32> = (0..dim).map(|i| (i as f32 * 1.3).cos()).collect();
        group.bench_function(BenchmarkId::new("unrolled", dim), |b| {
            b.iter(|| ops::dot(black_box(&x), black_box(&y)));
        });
        group.bench_function(BenchmarkId::new("sequential", dim), |b| {
            b.iter(|| ops::dot_ref(black_box(&x), black_box(&y)));
        });
    }
    group.finish();
}

/// The scan under every ranked read, at the repo benchmark's `large_float`
/// size (n = 50 000, d = 32, k = 10, cosine): `exact_topk10` is the whole
/// `EmbeddingSnapshot::topk` the ledger times as
/// `serve.snapshot.topk_exact_ns` (scorer set-up, sequential sweep, k-best);
/// `ann_topk10` the whole `EmbeddingSnapshot::topk_ann` at the default 8
/// probes the ledger times as `ann.query_ns` (query hash, Hamming distance
/// to every code, budget selection, exact re-rank); `rerank` pushes the
/// 1 152 random rows of that budget in ascending-id order — the pool an ANN
/// query re-ranks — through the same `Scorer`, so it reads the kernel under
/// a gather instead of a stream. All read each row's norm from the view, as
/// the served reads do.
fn bench_scan(c: &mut Criterion) {
    let (n, dim) = (50_000usize, 32usize);
    let mut rng = Rng64::seed_from_u64(22);
    let emb = Arc::new(NormedMat::from(Mat::from_fn(n, dim, |_, _| rng.next_f32() * 2.0 - 1.0)));
    let (index, _) = AnnBuilder::new(AnnConfig::default()).sync(&emb);
    let snap = EmbeddingSnapshot {
        version: 1,
        emb,
        num_edges: 0,
        walks_trained: 0,
        edges_inserted: 0,
        edges_removed: 0,
        ann: Some(index),
    };
    let mut group = c.benchmark_group("scan");
    group.throughput(Throughput::Elements(n as u64 - 1));
    group.bench_function(BenchmarkId::new("exact_topk10", n), |b| {
        let mut node = 0;
        b.iter(|| {
            node = (node + 977) % n as u32;
            snap.topk(node, 10, EdgeOp::Cosine)
        });
    });
    group.bench_function(BenchmarkId::new("ann_topk10", n), |b| {
        let mut node = 0;
        b.iter(|| {
            node = (node + 977) % n as u32;
            snap.topk_ann(node, 10, EdgeOp::Cosine, None, 8)
        });
    });
    let mut pool: Vec<usize> = (0..AnnIndex::budget(8)).map(|_| rng.gen_index(n)).collect();
    pool.sort_unstable();
    group.throughput(Throughput::Elements(pool.len() as u64));
    group.bench_function(BenchmarkId::new("rerank", pool.len()), |b| {
        let mut node = 0;
        b.iter(|| {
            node = (node + 977) % n;
            let scorer = EdgeOp::Cosine.scorer(snap.emb.row(node));
            let score = |v| scorer.score_normed(snap.emb.row(v), snap.emb.norm(v));
            pool.iter().map(|&v| score(v)).fold(f64::MIN, f64::max)
        });
    });
    group.finish();
}

/// A publish at the `large_float` size (n = 50 000, d = 32). The index half,
/// `AnnBuilder::sync`: `same_arc` is a flush barrier's sync (the view `Arc`
/// synced last — a pointer compare), `equal_bits` a new `Arc` with the same
/// bits (the exact row compare alone), `drift_18pct` one event's sync under
/// Algorithm 1's per-position negatives (18 % of rows moved by the relative
/// amounts [`drift`] draws), and `nudged_18pct` the worst case for the
/// margin budgets: the same 18 % moved by up to 5 % of the coordinate range,
/// which crosses most rows' nearest plane. `delta_18pct` is `drift_18pct`
/// told the moved rows (`AnnBuilder::sync_rows`, what a served publish
/// runs). Each of these alternates between two views. The view half,
/// `view_18pct`: a [`ViewBuffer`] publish of one event's dirty rows with no
/// reader holding the replaced view, so it re-renders that view's stale rows
/// and the new dirty ones, computing the dirty rows' norms; `view_99pct` the
/// same at `small_float`'s density, where the two lists cover the view and
/// the publish is one sequential pass.
fn bench_publish(c: &mut Criterion) {
    let (n, dim) = (50_000usize, 32usize);
    let mut rng = Rng64::seed_from_u64(26);
    let a = Arc::new(NormedMat::from(Mat::from_fn(n, dim, |_, _| rng.next_f32() * 2.0 - 1.0)));
    let mut b = Mat::clone(&a);
    for row in 0..n {
        if rng.gen_index(100) < 18 {
            for x in b.row_mut(row) {
                *x += 0.05 * (rng.next_f32() * 2.0 - 1.0);
            }
        }
    }
    let b = Arc::new(NormedMat::from(b));
    let (drifted, rows) = drift(&a, &mut rng);
    let drifted = Arc::new(NormedMat::from(drifted));
    let mut group = c.benchmark_group("publish");
    group.throughput(Throughput::Elements(n as u64));
    let mut builder = AnnBuilder::new(AnnConfig::default());
    builder.sync(&a);
    group.bench_function(BenchmarkId::new("same_arc", n), |bench| {
        bench.iter(|| builder.sync(black_box(&a)));
    });
    let copy = Arc::new((*a).clone());
    group.bench_function(BenchmarkId::new("equal_bits", n), |bench| {
        let mut flip = false;
        bench.iter(|| {
            flip = !flip;
            builder.sync(black_box(if flip { &copy } else { &a }))
        });
    });
    // Two events' dirty rows, drawn independently: the replaced view is stale
    // in one list, and the next publish dirties the other.
    let other: Vec<u32> = (0..n as u32).filter(|_| rng.gen_index(100) < 18).collect();
    let mut view = ViewBuffer::new(n, dim);
    view.publish(Vec::new(), |row, out| out.copy_from_slice(a.row(row as usize)));
    group.bench_function(BenchmarkId::new("view_18pct", n), |bench| {
        let mut flip = false;
        bench.iter(|| {
            flip = !flip;
            let (src, dirty) = if flip { (&drifted, &rows) } else { (&a, &other) };
            view.publish(dirty.clone(), |row, out| out.copy_from_slice(src.row(row as usize)))
        });
    });
    // `small_float`'s density: two events' lists of 99 % of the rows each.
    let dense: [Vec<u32>; 2] =
        std::array::from_fn(|_| (0..n as u32).filter(|_| rng.gen_index(100) < 99).collect());
    group.bench_function(BenchmarkId::new("view_99pct", n), |bench| {
        let mut flip = false;
        bench.iter(|| {
            flip = !flip;
            let (src, dirty) = if flip { (&drifted, &dense[0]) } else { (&a, &dense[1]) };
            view.publish(dirty.clone(), |row, out| out.copy_from_slice(src.row(row as usize)))
        });
    });
    for (name, moved) in [("drift_18pct", &drifted), ("nudged_18pct", &b)] {
        group.bench_function(BenchmarkId::new(name, n), |bench| {
            let mut flip = false;
            bench.iter(|| {
                flip = !flip;
                builder.sync(black_box(if flip { moved } else { &a }))
            });
        });
    }
    builder.sync(&a);
    group.bench_function(BenchmarkId::new("delta_18pct", n), |bench| {
        let mut flip = false;
        bench.iter(|| {
            flip = !flip;
            let (to, from) = if flip { (&drifted, &a) } else { (&a, &drifted) };
            builder.sync_rows(black_box(to), from, &rows)
        });
    });
    group.finish();
}

/// `view` with 18 % of its rows moved in a random direction by a relative
/// amount `‖Δ‖ / ‖x‖` drawn log-uniformly between the knots of the spread
/// one `large_float` event produces (p50 1.4e-7, p90 1.5e-6, p99 2.2e-3;
/// the ends, 1e-8 and 1e-2, bracket one ulp and the largest moves). A row
/// the rounding leaves unchanged gets a one-ulp step, so every moved row is
/// dirty. Returns the moved rows too, ascending.
fn drift(view: &Mat<f32>, rng: &mut Rng64) -> (Mat<f32>, Vec<u32>) {
    const KNOTS: [(f64, f64); 5] =
        [(0.0, 1e-8), (0.5, 1.4e-7), (0.9, 1.5e-6), (0.99, 2.2e-3), (1.0, 1e-2)];
    let (mut out, mut moved) = (view.clone(), Vec::new());
    for row in 0..out.rows() {
        if rng.gen_index(100) >= 18 {
            continue;
        }
        moved.push(row as u32);
        let q = rng.next_f64();
        let k = KNOTS.windows(2).position(|w| q < w[1].0).unwrap_or(KNOTS.len() - 2);
        let ((q0, v0), (q1, v1)) = (KNOTS[k], KNOTS[k + 1]);
        let rel = (v0.ln() + (v1 / v0).ln() * (q - q0) / (q1 - q0)).exp();
        let dir: Vec<f64> = (0..out.cols()).map(|_| rng.next_f64() * 2.0 - 1.0).collect();
        let x = out.row_mut(row);
        let norm_x = x.iter().map(|&v| v as f64 * v as f64).sum::<f64>().sqrt();
        let scale = rel * norm_x / dir.iter().map(|d| d * d).sum::<f64>().sqrt();
        let before = x.to_vec();
        for (x, d) in x.iter_mut().zip(&dir) {
            *x = (*x as f64 + scale * d) as f32;
        }
        if x == before.as_slice() {
            x[0] = x[0].next_up();
        }
    }
    (out, moved)
}

criterion_group!(
    benches,
    bench_training,
    bench_p_maintenance,
    bench_dot,
    bench_scan,
    bench_publish
);
criterion_main!(benches);
