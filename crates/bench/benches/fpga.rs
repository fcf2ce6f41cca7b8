//! Simulator throughput: how many simulated walks per second the functional
//! fixed-point accelerator model processes, and the cost of the timing model
//! itself.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use seqge_bench::prepared_walks;
use seqge_core::model::EmbeddingModel;
use seqge_core::{OsElmConfig, TrainConfig};
use seqge_fpga::{Accelerator, TimingModel};
use seqge_graph::Dataset;
use seqge_sampling::Rng64;

fn bench_fpga(c: &mut Criterion) {
    let cfg = TrainConfig::paper_defaults(32);
    let prep = prepared_walks(Dataset::Cora, 0.2, &cfg, 1);
    let walks: Vec<_> = prep.walks.iter().take(8).cloned().collect();

    let mut group = c.benchmark_group("fpga_sim");
    for &dim in &[32usize, 64] {
        let ocfg = OsElmConfig {
            model: TrainConfig::paper_defaults(dim).model,
            ..OsElmConfig::paper_defaults(dim)
        };
        group.bench_function(BenchmarkId::new("functional_walk", dim), |b| {
            let mut acc = Accelerator::new(prep.graph.num_nodes(), ocfg);
            let mut rng = Rng64::seed_from_u64(5);
            let mut i = 0;
            b.iter(|| {
                acc.train_walk(&walks[i % walks.len()], &prep.table, &mut rng);
                i += 1;
            });
        });
        group.bench_function(BenchmarkId::new("timing_model_only", dim), |b| {
            let timing = TimingModel::default();
            b.iter(|| timing.walk_cycles(dim, 73, 77));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fpga);
criterion_main!(benches);
