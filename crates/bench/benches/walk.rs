//! Random-walk kernel throughput: exact cumulative inversion vs rejection
//! sampling (the strategy trade-off behind FPGA walkers like LightRW \[6\])
//! on a `Csr` snapshot, and the serving walk — cumulative, Table 2's
//! p = 0.5, q = 1 — on the live `Graph` every ingest walks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use seqge_graph::generators::classic::barabasi_albert;
use seqge_graph::generators::{PlantedPartition, SbmParams};
use seqge_graph::Dataset;
use seqge_sampling::{Node2VecParams, Rng64, StepStrategy, WalkGraph, Walker};

/// One walk per iteration from successive start nodes.
fn walk_from_each<G: WalkGraph>(b: &mut criterion::Bencher, g: &G, mut walker: Walker) {
    let mut rng = Rng64::seed_from_u64(3);
    let mut buf = Vec::with_capacity(80);
    let mut start = 0u32;
    b.iter(|| {
        walker.walk_into(g, start % g.num_nodes() as u32, &mut rng, &mut buf);
        start = start.wrapping_add(1);
        buf.len()
    });
}

fn bench_walks(c: &mut Criterion) {
    let g = Dataset::AmazonPhoto.generate_scaled(0.2, 1);
    let csr = g.to_csr();
    let mut group = c.benchmark_group("walk80");
    for (name, strategy) in
        [("cumulative", StepStrategy::Cumulative), ("rejection", StepStrategy::Rejection)]
    {
        for &(p, q) in &[(0.5, 1.0), (0.25, 4.0), (4.0, 0.25)] {
            let params = Node2VecParams { p, q, ..Default::default() };
            group.bench_function(BenchmarkId::new(name, format!("p{p}_q{q}")), |b| {
                walk_from_each(b, &csr, Walker::with_strategy(params, strategy));
            });
        }
    }
    // `large_float`'s shape (50 000 nodes, mean degree 7, blocks of ≈ 224)
    // and a preferential-attachment graph of the same size and mean degree,
    // whose hubs make a step's candidates many and their lists long.
    let sbm = PlantedPartition::new(SbmParams::new(50_000, 175_000, 223))
        .expect("valid SBM params")
        .generate(7);
    let ba = barabasi_albert(50_000, 4, 7);
    for (name, live) in [("live_sbm50k_deg7", &sbm), ("live_ba50k_m4", &ba)] {
        group.bench_function(BenchmarkId::new(name, "p0.5_q1"), |b| {
            walk_from_each(b, live, Walker::new(Node2VecParams::default()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_walks);
criterion_main!(benches);
