//! Walker alias-table costs: O(n) build vs O(1) sample (the trade-off
//! behind the paper's Fig. 7 update-frequency study), against a linear-scan
//! baseline — and what the every-edge policy costs `NegativeTable` per
//! inserted edge and per draw now that a tick appends to a log instead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use seqge_sampling::{AliasTable, NegativeTable, Rng64, UpdatePolicy, WalkCorpus};

fn weights(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 2654435761) % 1000) as f64 + 1.0).collect()
}

fn bench_alias(c: &mut Criterion) {
    let mut build = c.benchmark_group("alias_build");
    for &n in &[2708usize, 13_752, 100_000] {
        let w = weights(n);
        build.bench_function(BenchmarkId::from_parameter(n), |b| {
            b.iter(|| AliasTable::new(&w).len());
        });
    }
    build.finish();

    let mut sample = c.benchmark_group("negative_sample");
    for &n in &[2708usize, 13_752] {
        let w = weights(n);
        let table = AliasTable::new(&w);
        sample.bench_function(BenchmarkId::new("alias_o1", n), |b| {
            let mut rng = Rng64::seed_from_u64(1);
            b.iter(|| table.sample(&mut rng));
        });
        // Baseline: cumulative-sum linear scan, O(n) per draw.
        let cum: Vec<f64> = w
            .iter()
            .scan(0.0, |acc, &x| {
                *acc += x;
                Some(*acc)
            })
            .collect();
        sample.bench_function(BenchmarkId::new("linear_scan", n), |b| {
            let mut rng = Rng64::seed_from_u64(1);
            let total = *cum.last().unwrap();
            b.iter(|| {
                let draw = rng.next_f64() * total;
                cum.iter().position(|&c| c >= draw).unwrap_or(cum.len() - 1)
            });
        });
        // Binary search over the cumulative sums, O(log n).
        sample.bench_function(BenchmarkId::new("binary_search", n), |b| {
            let mut rng = Rng64::seed_from_u64(1);
            let total = *cum.last().unwrap();
            b.iter(|| {
                let draw = rng.next_f64() * total;
                cum.partition_point(|&c| c < draw)
            });
        });
    }
    sample.finish();
}

/// One 80-node walk over `n` nodes.
fn walk(n: usize, rng: &mut Rng64) -> Vec<u32> {
    (0..80).map(|_| rng.gen_index(n) as u32).collect()
}

/// A corpus of one walk per node and the every-edge table built from it.
fn bootstrapped(n: usize, rng: &mut Rng64) -> (WalkCorpus, NegativeTable) {
    let mut corpus = WalkCorpus::new(n);
    for _ in 0..n {
        corpus.record(&walk(n, rng));
    }
    let mut table = NegativeTable::new(UpdatePolicy::every_edge());
    table.rebuild(&corpus);
    (corpus, table)
}

fn bench_negative_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("negative_table");
    let mut rng = Rng64::seed_from_u64(1);
    // One ingest's worth of sampler upkeep: two walks recorded, one tick.
    // Compactions (one per ⌊n/160⌋ ticks) are inside the mean.
    for &n in &[2708usize, 13_752, 100_000] {
        let (mut corpus, mut table) = bootstrapped(n, &mut rng);
        let walks = [walk(n, &mut rng), walk(n, &mut rng)];
        group.bench_function(BenchmarkId::new("on_edge_inserted", n), |b| {
            b.iter(|| {
                corpus.record(&walks[0]);
                corpus.record(&walks[1]);
                table.on_edge_inserted(&corpus)
            });
        });
    }
    let n = 13_752;
    let (mut corpus, mut table) = bootstrapped(n, &mut rng);
    group.bench_function("sample/empty_log", |b| b.iter(|| table.sample(0, &mut rng)));
    for _ in 0..n / 2 / 160 {
        corpus.record(&walk(n, &mut rng));
        corpus.record(&walk(n, &mut rng));
        table.on_edge_inserted(&corpus);
    }
    group.bench_function("sample/half_full_log", |b| b.iter(|| table.sample(0, &mut rng)));
    group.finish();
}

criterion_group!(benches, bench_alias, bench_negative_table);
criterion_main!(benches);
