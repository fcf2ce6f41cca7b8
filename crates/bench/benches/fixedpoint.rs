//! Fixed-point datapath costs and accuracy: the Q-format ablation behind
//! the accelerator's number-format choice.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use seqge_fixed::error::roundtrip_error;
use seqge_fixed::ops::{
    dot_headroom, gated_dot, mac_dot, max_abs_bits, mul_add, naive_dot, MacAccumulator,
};
use seqge_fixed::vector::rank1_downdate;
use seqge_fixed::{Fx, Q8_24};
use seqge_linalg::ops::dot;

/// The accelerator's three inner kernels at d = 32, each as the scalar
/// [`MacAccumulator`] reference next to the headroom-gated kernel the
/// accelerator runs (range checks hoisted as it hoists them). Operands are
/// in the trained range — |H| ≲ 0.2, P and gains below 1 — so the gated side
/// takes its lane paths, as on every context of a healthy run.
fn bench_kernels_d32(c: &mut Criterion) {
    let d = 32usize;
    let ramp = |mul: usize, scale: f32| -> Vec<Q8_24> {
        let f = |i: usize| ((i * mul) % 100) as f32 / 100.0 - 0.5;
        Q8_24::quantize_slice(&(0..d * d).map(|i| f(i) * scale).collect::<Vec<_>>())
    };
    let (h, beta, phn) = (ramp(37, 0.4), ramp(53, 8.0), ramp(71, 0.9));
    let (h, beta, phn) = (&h[..d], &beta[..d], &phn[..d]);
    let e = Q8_24::from_f64(0.73);
    let inv = Q8_24::from_f64(0.91);

    let mut group = c.benchmark_group("dot32");
    group.bench_function("reference", |b| b.iter(|| mac_dot(black_box(beta), black_box(h))));
    let wide = dot_headroom(h);
    assert!(wide);
    group.bench_function("gated", |b| b.iter(|| gated_dot(wide, black_box(beta), black_box(h))));
    group.finish();

    let mut group = c.benchmark_group("update32");
    let mut slot = vec![Q8_24::ZERO; d];
    group.bench_function("reference", |b| {
        b.iter(|| {
            for (s, &g) in slot.iter_mut().zip(black_box(phn)) {
                let mut acc = MacAccumulator::new();
                acc.mac(g, e);
                *s = s.sat_add(acc.finish());
            }
        })
    });
    let mut slot = vec![Q8_24::ZERO; d];
    let phn_max = max_abs_bits(phn);
    group.bench_function("gated", |b| {
        b.iter(|| mul_add(black_box(e), black_box(phn), phn_max, &mut slot))
    });
    group.finish();

    let mut group = c.benchmark_group("downdate32x32");
    let mut p = ramp(29, 0.5);
    group.bench_function("reference", |b| {
        b.iter(|| {
            for (row, &g) in p.chunks_exact_mut(d).zip(black_box(phn)) {
                let mut acc = MacAccumulator::new();
                acc.mac(g, inv);
                let scaled: Q8_24 = acc.finish();
                for (m, &hp) in row.iter_mut().zip(phn) {
                    let mut acc = MacAccumulator::new();
                    acc.mac(scaled, hp);
                    *m = m.sat_sub(acc.finish());
                }
            }
        })
    });
    let mut p = ramp(29, 0.5);
    group.bench_function("gated", |b| {
        b.iter(|| rank1_downdate(&mut p, d, black_box(phn), phn, black_box(inv)))
    });
    group.finish();
}

fn bench_fixed(c: &mut Criterion) {
    let n = 96;
    let xs_f: Vec<f32> = (0..n).map(|i| ((i * 37) % 100) as f32 / 100.0 - 0.5).collect();
    let ys_f: Vec<f32> = (0..n).map(|i| ((i * 53) % 100) as f32 / 100.0 - 0.5).collect();
    let xs_q = Q8_24::quantize_slice(&xs_f);
    let ys_q = Q8_24::quantize_slice(&ys_f);

    let mut group = c.benchmark_group("dot96");
    group.bench_function("f32", |b| b.iter(|| dot(&xs_f, &ys_f)));
    group.bench_function("q8_24_mac_tree", |b| b.iter(|| mac_dot(&xs_q, &ys_q)));
    group.bench_function("q8_24_naive", |b| b.iter(|| naive_dot(&xs_q, &ys_q)));
    group.finish();

    // Round-trip quantization error across fraction widths (reported via
    // bench labels; asserts the expected monotonicity).
    let vals: Vec<f64> = (0..10_000).map(|i| (i as f64 - 5000.0) * 0.003).collect();
    let e16 = roundtrip_error::<16>(&vals);
    let e20 = roundtrip_error::<20>(&vals);
    let e24 = roundtrip_error::<24>(&vals);
    assert!(e24.rms <= e20.rms && e20.rms <= e16.rms);
    let mut group = c.benchmark_group("quantize_slice_10k");
    for frac in [16u32, 20, 24] {
        group.bench_function(BenchmarkId::from_parameter(frac), |b| {
            b.iter(|| match frac {
                16 => vals.iter().map(|&v| Fx::<16>::from_f64(v).to_bits() as i64).sum::<i64>(),
                20 => vals.iter().map(|&v| Fx::<20>::from_f64(v).to_bits() as i64).sum::<i64>(),
                _ => vals.iter().map(|&v| Fx::<24>::from_f64(v).to_bits() as i64).sum::<i64>(),
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fixed, bench_kernels_d32);
criterion_main!(benches);
