//! Property-based tests for the fixed-point datapath.

use proptest::collection::vec;
use proptest::prelude::*;
use seqge_fixed::ops::{
    dot_headroom, gated_dot, lane_dot, lane_fits, mac_dot, max_abs_bits, mul_add, mul_sub,
    naive_dot, MacAccumulator,
};
use seqge_fixed::vector::rank1_downdate;
use seqge_fixed::{Fx, Q8_24};

/// 0..=70 raw Q8.24 words laid out in runs of one kind each: ordinary
/// weights (|w| < 0.5), arbitrary words, `i32::MIN`, `i32::MAX`.
fn words() -> impl Strategy<Value = Vec<Q8_24>> {
    (vec(any::<i32>(), 0usize..=70), vec((0u8..4, 1usize..=12), 70usize)).prop_map(
        |(vals, runs)| {
            let kinds = runs.iter().flat_map(|&(kind, len)| std::iter::repeat_n(kind, len));
            vals.into_iter()
                .zip(kinds)
                .map(|(v, kind)| {
                    Q8_24::from_bits(match kind {
                        0 => v >> 8,
                        1 => v,
                        2 => i32::MIN,
                        _ => i32::MAX,
                    })
                })
                .collect()
        },
    )
}

/// [`words`] scaled down by a random shift of at most `max_shift` — the
/// operand a range check is taken on, landing on both sides of it.
fn scaled_words(max_shift: u32) -> impl Strategy<Value = Vec<Q8_24>> {
    (words(), 0..=max_shift)
        .prop_map(|(w, sh)| w.iter().map(|v| Q8_24::from_bits(v.to_bits() >> sh)).collect())
}

/// The per-element reference of `y ± q(a·x)`: one single-product
/// [`MacAccumulator`] chain per lane.
fn mul_acc_reference(a: Q8_24, x: &[Q8_24], y: &[Q8_24], subtract: bool) -> Vec<Q8_24> {
    x.iter()
        .zip(y)
        .map(|(&xi, &yi)| {
            let mut acc = MacAccumulator::new();
            acc.mac(a, xi);
            let q: Q8_24 = acc.finish();
            if subtract {
                yi.sat_sub(q)
            } else {
                yi.sat_add(q)
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// In-range conversion round-trips within half an ulp.
    #[test]
    fn roundtrip_within_half_ulp(x in -100.0f64..100.0) {
        let q = Q8_24::from_f64(x);
        prop_assert!(!q.is_saturated());
        prop_assert!((q.to_f64() - x).abs() <= 0.5 / Q8_24::SCALE + 1e-15);
    }

    /// Saturating ops are total (no panic) and idempotent at the rails.
    #[test]
    fn ops_total_and_bounded(a in any::<i32>(), b in any::<i32>()) {
        let x = Q8_24::from_bits(a);
        let y = Q8_24::from_bits(b);
        let results = [x.sat_add(y), x.sat_sub(y), x.sat_mul(y), x.sat_div(y), x.sat_neg(), x.abs()];
        // No panics is the main property; also the rails absorb further adds.
        prop_assert!(results.len() == 6);
        prop_assert_eq!(Q8_24::MAX.sat_add(Q8_24::ONE), Q8_24::MAX);
        prop_assert_eq!(Q8_24::MIN.sat_sub(Q8_24::ONE), Q8_24::MIN);
    }

    /// Addition is commutative; multiplication is commutative.
    #[test]
    fn commutativity(a in -1000.0f64..1000.0, b in -1000.0f64..1000.0) {
        let x = Q8_24::from_f64(a);
        let y = Q8_24::from_f64(b);
        prop_assert_eq!(x.sat_add(y), y.sat_add(x));
        prop_assert_eq!(x.sat_mul(y), y.sat_mul(x));
    }

    /// Fixed-point multiply tracks float multiply within quantization error
    /// for in-range operands/products.
    #[test]
    fn mul_tracks_float(a in -10.0f64..10.0, b in -10.0f64..10.0) {
        let q = Q8_24::from_f64(a).sat_mul(Q8_24::from_f64(b));
        // Error: input quantization (~|b|+|a| halves of an ulp) + one
        // truncation; all ≪ 1e-5 at these magnitudes.
        prop_assert!((q.to_f64() - a * b).abs() < 1e-5, "{} vs {}", q.to_f64(), a * b);
    }

    /// Ordering is preserved by conversion.
    #[test]
    fn conversion_is_monotone(a in -100.0f64..100.0, b in -100.0f64..100.0) {
        if a <= b {
            prop_assert!(Q8_24::from_f64(a) <= Q8_24::from_f64(b));
        }
    }

    /// The MAC tree quantizes exactly once, so relative to the
    /// quantized-input exact dot product its error is at most half an ulp —
    /// while the naive per-step datapath accumulates one rounding per
    /// element.
    #[test]
    fn mac_tree_single_rounding_bound(
        xs in proptest::collection::vec(-1.0f64..1.0, 1..64),
        ys in proptest::collection::vec(-1.0f64..1.0, 64),
    ) {
        let n = xs.len();
        let ys = &ys[..n];
        let xq: Vec<Q8_24> = xs.iter().map(|&v| Q8_24::from_f64(v)).collect();
        let yq: Vec<Q8_24> = ys.iter().map(|&v| Q8_24::from_f64(v)).collect();
        // Exact dot of the *quantized* inputs (what the datapaths both see).
        let exact_q: f64 = xq.iter().zip(&yq).map(|(a, b)| a.to_f64() * b.to_f64()).sum();
        let ulp = 1.0 / Q8_24::SCALE;
        let mac_err = (mac_dot(&xq, &yq).to_f64() - exact_q).abs();
        prop_assert!(mac_err <= 0.5 * ulp + 1e-12, "mac err {mac_err}");
        // Naive error is bounded by one rounding per element.
        let naive_err = (naive_dot(&xq, &yq).to_f64() - exact_q).abs();
        prop_assert!(naive_err <= (n as f64) * 0.5 * ulp + 1e-12, "naive err {naive_err}");
    }

    /// Division by self is ≈1 for values well inside the range.
    #[test]
    fn div_self_is_one(a in 0.01f64..100.0) {
        let x = Q8_24::from_f64(a);
        let r = x.sat_div(x).to_f64();
        prop_assert!((r - 1.0).abs() < 1e-4, "{r}");
    }

    /// `recip` agrees with float reciprocal inside the representable band.
    #[test]
    fn recip_tracks_float(a in 0.05f64..100.0) {
        let r = Q8_24::from_f64(a).recip().to_f64();
        prop_assert!((r - 1.0 / a).abs() < 1e-3, "{r} vs {}", 1.0 / a);
    }

    /// Fx<16> has wider range: values > Q8.24's rail still convert exactly.
    #[test]
    fn q16_16_range(x in 200.0f64..30000.0) {
        prop_assert!(Q8_24::from_f64(x).is_saturated());
        let w = Fx::<16>::from_f64(x);
        prop_assert!(!w.is_saturated());
        prop_assert!((w.to_f64() - x).abs() <= 0.5 / Fx::<16>::SCALE + 1e-12);
    }

    /// The gated dot equals the saturating reference for all inputs, and
    /// the lane sum alone equals it whenever the headroom check holds. Each
    /// case is a batch so that both sides of the check are seen to be taken.
    #[test]
    fn gated_dot_equals_reference(batch in vec((scaled_words(9), words()), 24usize)) {
        let (mut wide_taken, mut chain_taken) = (0, 0);
        for (h, x) in &batch {
            let n = h.len().min(x.len());
            let (h, x) = (&h[..n], &x[..n]);
            let wide = dot_headroom(h);
            prop_assert_eq!(gated_dot(wide, x, h), mac_dot(x, h));
            prop_assert_eq!(gated_dot(wide, h, x), mac_dot(h, x));
            if wide {
                prop_assert_eq!(lane_dot(x, h), mac_dot(x, h));
                wide_taken += 1;
            } else {
                chain_taken += 1;
            }
        }
        prop_assert!(wide_taken > 0 && chain_taken > 0, "{wide_taken} wide, {chain_taken} chained");
    }

    /// The gated update and downdate row equal the per-element reference for
    /// all inputs — under `lane_fits` that is the clamp-free loop, otherwise
    /// the clamping one, and every batch takes both.
    #[test]
    fn gated_update_equals_reference(
        batch in vec((scaled_words(12), words(), any::<i32>(), 0u32..=3), 24usize),
    ) {
        let (mut free_taken, mut clamp_taken) = (0, 0);
        for (x, y, a, sh) in &batch {
            let n = x.len().min(y.len());
            let (x, y, a) = (&x[..n], &y[..n], Q8_24::from_bits(a >> sh));
            let x_max = max_abs_bits(x);
            let (mut sum, mut diff) = (y.to_vec(), y.to_vec());
            mul_add(a, x, x_max, &mut sum);
            mul_sub(a, x, x_max, &mut diff);
            prop_assert_eq!(sum, mul_acc_reference(a, x, y, false));
            prop_assert_eq!(diff, mul_acc_reference(a, x, y, true));
            if lane_fits(a, x_max) {
                free_taken += 1;
            } else {
                clamp_taken += 1;
            }
        }
        prop_assert!(free_taken > 0 && clamp_taken > 0, "{free_taken} free, {clamp_taken} clamped");
    }

    /// `rank1_downdate` equals its per-element definition
    /// `m[r][c] −= q(q(ph[r]·inv)·hp[c])`; each row is one `mul_sub`, whose
    /// two sides the previous property covers.
    #[test]
    fn downdate_equals_reference(
        ph in words(),
        hp in scaled_words(12),
        m in vec(any::<i32>(), 70usize * 70),
        inv in any::<i32>(),
        sh in 0u32..=8,
    ) {
        let d = ph.len().min(hp.len());
        let (ph, hp, inv) = (&ph[..d], &hp[..d], Q8_24::from_bits(inv >> sh));
        let m: Vec<Q8_24> = m[..d * d].iter().map(|&v| Q8_24::from_bits(v)).collect();
        let mut got = m.clone();
        rank1_downdate(&mut got, d, ph, hp, inv);
        for r in 0..d {
            let mut acc = MacAccumulator::new();
            acc.mac(ph[r], inv);
            let want = mul_acc_reference(acc.finish(), hp, &m[r * d..(r + 1) * d], true);
            prop_assert_eq!(&got[r * d..(r + 1) * d], &want[..], "row {r}");
        }
    }
}
