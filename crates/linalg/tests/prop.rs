//! Property-based tests for the linear-algebra kernels.

use proptest::prelude::*;
use seqge_linalg::{ops, solve, Mat};

fn vec_strategy(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-10.0f64..10.0, n)
}

fn mat_strategy(r: usize, c: usize) -> impl Strategy<Value = Mat<f64>> {
    proptest::collection::vec(-5.0f64..5.0, r * c).prop_map(move |v| Mat::from_vec(r, c, v))
}

/// Random SPD matrix `B·Bᵀ + εI`.
fn spd_strategy(n: usize) -> impl Strategy<Value = Mat<f64>> {
    mat_strategy(n, n).prop_map(move |b| {
        let mut a = b.matmul(&b.transpose());
        for i in 0..n {
            a[(i, i)] += 1.0;
        }
        a
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dot_is_commutative_and_bilinear(x in vec_strategy(16), y in vec_strategy(16), a in -3.0f64..3.0) {
        let xy = ops::dot(&x, &y);
        let yx = ops::dot(&y, &x);
        prop_assert!((xy - yx).abs() < 1e-9);
        let ax: Vec<f64> = x.iter().map(|&v| a * v).collect();
        prop_assert!((ops::dot(&ax, &y) - a * xy).abs() < 1e-6 * (1.0 + xy.abs()).max(a.abs() + 1.0) * 100.0);
    }

    #[test]
    fn axpy_matches_definition(x in vec_strategy(12), y in vec_strategy(12), a in -3.0f64..3.0) {
        let mut out = y.clone();
        ops::axpy(a, &x, &mut out);
        for i in 0..12 {
            prop_assert!((out[i] - (y[i] + a * x[i])).abs() < 1e-12);
        }
    }

    #[test]
    fn cholesky_inverse_inverts(a in spd_strategy(5)) {
        let inv = solve::cholesky_inverse(&a).expect("SPD by construction");
        let prod = a.matmul(&inv);
        prop_assert!(prod.max_abs_diff(&Mat::identity(5)) < 1e-6);
    }

    #[test]
    fn rls_chain_matches_direct_inverse(hs in proptest::collection::vec(vec_strategy(4), 1..8)) {
        // Sherman–Morrison chain == direct inversion of (λI + Σ hᵀh).
        let lambda = 0.5f64;
        let mut gram = Mat::<f64>::scaled_identity(4, lambda);
        for h in &hs {
            ops::ger(&mut gram, 1.0, h, h);
        }
        let direct = solve::cholesky_inverse(&gram).expect("SPD");
        let mut p = Mat::<f64>::scaled_identity(4, 1.0 / lambda);
        for h in &hs {
            let mut ph = vec![0.0; 4];
            ops::gemv(&p, h, &mut ph);
            let denom = 1.0 + ops::dot(h, &ph);
            let hp = ph.clone();
            ops::p_downdate(&mut p, &ph, &hp, denom);
        }
        prop_assert!(p.max_abs_diff(&direct) < 1e-5, "chain vs direct: {}", p.max_abs_diff(&direct));
    }

    #[test]
    fn p_downdate_preserves_symmetry(a in spd_strategy(5), h in vec_strategy(5)) {
        let mut p = a.clone();
        let mut ph = vec![0.0; 5];
        ops::gemv(&p, &h, &mut ph);
        let denom = 1.0 + ops::dot(&h, &ph);
        let hp = ph.clone();
        ops::p_downdate(&mut p, &ph, &hp, denom);
        for i in 0..5 {
            for j in 0..5 {
                prop_assert!((p[(i, j)] - p[(j, i)]).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn transpose_involution(m in mat_strategy(6, 9)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_associates_with_identity(m in mat_strategy(5, 5)) {
        prop_assert!(m.matmul(&Mat::identity(5)).max_abs_diff(&m) < 1e-12);
        prop_assert!(Mat::identity(5).matmul(&m).max_abs_diff(&m) < 1e-12);
    }
}
