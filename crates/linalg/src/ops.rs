//! Vector and matrix-vector kernels used by the training inner loops.
//!
//! These are the exact operations in Algorithm 1 / Algorithm 2 of the paper:
//! dot products (`H·βcol`), axpy column updates (`β += (P·Hᵀ)·e`), gemv
//! (`P·Hᵀ`, `H·P`), and the symmetric rank-1 downdate of `P`.
//!
//! The element-parallel kernels (`dot`, `axpy`, `scal`, `gemv`, …) are
//! written over `chunks_exact` with 8-wide unrolling so LLVM autovectorizes
//! them without a SIMD dependency. `axpy`/`scal` stay bit-identical to a
//! sequential loop (elementwise, no reassociation); `dot` carries eight
//! independent accumulators, which reassociates the sum — [`dot_ref`] keeps
//! the sequential fold as the tolerance oracle and bench baseline.
//!
//! One fused kernel serves the OS-ELM hot path specifically:
//! [`p_downdate_forget`] collapses the EW-RLS `P` maintenance
//! (downdate → inflate → trace-cap → symmetrize) into one contiguous
//! full-matrix sweep.
//!
//! The read path has its own family, [`scan_dot`] / [`scan_dot_norm2`] /
//! [`scan_dist2`]: one query against one stored `f32` row, accumulated in
//! `f64` over the same eight lanes and reduction tree as [`dot`]. Every
//! similarity score the system reports is a function of their results, so
//! their lane order *is* the definition of a score's bits.
//!
//! The symmetric `P` kernels ([`p_downdate_sym`], [`p_downdate_forget`])
//! rest on one IEEE-754 fact: multiplication is commutative *bitwise*
//! (`a*b == b*a` exactly). Writing the rank-1 term as
//! `neg_inv·(ph[r]·ph[c])` — instead of hoisting `neg_inv·ph[r]` per
//! row — makes the (r,c) and (c,r) updates compute the identical value,
//! so exactly symmetric input stays exactly symmetric through a plain
//! full-matrix sweep with contiguous stores. An earlier iteration
//! mirrored an upper-triangle sweep into the lower triangle instead;
//! the column-strided stores made it ~3× slower than the naive ger it
//! replaced, which is why no kernel here writes across rows.

use crate::matrix::Mat;
use crate::scalar::Scalar;

/// `x · y`, unrolled 8-wide with independent accumulators (two 4-lane
/// registers' worth, enough chains to hide the add latency).
///
/// The accumulator chains reassociate the sum relative to a sequential
/// fold; the difference is bounded by ordinary float summation error
/// (≈ n·ε·Σ|xᵢyᵢ|). For `len < 8` only the tail loop runs and the
/// result is bit-identical to [`dot_ref`].
#[inline]
pub fn dot<T: Scalar>(x: &[T], y: &[T]) -> T {
    debug_assert_eq!(x.len(), y.len());
    let mut xs = x.chunks_exact(8);
    let mut ys = y.chunks_exact(8);
    let (mut a0, mut a1, mut a2, mut a3) = (T::ZERO, T::ZERO, T::ZERO, T::ZERO);
    let (mut a4, mut a5, mut a6, mut a7) = (T::ZERO, T::ZERO, T::ZERO, T::ZERO);
    for (cx, cy) in (&mut xs).zip(&mut ys) {
        a0 += cx[0] * cy[0];
        a1 += cx[1] * cy[1];
        a2 += cx[2] * cy[2];
        a3 += cx[3] * cy[3];
        a4 += cx[4] * cy[4];
        a5 += cx[5] * cy[5];
        a6 += cx[6] * cy[6];
        a7 += cx[7] * cy[7];
    }
    let mut tail = T::ZERO;
    for (&xv, &yv) in xs.remainder().iter().zip(ys.remainder()) {
        tail += xv * yv;
    }
    ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7)) + tail
}

/// Sequential-fold `x · y` — the pre-vectorization kernel, kept as the
/// reassociation oracle for tests and the baseline for the kernel benches.
#[inline]
pub fn dot_ref<T: Scalar>(x: &[T], y: &[T]) -> T {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = T::ZERO;
    for i in 0..x.len() {
        acc += x[i] * y[i];
    }
    acc
}

/// [`dot`]'s reduction tree over eight lane accumulators.
#[inline(always)]
fn lane_tree(a: &[f64; 8]) -> f64 {
    ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]))
}

/// The lane structure under the `scan_*` kernels: `Σ term(x[i], y[i])` over
/// eight independent `f64` accumulators (lane `i % 8`) reduced by
/// [`lane_tree`], the `len % 8` tail folded sequentially and added last.
/// Accumulators start at `-0.0`, the additive identity (`-0.0 + t == t` for
/// every `t`, `+0.0` included), so a sum carries the sign a sequential
/// `Iterator::sum` gives it — an all-`-0.0` sum stays `-0.0`, and
/// `total_cmp` ranks the two zeros apart.
#[inline(always)]
fn scan_sum<A: Copy, B: Copy>(x: &[A], y: &[B], term: impl Fn(A, B) -> f64) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let mut xs = x.chunks_exact(8);
    let mut ys = y.chunks_exact(8);
    let mut acc = [-0.0f64; 8];
    for (cx, cy) in (&mut xs).zip(&mut ys) {
        for (sum, (&a, &b)) in acc.iter_mut().zip(cx.iter().zip(cy)) {
            *sum += term(a, b);
        }
    }
    let mut tail = -0.0f64;
    for (&a, &b) in xs.remainder().iter().zip(ys.remainder()) {
        tail += term(a, b);
    }
    lane_tree(&acc) + tail
}

/// `q · row` for a query already widened to `f64` against a stored `f32`
/// row. Each product of two widened `f32`s is exact in `f64` (24 + 24
/// significand bits), so the only rounding is the accumulation, whose order
/// `scan_sum` fixes; swapping the two vectors' roles returns the same
/// bits.
#[inline]
pub fn scan_dot(q: &[f64], row: &[f32]) -> f64 {
    scan_sum(q, row, |a, b| a * b as f64)
}

/// `Σ ((x[i] − row[i]) as f64)²`: the difference is taken in `f32`, as the
/// rows are stored, then widened and squared exactly. The difference form
/// is kept over `‖x‖² + ‖row‖² − 2·x·row`, which cancels catastrophically
/// for the near-identical rows a nearest-neighbour query is about.
#[inline]
pub fn scan_dist2(x: &[f32], row: &[f32]) -> f64 {
    scan_sum(x, row, |a, b| {
        let diff = (a - b) as f64;
        diff * diff
    })
}

/// `(q · row, ‖row‖²)` in one pass over `row` — what a cosine needs from a
/// candidate when the query's own norm was hoisted out of the sweep. Both
/// sums have `scan_sum`'s lanes, tree and tail: the first is
/// [`scan_dot`]'s bits, the second depends on `row` alone, so a vector has
/// one squared norm whichever side of a pair it is on.
#[inline]
pub fn scan_dot_norm2(q: &[f64], row: &[f32]) -> (f64, f64) {
    /// Out of line on purpose. Inlined, LLVM's SLP pass pairs the two
    /// isomorphic reductions and, through them, lane `l` of the dot with
    /// lane `l` of the norm in one register: every element is then widened
    /// by a scalar convert and shuffled into place (27 ns per d = 32 row).
    /// Behind a call the lanes leave the loop through memory, neighbours
    /// pair up instead, and the row is widened two lanes per instruction
    /// (17 ns; `cargo bench --bench training`, group `scan`). It takes two
    /// separate accumulator arrays to get that, which is why this loop is
    /// written out instead of being a two-sum `scan_sum` (50 ns).
    #[inline(never)]
    fn reduce(a: &[f64; 8]) -> f64 {
        lane_tree(a)
    }
    debug_assert_eq!(q.len(), row.len());
    let mut qs = q.chunks_exact(8);
    let mut rs = row.chunks_exact(8);
    let (mut dot, mut norm2) = ([-0.0f64; 8], [-0.0f64; 8]);
    for (cq, cr) in (&mut qs).zip(&mut rs) {
        for ((dot, norm2), (&a, &b)) in dot.iter_mut().zip(&mut norm2).zip(cq.iter().zip(cr)) {
            let b = b as f64;
            *dot += a * b;
            *norm2 += b * b;
        }
    }
    let (mut dot_tail, mut norm2_tail) = (-0.0f64, -0.0f64);
    for (&a, &b) in qs.remainder().iter().zip(rs.remainder()) {
        let b = b as f64;
        dot_tail += a * b;
        norm2_tail += b * b;
    }
    (reduce(&dot) + dot_tail, reduce(&norm2) + norm2_tail)
}

/// `y += a · x`. Elementwise (no reassociation): bit-identical to the
/// sequential loop for every length.
#[inline]
pub fn axpy<T: Scalar>(a: T, x: &[T], y: &mut [T]) {
    debug_assert_eq!(x.len(), y.len());
    let mut xs = x.chunks_exact(8);
    let mut ys = y.chunks_exact_mut(8);
    for (cx, cy) in (&mut xs).zip(&mut ys) {
        cy[0] += a * cx[0];
        cy[1] += a * cx[1];
        cy[2] += a * cx[2];
        cy[3] += a * cx[3];
        cy[4] += a * cx[4];
        cy[5] += a * cx[5];
        cy[6] += a * cx[6];
        cy[7] += a * cx[7];
    }
    for (&xv, yv) in xs.remainder().iter().zip(ys.into_remainder()) {
        *yv += a * xv;
    }
}

/// `x *= a`. Elementwise: bit-identical to the sequential loop.
#[inline]
pub fn scal<T: Scalar>(a: T, x: &mut [T]) {
    let mut xs = x.chunks_exact_mut(8);
    for c in &mut xs {
        c[0] *= a;
        c[1] *= a;
        c[2] *= a;
        c[3] *= a;
        c[4] *= a;
        c[5] *= a;
        c[6] *= a;
        c[7] *= a;
    }
    for v in xs.into_remainder() {
        *v *= a;
    }
}

/// Euclidean norm.
pub fn norm2<T: Scalar>(x: &[T]) -> T {
    dot(x, x).sqrt()
}

/// `y = A · x` for row-major `A` (`rows×cols`), `x` of length `cols`.
/// One unrolled [`dot`] per row: consecutive rows carry independent
/// accumulator chains, so the out-of-order core overlaps them without
/// any explicit interleaving (hand-paired two-row chains measured
/// *slower* than this loop).
pub fn gemv<T: Scalar>(a: &Mat<T>, x: &[T], y: &mut [T]) {
    assert_eq!(a.cols(), x.len(), "gemv: x length mismatch");
    assert_eq!(a.rows(), y.len(), "gemv: y length mismatch");
    for (r, out) in y.iter_mut().enumerate() {
        *out = dot(a.row(r), x);
    }
}

/// Rank-1 update `A += a · x yᵀ` (BLAS `ger`).
pub fn ger<T: Scalar>(a_mat: &mut Mat<T>, a: T, x: &[T], y: &[T]) {
    assert_eq!(a_mat.rows(), x.len(), "ger: x length mismatch");
    assert_eq!(a_mat.cols(), y.len(), "ger: y length mismatch");
    for (r, &xr) in x.iter().enumerate() {
        axpy(a * xr, y, a_mat.row_mut(r));
    }
}

/// The OS-ELM `P` downdate:
/// `P ← P − (P Hᵀ)(H P) / denom`, where `ph = P·Hᵀ` and `hp = H·P` are
/// precomputed `d`-vectors and `denom` is `1 + H·P·Hᵀ` (regularized) or
/// `H·P·Hᵀ` (the paper's literal Algorithm 1 line 5).
///
/// For symmetric `P` the two vectors coincide; they are kept separate so the
/// fixed-point pipeline can model both datapaths.
pub fn p_downdate<T: Scalar>(p: &mut Mat<T>, ph: &[T], hp: &[T], denom: T) {
    assert_eq!(p.rows(), ph.len());
    assert_eq!(p.cols(), hp.len());
    let inv = T::ONE / denom;
    ger(p, -inv, ph, hp);
}

/// Symmetric rank-1 downdate `P ← P − (ph·phᵀ)/denom`.
///
/// The update term is formed as `neg_inv·(ph[r]·ph[c])` — both inner
/// products commute bitwise, so positions (r,c) and (c,r) receive the
/// identical addend and exactly symmetric `P` stays exactly symmetric:
/// the property the downdate analytically preserves and the hardware's
/// triangular `P` storage enforces for free. Versus [`p_downdate`]
/// (which hoists `neg_inv·ph[r]` per row) each element differs by at
/// most the one re-rounding of the reassociated product — ulp-level.
/// The sweep itself is full-matrix with contiguous stores, so it runs
/// at [`ger`] speed rather than paying strided mirror writes.
pub fn p_downdate_sym<T: Scalar>(p: &mut Mat<T>, ph: &[T], denom: T) {
    let d = p.rows();
    assert_eq!(p.cols(), d, "p_downdate_sym: P must be square");
    assert_eq!(ph.len(), d, "p_downdate_sym: ph length mismatch");
    let neg_inv = -(T::ONE / denom);
    let s = p.as_mut_slice();
    for (row, &phr) in s.chunks_exact_mut(d).zip(ph) {
        for (v, &phc) in row.iter_mut().zip(ph) {
            *v += neg_inv * (phr * phc);
        }
    }
}

/// Fused EW-RLS `P` maintenance: rank-1 downdate, `1/λ` inflation, and
/// PSD-preserving trace cap in one O(d) diagonal pass plus one
/// contiguous full-matrix sweep. The multi-pass form
/// ([`p_downdate_forget_ref`]) walks the `d×d` matrix up to four times
/// (downdate, inflate, cap, symmetrize); the fused sweep touches each
/// element exactly once.
///
/// `inv_lambda` must be the caller-computed `1/λ` and `cap` the trace cap
/// (`p0_scale · d`).
///
/// The reference's symmetrize pass is not replicated — it is made
/// redundant: the commutative-product form `neg_inv·(ph[r]·ph[c])` gives
/// (r,c) and (c,r) bitwise-identical updates, so exactly symmetric `P`
/// stays exactly symmetric with no averaging pass (callers establish
/// exact symmetry at cold entry points; see `Mat::symmetrize`). Versus
/// the reference the result differs only by float reassociation: one
/// re-rounding from the product regrouping plus the symmetrize average
/// of two ulp-apart mirror values — ≤ a few ulp per element, covered by
/// the tolerance test below. (The λ = 1 model path calls
/// [`p_downdate_sym`], which makes the same trade.)
pub fn p_downdate_forget<T: Scalar>(p: &mut Mat<T>, ph: &[T], denom: T, inv_lambda: T, cap: T) {
    let d = p.rows();
    assert_eq!(p.cols(), d, "p_downdate_forget: P must be square");
    assert_eq!(ph.len(), d, "p_downdate_forget: ph length mismatch");
    let neg_inv = -(T::ONE / denom);
    let s = p.as_mut_slice();
    // The trace cap depends on the post-downdate inflated diagonal, which
    // is computable in O(d) before any element is written.
    let mut trace = T::ZERO;
    for i in 0..d {
        trace += (s[i * d + i] + neg_inv * (ph[i] * ph[i])) * inv_lambda;
    }
    let capped = trace > cap;
    let gain = if capped { cap / trace } else { T::ONE };
    for (row, &phr) in s.chunks_exact_mut(d).zip(ph) {
        if capped {
            for (v, &phc) in row.iter_mut().zip(ph) {
                *v = ((*v + neg_inv * (phr * phc)) * inv_lambda) * gain;
            }
        } else {
            for (v, &phc) in row.iter_mut().zip(ph) {
                *v = (*v + neg_inv * (phr * phc)) * inv_lambda;
            }
        }
    }
}

/// Multi-pass reference for [`p_downdate_forget`]: the literal
/// downdate → `scal(1/λ)` → trace-cap → symmetrize sequence the fused
/// kernel replaces. Kept as the equivalence oracle and the bench baseline.
pub fn p_downdate_forget_ref<T: Scalar>(p: &mut Mat<T>, ph: &[T], denom: T, inv_lambda: T, cap: T) {
    p_downdate(p, ph, ph, denom);
    scal(inv_lambda, p.as_mut_slice());
    let d = p.rows();
    let trace: T = (0..d).map(|i| p[(i, i)]).sum();
    if trace > cap {
        scal(cap / trace, p.as_mut_slice());
    }
    let half = T::from_f64(0.5);
    for r in 0..d {
        for c in (r + 1)..d {
            let avg = half * (p[(r, c)] + p[(c, r)]);
            p[(r, c)] = avg;
            p[(c, r)] = avg;
        }
    }
}

/// Elementwise `out = x - y`.
pub fn sub<T: Scalar>(x: &[T], y: &[T], out: &mut [T]) {
    debug_assert_eq!(x.len(), y.len());
    debug_assert_eq!(x.len(), out.len());
    for i in 0..x.len() {
        out[i] = x[i] - y[i];
    }
}

/// Numerically stable logistic sigmoid.
#[inline]
pub fn sigmoid<T: Scalar>(x: T) -> T {
    if x.to_f64() >= 0.0 {
        let e = (-x).exp();
        T::ONE / (T::ONE + e)
    } else {
        let e = x.exp();
        e / (T::ONE + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(n: usize, f: impl Fn(usize) -> f64) -> Vec<f64> {
        (0..n).map(f).collect()
    }

    #[test]
    fn dot_axpy_scal() {
        let x = [1.0f64, 2.0, 3.0];
        let mut y = [4.0, 5.0, 6.0];
        assert_eq!(dot(&x, &y), 32.0);
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [6.0, 9.0, 12.0]);
        scal(0.5, &mut y);
        assert_eq!(y, [3.0, 4.5, 6.0]);
        assert!((norm2(&[3.0f32, 4.0]) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn unrolled_dot_close_to_sequential_reference() {
        // The 8-lane unroll reassociates the sum; the drift must stay
        // within float summation error at every length (tails of 0, 1, 3,
        // 4, 5 and 7 after the last full chunk included).
        for n in [1usize, 3, 4, 5, 7, 8, 31, 64, 97] {
            let x = fill(n, |i| (i as f64 * 0.7).sin());
            let y = fill(n, |i| (i as f64 * 1.3).cos());
            let (a, b) = (dot(&x, &y), dot_ref(&x, &y));
            assert!((a - b).abs() <= 1e-12 * n as f64, "n={n}: {a} vs {b}");
            if n < 8 {
                assert_eq!(a, b, "sub-chunk lengths take the sequential tail path");
            }
        }
    }

    #[test]
    fn scan_kernels_reduce_in_dots_lane_order() {
        // Widened by hand and pushed through the f64 `dot`, every scan
        // kernel must give the same value: same lanes, same tree, same tail.
        for n in [0usize, 1, 7, 8, 9, 12, 20, 32, 67] {
            let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.7).sin()).collect();
            let y: Vec<f32> = (0..n).map(|i| (i as f32 * 1.3).cos() * 3.0).collect();
            let wide = |v: &[f32]| v.iter().map(|&a| a as f64).collect::<Vec<f64>>();
            let (wx, wy) = (wide(&x), wide(&y));
            assert_eq!(scan_dot(&wx, &y), dot(&wx, &wy), "dot n={n}");
            assert_eq!(scan_dot(&wx, &y).to_bits(), scan_dot(&wy, &x).to_bits(), "symmetry n={n}");
            assert_eq!(scan_dot_norm2(&wx, &y), (dot(&wx, &wy), dot(&wy, &wy)), "dot+norm n={n}");
            let diff: Vec<f64> = x.iter().zip(&y).map(|(&a, &b)| (a - b) as f64).collect();
            assert_eq!(scan_dist2(&x, &y), dot(&diff, &diff), "dist n={n}");
        }
    }

    #[test]
    fn scan_sums_keep_the_sign_of_an_all_negative_zero_sum() {
        // What `Iterator::sum` returns, and what `total_cmp` ranks by.
        for n in [0usize, 5, 12, 32] {
            let neg = scan_dot(&vec![0.0; n], &vec![-1.0; n]);
            assert!(neg == 0.0 && neg.is_sign_negative(), "n={n}");
        }
        let mut row = vec![-1.0f32; 12];
        row[9] = 1.0;
        let mixed = scan_dot(&[0.0; 12], &row);
        assert!(mixed == 0.0 && mixed.is_sign_positive());
    }

    #[test]
    fn axpy_scal_bit_identical_to_sequential() {
        for n in [1usize, 3, 4, 6, 8, 17, 33] {
            let x = fill(n, |i| (i as f64 * 0.9).sin());
            let mut y = fill(n, |i| (i as f64 * 0.4).cos());
            let mut y_ref = y.clone();
            axpy(1.7, &x, &mut y);
            for i in 0..n {
                y_ref[i] += 1.7 * x[i];
            }
            assert_eq!(y, y_ref, "axpy n={n}");
            let mut z = y.clone();
            let mut z_ref = y;
            scal(0.3, &mut z);
            for v in &mut z_ref {
                *v *= 0.3;
            }
            assert_eq!(z, z_ref, "scal n={n}");
        }
    }

    #[test]
    fn gemv_matches_manual() {
        let a = Mat::from_vec(2, 3, vec![1.0f64, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let x = [1.0, 0.0, -1.0];
        let mut y = [0.0; 2];
        gemv(&a, &x, &mut y);
        assert_eq!(y, [-2.0, -2.0]);
    }

    #[test]
    fn gemv_row_pairing_matches_per_row_dots() {
        // Odd row count and width exercise the unrolled body plus the tail.
        let a = Mat::from_fn(7, 9, |r, c| ((r * 9 + c) as f64 * 0.31).sin());
        let x = fill(9, |i| (i as f64 * 0.77).cos());
        let mut y = [0.0; 7];
        gemv(&a, &x, &mut y);
        for (r, &yr) in y.iter().enumerate() {
            assert_eq!(yr, dot(a.row(r), &x), "row {r}");
        }
    }

    #[test]
    fn ger_rank1() {
        let mut a = Mat::<f64>::zeros(2, 2);
        ger(&mut a, 2.0, &[1.0, 3.0], &[5.0, 7.0]);
        assert_eq!(a.as_slice(), &[10.0, 14.0, 30.0, 42.0]);
    }

    #[test]
    fn p_downdate_keeps_symmetry_and_shrinks() {
        // P = I, H = e0. Regularized downdate: P' = I - e0 e0ᵀ / 2.
        let mut p = Mat::<f64>::identity(3);
        let h = [1.0, 0.0, 0.0];
        let mut ph = [0.0; 3];
        gemv(&p, &h, &mut ph);
        let hp = ph; // symmetric P
        let denom = 1.0 + dot(&h, &ph);
        p_downdate(&mut p, &ph, &hp, denom);
        assert!((p[(0, 0)] - 0.5).abs() < 1e-12);
        assert_eq!(p[(1, 1)], 1.0);
        assert_eq!(p[(0, 1)], 0.0);
        // Symmetric after the update.
        assert_eq!(p[(1, 0)], p[(0, 1)]);
    }

    #[test]
    fn sherman_morrison_identity() {
        // After the downdate, P should equal (P0^{-1} + HᵀH)^{-1} for P0 = I:
        // with H = [1, 1], that's (I + 1s)^{-1}; spot-check via P' · (I + HᵀH) = I.
        let mut p = Mat::<f64>::identity(2);
        let h = [1.0, 1.0];
        let mut ph = [0.0; 2];
        gemv(&p, &h, &mut ph);
        let denom = 1.0 + dot(&h, &ph);
        let hp = ph;
        p_downdate(&mut p, &ph, &hp, denom);
        // M = I + HᵀH
        let mut m = Mat::<f64>::identity(2);
        ger(&mut m, 1.0, &h, &h);
        let prod = p.matmul(&m);
        assert!(prod.max_abs_diff(&Mat::identity(2)) < 1e-12);
    }

    /// An exactly symmetric PSD-ish matrix (the invariant the models
    /// establish at cold entry points via `Mat::symmetrize`).
    fn sym_p(d: usize) -> Mat<f32> {
        Mat::from_fn(d, d, |r, c| {
            let (lo, hi) = (r.min(c), r.max(c));
            if r == c {
                5.0
            } else {
                0.1 * ((lo * d + hi) as f32 * 0.7).sin()
            }
        })
    }

    #[test]
    fn sym_downdate_matches_general_within_reassociation() {
        for d in [1usize, 2, 3, 8, 17] {
            let ph: Vec<f32> = (0..d).map(|i| ((i + 1) as f32 * 0.37).sin()).collect();
            let mut sym = sym_p(d);
            let mut gen = sym_p(d);
            p_downdate_sym(&mut sym, &ph, 1.37);
            p_downdate(&mut gen, &ph, &ph, 1.37);
            // One product regrouping per element: ulp-level drift only.
            assert!(sym.max_abs_diff(&gen) <= 1e-5, "d={d}");
        }
    }

    #[test]
    fn sym_downdate_preserves_exact_symmetry() {
        let mut p = sym_p(9);
        let ph: Vec<f32> = (0..9).map(|i| (i as f32 * 0.9).cos()).collect();
        for _ in 0..50 {
            p_downdate_sym(&mut p, &ph, 2.0);
        }
        for r in 0..9 {
            for c in 0..9 {
                assert_eq!(p[(r, c)], p[(c, r)], "({r},{c})");
            }
        }
    }

    #[test]
    fn fused_p_downdate_forget_matches_multipass_within_reassociation() {
        for d in [1usize, 2, 3, 8, 17] {
            let ph: Vec<f32> = (0..d).map(|i| ((i + 1) as f32 * 0.37).sin()).collect();
            let denom = 1.37f32;
            let inv_lambda = 1.0 / 0.98f32;
            // Cap low enough to trigger the rescale branch on some dims.
            for cap in [4.0f32 * d as f32, 1000.0] {
                let mut fused = sym_p(d);
                let mut multi = sym_p(d);
                p_downdate_forget(&mut fused, &ph, denom, inv_lambda, cap);
                p_downdate_forget_ref(&mut multi, &ph, denom, inv_lambda, cap);
                // Drift bound: the product regrouping re-rounds once and
                // the reference's symmetrize averages two ulp-apart mirror
                // values — a few ulp of ~5.0-magnitude f32 entries.
                assert!(
                    fused.max_abs_diff(&multi) <= 1e-5,
                    "d={d} cap={cap}: fused sweep beyond reassociation bound"
                );
            }
        }
    }

    #[test]
    fn fused_p_downdate_forget_preserves_exact_symmetry() {
        let mut p = sym_p(9);
        let ph: Vec<f32> = (0..9).map(|i| (i as f32 * 0.9).cos()).collect();
        // Iterate with forgetting: any seeded asymmetry would inflate by
        // 1/λ per step, so exact preservation is load-bearing here.
        for _ in 0..50 {
            p_downdate_forget(&mut p, &ph, 2.0, 1.0 / 0.95, 45.0);
        }
        for r in 0..9 {
            for c in 0..9 {
                assert_eq!(p[(r, c)], p[(c, r)], "({r},{c})");
            }
        }
    }

    #[test]
    fn mat_symmetrize_is_noop_on_symmetric_input() {
        let mut p = sym_p(6);
        let before = p.as_slice().to_vec();
        p.symmetrize();
        assert_eq!(p.as_slice(), &before[..], "½·(a+a) must round-trip");
        // And it repairs a dented matrix to exact symmetry.
        let mut dented = sym_p(6);
        dented[(2, 4)] += 1e-3;
        dented.symmetrize();
        assert_eq!(dented[(2, 4)], dented[(4, 2)]);
    }

    #[test]
    fn sub_elementwise() {
        let mut out = [0.0f32; 2];
        sub(&[3.0, 1.0], &[1.0, 4.0], &mut out);
        assert_eq!(out, [2.0, -3.0]);
    }

    #[test]
    fn sigmoid_stable_and_correct() {
        assert!((sigmoid(0.0f64) - 0.5).abs() < 1e-12);
        assert!(sigmoid(100.0f64) <= 1.0);
        assert!(sigmoid(-100.0f64) >= 0.0);
        assert!(sigmoid(-100.0f64) < 1e-30);
        let s = sigmoid(2.0f32);
        assert!((s.to_f64() - 1.0 / (1.0 + (-2.0f64).exp())).abs() < 1e-6);
        // Symmetry: σ(-x) = 1 - σ(x)
        assert!((sigmoid(-1.3f64) - (1.0 - sigmoid(1.3f64))).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "gemv")]
    fn gemv_shape_mismatch_panics() {
        let a = Mat::<f64>::zeros(2, 3);
        let mut y = [0.0; 2];
        gemv(&a, &[1.0, 2.0], &mut y);
    }
}
