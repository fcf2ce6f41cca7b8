//! Matrix-shaped kernels over fixed-point lanes: what is left here is the
//! `P` side of the accelerator's Stage 2/4 — [`scale`] (the forgetting
//! inflation) and [`rank1_downdate`] (the `ΔP` computation). Dot products and
//! the element-wise `Δβ` update live in [`crate::ops`].

use crate::ops::{max_abs_bits, mul_sub};
use crate::q::Fx;

/// `x *= a` elementwise.
#[inline]
pub fn scale<const FRAC: u32>(a: Fx<FRAC>, x: &mut [Fx<FRAC>]) {
    for v in x {
        *v = v.sat_mul(a);
    }
}

/// Symmetric rank-1 downdate `M -= (ph · hpᵀ) * inv` over a flat `d×d`
/// matrix: the Stage 2/4 `ΔP` computation.
///
/// Multiply order matters in fixed point: `(ph[r]·hp[c])` can exceed the
/// Q-format rail even when the final entry `ph[r]·hp[c]·inv` is small
/// (`inv = 1/denom` with `denom ≈ 1 + H·ph`, so the two factors largely
/// cancel). The datapath therefore scales one operand by `inv` *first* —
/// `t[r] = ph[r]·inv` stays O(1/|H|) — and multiplies by `hp[c]` second.
/// Same DSP count; no intermediate saturation. Each row is one [`mul_sub`]:
/// quantized per element, clamp-free whenever `t[r]·max|hp|` leaves headroom.
///
/// `#[inline(always)]`: the d² lane products here only reach the caller's
/// vector unit if this is compiled inside the caller (see [`crate::ops`]),
/// and at `#[inline]` the inliner leaves it out of line.
#[inline(always)]
pub fn rank1_downdate<const FRAC: u32>(
    m: &mut [Fx<FRAC>],
    d: usize,
    ph: &[Fx<FRAC>],
    hp: &[Fx<FRAC>],
    inv: Fx<FRAC>,
) {
    assert_eq!(m.len(), d * d);
    assert_eq!(ph.len(), d);
    assert_eq!(hp.len(), d);
    let hp_max = max_abs_bits(hp);
    for r in 0..d {
        mul_sub(ph[r].sat_mul(inv), hp, hp_max, &mut m[r * d..(r + 1) * d]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::q::Q8_24;

    fn q(v: f64) -> Q8_24 {
        Q8_24::from_f64(v)
    }

    fn qv(vs: &[f64]) -> Vec<Q8_24> {
        vs.iter().map(|&v| q(v)).collect()
    }

    #[test]
    fn scale_matches_float() {
        let mut x = qv(&[1.0, -4.0]);
        scale(q(0.25), &mut x);
        assert_eq!(x[0].to_f64(), 0.25);
        assert_eq!(x[1].to_f64(), -1.0);
    }

    #[test]
    fn rank1_downdate_matches_float_reference() {
        let d = 2;
        let mut m = qv(&[1.0, 0.0, 0.0, 1.0]);
        let ph = qv(&[0.5, 0.25]);
        let hp = qv(&[0.5, 0.25]);
        rank1_downdate(&mut m, d, &ph, &hp, q(2.0));
        // m -= 2 * ph hpᵀ → [[1-0.5, -0.25],[-0.25, 1-0.125]]
        let out = Q8_24::dequantize_slice(&m);
        let expect = [0.5, -0.25, -0.25, 0.875];
        for (a, b) in out.iter().zip(expect) {
            assert!((*a as f64 - b).abs() < 1e-6, "{a} vs {b}");
        }
    }
}
