//! Widened multiply-accumulate primitives.
//!
//! A DSP48E2 slice multiplies 27×18-bit operands into a 48-bit accumulator;
//! the accelerator chains them so an entire dot product accumulates at full
//! width and is quantized **once** at the end. [`MacAccumulator`] reproduces
//! that behaviour: products stay in `i64` (which dominates the 48-bit
//! accumulator, so no additional overflow can occur for the vector lengths
//! involved) and a single truncation happens on read-out.
//!
//! [`MacAccumulator`] / [`mac_dot`] are the scalar reference. The lane
//! kernels next to them ([`lane_dot`], the clamp-free loop of [`mul_add`] /
//! [`mul_sub`]) compute the same bits without the saturating chain and the
//! 64-bit clamp whenever a range check on the data in hand proves neither
//! can fire ([`dot_headroom`], [`lane_fits`]); when the check fails the
//! reference runs.
//!
//! The kernels are `#[inline]` for a reason beyond call overhead:
//! `seqge-fpga` compiles its walk body once per target-feature set (the
//! build's baseline, and AVX2 for its signed 32×32→64 vector multiply), and
//! only what is inlined into that body is compiled with the body's features.

use crate::q::Fx;

/// Running multiply-accumulate at accumulator width.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MacAccumulator {
    acc: i64,
}

impl MacAccumulator {
    /// Empty accumulator.
    pub fn new() -> Self {
        MacAccumulator { acc: 0 }
    }

    /// Accumulates the full-width product `a·b` (no intermediate truncation).
    #[inline]
    pub fn mac<const FRAC: u32>(&mut self, a: Fx<FRAC>, b: Fx<FRAC>) {
        self.acc = self.acc.saturating_add(a.to_bits() as i64 * b.to_bits() as i64);
    }

    /// Adds another accumulator (adder-tree reduction).
    #[inline]
    pub fn merge(&mut self, other: MacAccumulator) {
        self.acc = self.acc.saturating_add(other.acc);
    }

    /// Quantizes the accumulated value back to the lane format: one
    /// round-to-nearest shift (`AP_RND`; see `Fx::sat_mul` for why unbiased
    /// quantization is load-bearing) + saturation, as the hardware does on
    /// write-back.
    #[inline]
    pub fn finish<const FRAC: u32>(self) -> Fx<FRAC> {
        let shifted = self.acc.saturating_add(1i64 << (FRAC - 1)) >> FRAC;
        let clamped = shifted.clamp(i32::MIN as i64, i32::MAX as i64) as i32;
        Fx::from_bits(clamped)
    }

    /// Raw accumulator bits (diagnostics).
    pub fn raw(self) -> i64 {
        self.acc
    }
}

/// Full-width dot product of two fixed-point slices with a single final
/// quantization — the accelerator's MAC-tree semantics. Contrast with naive
/// per-element `sat_mul` + `sat_add`, which truncates every step.
#[inline]
pub fn mac_dot<const FRAC: u32>(x: &[Fx<FRAC>], y: &[Fx<FRAC>]) -> Fx<FRAC> {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = MacAccumulator::new();
    for i in 0..x.len() {
        acc.mac(x[i], y[i]);
    }
    acc.finish()
}

/// Largest raw magnitude in `x` (0 when empty).
#[inline]
pub fn max_abs_bits<const FRAC: u32>(x: &[Fx<FRAC>]) -> u32 {
    x.iter().map(|v| v.to_bits().unsigned_abs()).max().unwrap_or(0)
}

/// Whether dot products against `h` have headroom for wide accumulation:
/// `len · max|hᵢ| < 2³²` in raw bits. The other operand is at most 2³¹ in
/// magnitude, so `Σ|xᵢhᵢ| < 2⁶³`: no prefix of the sum, taken in any order,
/// leaves `i64`, and the saturating chain of [`mac_dot`] is a plain sum.
#[inline]
pub fn dot_headroom<const FRAC: u32>(h: &[Fx<FRAC>]) -> bool {
    (h.len() as u64).saturating_mul(u64::from(max_abs_bits(h))) < 1 << 32
}

/// `x·y` as a plain `i64` sum followed by the one [`MacAccumulator::finish`].
/// Integer addition is associative, so unlike the saturating chain this sum
/// is the compiler's to split across independent lanes. Equals [`mac_dot`]
/// when [`dot_headroom`] holds for either operand; without headroom the sum
/// can overflow.
#[inline]
pub fn lane_dot<const FRAC: u32>(x: &[Fx<FRAC>], y: &[Fx<FRAC>]) -> Fx<FRAC> {
    debug_assert_eq!(x.len(), y.len());
    let acc = x.iter().zip(y).map(|(a, b)| a.to_bits() as i64 * b.to_bits() as i64).sum();
    MacAccumulator { acc }.finish()
}

/// [`lane_dot`] when the caller's [`dot_headroom`] check on one operand came
/// out `wide`, the [`mac_dot`] reference otherwise.
#[inline]
pub fn gated_dot<const FRAC: u32>(wide: bool, x: &[Fx<FRAC>], y: &[Fx<FRAC>]) -> Fx<FRAC> {
    if wide {
        lane_dot(x, y)
    } else {
        mac_dot(x, y)
    }
}

/// Whether the quantized product `q(a·x)` fits a lane without the clamp for
/// every `|x| ≤ x_max`: `x_max · |a| < 2^(30+FRAC)` (2⁵⁴ at Q8.24) bounds the
/// rounded, shifted product by 2³⁰ in magnitude.
#[inline]
pub fn lane_fits<const FRAC: u32>(a: Fx<FRAC>, x_max: u32) -> bool {
    u64::from(x_max) * u64::from(a.to_bits().unsigned_abs()) < 1 << (30 + FRAC)
}

/// `yᵢ ← op(yᵢ, q(a·xᵢ))` with `op` a saturating `i32` add or subtract and
/// `x_max ≥ max|xᵢ|` hoisted by the caller: one [`lane_fits`] compare per
/// vector picks the clamp-free loop, [`Fx::sat_mul`] (the single-product
/// [`MacAccumulator`] chain) otherwise.
#[inline]
fn mul_acc<const FRAC: u32>(
    a: Fx<FRAC>,
    x: &[Fx<FRAC>],
    x_max: u32,
    y: &mut [Fx<FRAC>],
    op: impl Fn(i32, i32) -> i32,
) {
    debug_assert_eq!(x.len(), y.len());
    debug_assert!(x_max >= max_abs_bits(x));
    let (free, a_bits, half) = (lane_fits(a, x_max), a.to_bits() as i64, 1i64 << (FRAC - 1));
    for (yi, xi) in y.iter_mut().zip(x) {
        let q = if free {
            ((a_bits * xi.to_bits() as i64 + half) >> FRAC) as i32
        } else {
            a.sat_mul(*xi).to_bits()
        };
        *yi = Fx::from_bits(op(yi.to_bits(), q));
    }
}

/// `y += q(a·x)` element-wise, each product quantized on write-back (every
/// lane has its own DSP; there is no accumulation chain) — the Stage 4 `Δβ`
/// update. `x_max` is [`max_abs_bits`]`(x)` or an upper bound on it.
#[inline]
pub fn mul_add<const FRAC: u32>(a: Fx<FRAC>, x: &[Fx<FRAC>], x_max: u32, y: &mut [Fx<FRAC>]) {
    mul_acc(a, x, x_max, y, i32::saturating_add);
}

/// `y -= q(a·x)` element-wise — one row of the Stage 4 `ΔP` downdate.
#[inline]
pub fn mul_sub<const FRAC: u32>(a: Fx<FRAC>, x: &[Fx<FRAC>], x_max: u32, y: &mut [Fx<FRAC>]) {
    mul_acc(a, x, x_max, y, i32::saturating_sub);
}

/// Naive (per-step quantizing) dot product — what a scalar datapath without
/// a wide accumulator would compute. Kept for the error-analysis ablation.
pub fn naive_dot<const FRAC: u32>(x: &[Fx<FRAC>], y: &[Fx<FRAC>]) -> Fx<FRAC> {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = Fx::<FRAC>::ZERO;
    for i in 0..x.len() {
        acc = acc.sat_add(x[i].sat_mul(y[i]));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::q::Q8_24;

    #[test]
    fn mac_dot_matches_float_for_exact_inputs() {
        let x: Vec<Q8_24> = [1.0, 2.0, -0.5].iter().map(|&v| Q8_24::from_f64(v)).collect();
        let y: Vec<Q8_24> = [0.5, 0.25, 4.0].iter().map(|&v| Q8_24::from_f64(v)).collect();
        // 0.5 + 0.5 - 2.0 = -1.0
        assert_eq!(mac_dot(&x, &y).to_f64(), -1.0);
    }

    #[test]
    fn mul_add_matches_float() {
        let q = |vs: &[f64]| vs.iter().map(|&v| Q8_24::from_f64(v)).collect::<Vec<_>>();
        let x = q(&[1.0, -2.0, 0.5]);
        let mut y = q(&[0.0, 1.0, 1.0]);
        mul_add(Q8_24::from_f64(2.0), &x, max_abs_bits(&x), &mut y);
        assert_eq!(Q8_24::dequantize_slice(&y), vec![2.0, -3.0, 2.0]);
        mul_sub(Q8_24::from_f64(2.0), &x, max_abs_bits(&x), &mut y);
        assert_eq!(Q8_24::dequantize_slice(&y), vec![0.0, 1.0, 1.0]);
        // Past the headroom the clamp is live: 100·100 rails, and stays railed.
        let big = q(&[100.0, -100.0]);
        let mut y = q(&[0.0, 0.0]);
        assert!(!lane_fits(big[0], max_abs_bits(&big)));
        mul_add(big[0], &big, max_abs_bits(&big), &mut y);
        assert_eq!(y, vec![Q8_24::MAX, Q8_24::MIN]);
    }

    #[test]
    fn mac_is_more_accurate_than_naive() {
        // Many half-ulp products: the per-step datapath quantizes each one
        // (0.5 ulp rounds to 1 ulp → 2× the true sum), while the wide
        // accumulator keeps full precision and quantizes once.
        let eps = Q8_24::EPSILON;
        let half = Q8_24::from_f64(0.5);
        let xs = vec![eps; 1000];
        let ys = vec![half; 1000];
        let naive = naive_dot(&xs, &ys);
        let mac = mac_dot(&xs, &ys);
        // True value: 1000 * (eps * 0.5) = 500 ulp.
        assert_eq!(mac.to_bits(), 500, "wide accumulator is exact here");
        assert_eq!(naive.to_bits(), 1000, "per-step rounding doubles each half-ulp product");
    }

    #[test]
    fn accumulator_merge_is_associative_reduction() {
        let a = Q8_24::from_f64(1.5);
        let b = Q8_24::from_f64(2.0);
        let mut lane0 = MacAccumulator::new();
        let mut lane1 = MacAccumulator::new();
        lane0.mac(a, b);
        lane1.mac(b, b);
        let mut tree = lane0;
        tree.merge(lane1);
        let mut seq = MacAccumulator::new();
        seq.mac(a, b);
        seq.mac(b, b);
        assert_eq!(tree.finish::<24>(), seq.finish::<24>());
        assert_eq!(tree.finish::<24>().to_f64(), 7.0);
    }

    #[test]
    fn finish_saturates() {
        let big = Q8_24::from_f64(127.0);
        let mut acc = MacAccumulator::new();
        for _ in 0..100 {
            acc.mac(big, big); // 100 * 16129 ≫ Q8.24 range
        }
        assert_eq!(acc.finish::<24>(), Q8_24::MAX);
    }

    #[test]
    fn empty_dot_is_zero() {
        let empty: Vec<Q8_24> = vec![];
        assert_eq!(mac_dot(&empty, &empty), Q8_24::ZERO);
    }
}
