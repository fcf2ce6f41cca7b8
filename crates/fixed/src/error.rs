//! Quantization-error measurement.
//!
//! Used by the fixed-point format-sweep ablation bench to justify the Q8.24
//! datapath choice: measure the error a given format introduces into the
//! kinds of values the training loop produces.

use crate::q::Fx;

/// Error statistics of quantizing a float slice through format `FRAC`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantError {
    /// Maximum absolute error.
    pub max_abs: f64,
    /// Root-mean-square error.
    pub rms: f64,
    /// Number of values that saturated.
    pub saturated: usize,
}

/// Measures round-trip error `x → Fx<FRAC> → f64` over `xs`.
pub fn roundtrip_error<const FRAC: u32>(xs: &[f64]) -> QuantError {
    let mut max_abs = 0.0f64;
    let mut sum_sq = 0.0f64;
    let mut saturated = 0usize;
    for &x in xs {
        let q = Fx::<FRAC>::from_f64(x);
        if q.is_saturated() {
            saturated += 1;
        }
        let e = (q.to_f64() - x).abs();
        max_abs = max_abs.max(e);
        sum_sq += e * e;
    }
    QuantError {
        max_abs,
        rms: if xs.is_empty() { 0.0 } else { (sum_sq / xs.len() as f64).sqrt() },
        saturated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_range_error_bounded_by_half_ulp() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64 - 500.0) * 0.01).collect();
        let e = roundtrip_error::<24>(&xs);
        // Round-to-nearest: at most half an ulp.
        assert!(e.max_abs <= 0.5 / Fx::<24>::SCALE + 1e-15);
        assert_eq!(e.saturated, 0);
        assert!(e.rms <= e.max_abs);
    }

    #[test]
    fn saturation_detected_and_counted() {
        let xs = [1e6, -1e6, 0.5];
        let e = roundtrip_error::<24>(&xs);
        assert_eq!(e.saturated, 2);
        assert!(e.max_abs > 1.0);
    }

    #[test]
    fn wider_fraction_means_smaller_error() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64 * 0.0137).collect();
        let e24 = roundtrip_error::<24>(&xs);
        let e16 = roundtrip_error::<16>(&xs);
        assert!(e24.rms <= e16.rms);
    }

    #[test]
    fn empty_slice() {
        let e = roundtrip_error::<24>(&[]);
        assert_eq!(e.rms, 0.0);
        assert_eq!(e.max_abs, 0.0);
    }
}
