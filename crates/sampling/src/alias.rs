//! Walker's alias method for O(1) weighted sampling.
//!
//! The paper (§3.1): "This sampling is done by the Walker's alias, which is a
//! weighted sampling method. In this case, although the time complexity to
//! build a table used in the sampling is proportional to the number of nodes,
//! the sampling can be done in O(1) time complexity."

use crate::rng::Rng64;

/// Alias table over `n` outcomes with the classic two-array layout
/// (`prob[i]`, `alias[i]`). Build is O(n); each sample costs one RNG draw,
/// one compare, and at most one indirection.
#[derive(Debug, Clone)]
pub struct AliasTable {
    prob: Vec<f32>,
    alias: Vec<u32>,
}

impl AliasTable {
    /// Builds a table from non-negative weights. At least one weight must be
    /// positive. Weights need not be normalized.
    ///
    /// # Panics
    /// If `weights` is empty, contains a negative/NaN value, or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "alias table needs at least one outcome");
        let n = weights.len();
        let mut total = 0.0f64;
        for &w in weights {
            assert!(w.is_finite() && w >= 0.0, "weights must be finite and non-negative");
            total += w;
        }
        assert!(total > 0.0, "at least one weight must be positive");

        // Kahan-free scaled weights: w * n / total. The classic small/large
        // worklist construction.
        let scale = n as f64 / total;
        let mut prob: Vec<f64> = weights.iter().map(|&w| w * scale).collect();
        let mut alias = vec![0u32; n];
        let mut small: Vec<u32> = Vec::with_capacity(n);
        let mut large: Vec<u32> = Vec::with_capacity(n);
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            alias[s as usize] = l;
            // Donate the deficit of `s` from `l`.
            prob[l as usize] -= 1.0 - prob[s as usize];
            if prob[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Numerical leftovers: everything still on a worklist gets prob 1.
        for &i in small.iter().chain(large.iter()) {
            prob[i as usize] = 1.0;
        }
        AliasTable { prob: prob.into_iter().map(|p| p as f32).collect(), alias }
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the table is empty (never true for a constructed table).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws one outcome index.
    ///
    /// Single-draw form: one `u64` supplies both the bucket and the accept
    /// fraction, as one fixed-point uniform `u = x·n/2⁶⁴ ∈ [0, n)` — the
    /// integer part picks the bucket, the fractional part (uniform within
    /// the bucket by construction) is the coin against `prob[i]`. Negative
    /// sampling draws dominate the training scaffold (§4.2: ~70 per
    /// context), so halving the RNG calls per draw is measurable end to
    /// end. Bucket bias vs. rejection sampling is ≤ n/2⁶⁴ — below f32
    /// resolution for any real table.
    #[inline]
    pub fn sample(&self, rng: &mut Rng64) -> usize {
        let wide = (rng.next_u64() as u128) * (self.prob.len() as u128);
        let i = (wide >> 64) as usize;
        // Fraction formed exactly like `Rng64::next_f32`: top 24 of the
        // low word.
        let frac = ((wide as u64) >> 40) as f32 * (1.0 / (1u64 << 24) as f32);
        if frac < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }
}

#[cfg(test)]
impl AliasTable {
    /// The outcome probabilities the table encodes: each bucket's own share
    /// plus what other buckets alias to it.
    pub(crate) fn distribution(&self) -> Vec<f64> {
        let mut p = vec![0.0; self.len()];
        for (i, (&keep, &alias)) in self.prob.iter().zip(&self.alias).enumerate() {
            p[i] += f64::from(keep) / self.len() as f64;
            p[alias as usize] += (1.0 - f64::from(keep)) / self.len() as f64;
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical(weights: &[f64], draws: usize, seed: u64) -> Vec<f64> {
        let t = AliasTable::new(weights);
        let mut rng = Rng64::seed_from_u64(seed);
        let mut counts = vec![0usize; weights.len()];
        for _ in 0..draws {
            counts[t.sample(&mut rng)] += 1;
        }
        counts.iter().map(|&c| c as f64 / draws as f64).collect()
    }

    #[test]
    fn uniform_weights_sample_uniformly() {
        let freqs = empirical(&[1.0; 8], 80_000, 1);
        for f in freqs {
            assert!((f - 0.125).abs() < 0.01, "freq {f}");
        }
    }

    #[test]
    fn skewed_weights_match_distribution() {
        let w = [1.0, 2.0, 4.0, 8.0];
        let total = 15.0;
        let freqs = empirical(&w, 150_000, 2);
        for (f, wi) in freqs.iter().zip(&w) {
            let expect = wi / total;
            assert!((f - expect).abs() < 0.01, "freq {f} expect {expect}");
        }
    }

    #[test]
    fn zero_weights_never_sampled() {
        let freqs = empirical(&[0.0, 1.0, 0.0, 3.0], 40_000, 3);
        assert_eq!(freqs[0], 0.0);
        assert_eq!(freqs[2], 0.0);
        assert!((freqs[3] - 0.75).abs() < 0.01);
    }

    #[test]
    fn single_outcome() {
        let t = AliasTable::new(&[5.0]);
        let mut rng = Rng64::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(t.sample(&mut rng), 0);
        }
    }

    #[test]
    fn unnormalized_weights_equivalent() {
        let a = empirical(&[1.0, 3.0], 100_000, 7);
        let b = empirical(&[100.0, 300.0], 100_000, 7);
        assert!((a[0] - b[0]).abs() < 0.005);
    }

    #[test]
    #[should_panic(expected = "at least one outcome")]
    fn empty_panics() {
        AliasTable::new(&[]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_panics() {
        AliasTable::new(&[1.0, -0.1]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn all_zero_panics() {
        AliasTable::new(&[0.0, 0.0]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any valid weight vector produces a table whose samples stay in
        /// range and whose zero-weight outcomes never appear.
        #[test]
        fn samples_in_range_and_respect_zeros(
            weights in proptest::collection::vec(0.0f64..100.0, 1..50),
            seed in any::<u64>(),
        ) {
            prop_assume!(weights.iter().sum::<f64>() > 0.0);
            let t = AliasTable::new(&weights);
            let mut rng = Rng64::seed_from_u64(seed);
            for _ in 0..200 {
                let s = t.sample(&mut rng);
                prop_assert!(s < weights.len());
                prop_assert!(weights[s] > 0.0, "sampled zero-weight outcome {s}");
            }
        }

        /// The table's internal probabilities are all in [0, 1].
        #[test]
        fn internal_probabilities_valid(
            weights in proptest::collection::vec(0.0f64..10.0, 1..40),
        ) {
            prop_assume!(weights.iter().sum::<f64>() > 0.0);
            let t = AliasTable::new(&weights);
            for i in 0..t.len() {
                prop_assert!((0.0..=1.0 + 1e-6).contains(&(t.prob[i] as f64)));
            }
        }
    }
}
