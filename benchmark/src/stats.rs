//! Order statistics over `f64` samples.

/// The `q`-quantile (`0.0..=1.0`) of `samples`, linearly interpolated
/// between the two nearest ranks (the rule `numpy.percentile` uses).
/// Sorts `samples` in place; an empty slice yields `NaN`.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
}

/// The median of `samples` (sorts in place).
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Arithmetic mean (`NaN` when empty).
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Standard deviation over mean.
pub fn coeff_of_variation(samples: &[f64]) -> f64 {
    let m = mean(samples);
    let var = samples.iter().map(|x| (x - m).powi(2)).sum::<f64>() / samples.len() as f64;
    var.sqrt() / m
}

/// The spread the driver computes over a metric's per-seed values: the
/// distance between the first and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` gives them, over the median.
pub fn quartile_spread(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let q = |p: f64| {
        let pos = (p * (n + 1) as f64 - 1.0).clamp(0.0, (n - 1) as f64);
        let lo = pos.floor() as usize;
        values[lo] + (values[(lo + 1).min(n - 1)] - values[lo]) * (pos - lo as f64)
    };
    (q(0.75) - q(0.25)) / q(0.5)
}

/// Area under the ROC curve for scores of positive and negative examples:
/// the probability that a random positive outscores a random negative,
/// ties counting one half.
pub fn auc(pos: &[f64], neg: &[f64]) -> f64 {
    let mut all: Vec<(f64, bool)> =
        pos.iter().map(|&s| (s, true)).chain(neg.iter().map(|&s| (s, false))).collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0));
    // Rank-sum with mid-ranks over tied scores.
    let mut rank_sum = 0.0;
    let mut i = 0;
    while i < all.len() {
        let mut j = i;
        while j < all.len() && all[j].0 == all[i].0 {
            j += 1;
        }
        let mid_rank = (i + j + 1) as f64 / 2.0;
        rank_sum += mid_rank * all[i..j].iter().filter(|x| x.1).count() as f64;
        i = j;
    }
    let (np, nn) = (pos.len() as f64, neg.len() as f64);
    (rank_sum - np * (np + 1.0) / 2.0) / (np * nn)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert!((quantile(&mut v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&mut [7.0]), 7.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn mean_and_cv() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(coeff_of_variation(&[5.0, 5.0, 5.0]), 0.0);
        assert!((coeff_of_variation(&[1.0, 3.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn quartile_spread_matches_python() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&mut v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert!((quartile_spread(&mut [3.0, 1.0, 4.0, 1.0, 5.0]) - 3.5 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn auc_counts_ties_as_half() {
        assert_eq!(auc(&[2.0, 3.0], &[0.0, 1.0]), 1.0);
        assert_eq!(auc(&[0.0, 1.0], &[2.0, 3.0]), 0.0);
        assert_eq!(auc(&[1.0], &[1.0]), 0.5);
        // One of four pairs is inverted.
        assert_eq!(auc(&[1.0, 3.0], &[0.0, 2.0]), 0.75);
    }
}
