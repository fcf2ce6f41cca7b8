//! One-vs-rest logistic regression trained by SGD (§4.3: lr = 0.01).
//!
//! `K` independent binary classifiers share the feature matrix and each owns
//! its weight vector, so the per-class loop is written as a rayon `par_iter`
//! map — which the vendored shim runs sequentially (DESIGN.md, "Dependency
//! justification").

use crate::split::train_test_split;
use rayon::prelude::*;
use seqge_linalg::{ops, Mat};

/// Logistic-regression hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LogRegConfig {
    /// SGD learning rate (paper: 0.01).
    pub learning_rate: f64,
    /// Training epochs over the training set.
    pub epochs: usize,
    /// L2 regularization strength.
    pub l2: f64,
    /// Shuffle/init seed.
    pub seed: u64,
}

impl Default for LogRegConfig {
    fn default() -> Self {
        LogRegConfig { learning_rate: 0.01, epochs: 100, l2: 1e-4, seed: 0 }
    }
}

/// A trained one-vs-rest model: one `(d+1)`-weight vector per class
/// (last entry = bias).
#[derive(Debug, Clone)]
pub struct OneVsRest {
    weights: Vec<Vec<f64>>,
    dim: usize,
}

impl OneVsRest {
    /// Trains on `features.row(i)` ↔ `labels[i]` for `i ∈ train_idx`.
    pub fn fit(
        features: &Mat<f32>,
        labels: &[u16],
        train_idx: &[usize],
        num_classes: usize,
        cfg: &LogRegConfig,
    ) -> Self {
        assert_eq!(features.rows(), labels.len(), "features/labels must align");
        assert!(num_classes >= 1, "need at least one class");
        let d = features.cols();
        // Per-epoch example order, shared by all classes (deterministic).
        let orders: Vec<Vec<usize>> = {
            let mut rng = SplitMix::new(cfg.seed);
            (0..cfg.epochs)
                .map(|_| {
                    let mut idx = train_idx.to_vec();
                    for i in (1..idx.len()).rev() {
                        idx.swap(i, rng.below(i as u64 + 1) as usize);
                    }
                    idx
                })
                .collect()
        };
        let weights: Vec<Vec<f64>> = (0..num_classes)
            .into_par_iter()
            .map(|class| {
                let mut w = vec![0.0f64; d + 1];
                for order in &orders {
                    for &i in order {
                        let x = features.row(i);
                        let y = if labels[i] as usize == class { 1.0 } else { 0.0 };
                        let mut z = w[d]; // bias
                        for j in 0..d {
                            z += w[j] * x[j] as f64;
                        }
                        let g = cfg.learning_rate * (y - ops::sigmoid(z));
                        for j in 0..d {
                            w[j] += g * x[j] as f64 - cfg.learning_rate * cfg.l2 * w[j];
                        }
                        w[d] += g;
                    }
                }
                w
            })
            .collect();
        OneVsRest { weights, dim: d }
    }

    /// Per-class decision scores for one feature row.
    pub fn scores(&self, x: &[f32]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim, "feature dimension mismatch");
        self.weights
            .iter()
            .map(|w| {
                let mut z = w[self.dim];
                for j in 0..self.dim {
                    z += w[j] * x[j] as f64;
                }
                z
            })
            .collect()
    }

    /// Predicted class (argmax of scores).
    pub fn predict(&self, x: &[f32]) -> u16 {
        let s = self.scores(x);
        let mut best = 0usize;
        for (i, &v) in s.iter().enumerate() {
            if v > s[best] {
                best = i;
            }
        }
        best as u16
    }

    /// Predicts every row index in `idx`.
    pub fn predict_all(&self, features: &Mat<f32>, idx: &[usize]) -> Vec<u16> {
        idx.par_iter().map(|&i| self.predict(features.row(i))).collect()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.weights.len()
    }
}

/// Convenience: fit on a stratified split and return (model, train, test).
pub fn fit_split(
    features: &Mat<f32>,
    labels: &[u16],
    num_classes: usize,
    test_fraction: f64,
    cfg: &LogRegConfig,
    split_seed: u64,
) -> (OneVsRest, Vec<usize>, Vec<usize>) {
    let (train, test) = train_test_split(labels, test_fraction, split_seed);
    let model = OneVsRest::fit(features, labels, &train, num_classes, cfg);
    (model, train, test)
}

/// Minimal SplitMix64 for shuffling (keeps `rand` out of the hot loop and
/// the epoch orders platform-stable).
struct SplitMix {
    s: u64,
}

impl SplitMix {
    fn new(seed: u64) -> Self {
        SplitMix { s: seed }
    }
    fn next(&mut self) -> u64 {
        self.s = self.s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Linearly separable 2-D blobs, one per class.
    fn blobs(per_class: usize, num_classes: usize) -> (Mat<f32>, Vec<u16>) {
        let mut rng = SplitMix::new(42);
        let mut feats = Vec::new();
        let mut labels = Vec::new();
        for c in 0..num_classes {
            let angle = c as f32 * std::f32::consts::TAU / num_classes as f32;
            let (cx, cy) = (3.0 * angle.cos(), 3.0 * angle.sin());
            for _ in 0..per_class {
                let jx = (rng.next() % 1000) as f32 / 1000.0 - 0.5;
                let jy = (rng.next() % 1000) as f32 / 1000.0 - 0.5;
                feats.push(cx + jx);
                feats.push(cy + jy);
                labels.push(c as u16);
            }
        }
        (Mat::from_vec(per_class * num_classes, 2, feats), labels)
    }

    #[test]
    fn separable_blobs_reach_high_accuracy() {
        let (x, y) = blobs(60, 3);
        let cfg = LogRegConfig { epochs: 50, ..Default::default() };
        let (model, _, test) = fit_split(&x, &y, 3, 0.2, &cfg, 1);
        let pred = model.predict_all(&x, &test);
        let truth: Vec<u16> = test.iter().map(|&i| y[i]).collect();
        let f1 = crate::metrics::f1_scores(&truth, &pred, 3);
        assert!(f1.micro > 0.95, "separable data should classify: micro {}", f1.micro);
    }

    #[test]
    fn training_is_deterministic() {
        let (x, y) = blobs(30, 2);
        let idx: Vec<usize> = (0..x.rows()).collect();
        let cfg = LogRegConfig { epochs: 10, ..Default::default() };
        let a = OneVsRest::fit(&x, &y, &idx, 2, &cfg);
        let b = OneVsRest::fit(&x, &y, &idx, 2, &cfg);
        assert_eq!(a.weights, b.weights);
    }

    #[test]
    fn random_features_stay_near_chance() {
        // Labels independent of features → accuracy ≈ 1/K.
        let mut rng = SplitMix::new(7);
        let n = 400;
        let feats: Vec<f32> = (0..n * 4).map(|_| (rng.next() % 1000) as f32 / 1000.0).collect();
        let labels: Vec<u16> = (0..n).map(|_| (rng.next() % 4) as u16).collect();
        let x = Mat::from_vec(n, 4, feats);
        let cfg = LogRegConfig { epochs: 20, ..Default::default() };
        let (model, _, test) = fit_split(&x, &labels, 4, 0.25, &cfg, 2);
        let pred = model.predict_all(&x, &test);
        let truth: Vec<u16> = test.iter().map(|&i| labels[i]).collect();
        let f1 = crate::metrics::f1_scores(&truth, &pred, 4);
        assert!(f1.micro < 0.5, "noise should stay near chance: {}", f1.micro);
    }

    #[test]
    fn single_class_predicts_it() {
        let x = Mat::<f32>::filled(10, 2, 1.0);
        let y = vec![0u16; 10];
        let idx: Vec<usize> = (0..10).collect();
        let model = OneVsRest::fit(&x, &y, &idx, 1, &LogRegConfig::default());
        assert_eq!(model.predict(x.row(0)), 0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_feature_width_panics() {
        let x = Mat::<f32>::filled(4, 3, 0.5);
        let y = vec![0u16, 1, 0, 1];
        let idx: Vec<usize> = (0..4).collect();
        let model = OneVsRest::fit(&x, &y, &idx, 2, &LogRegConfig::default());
        model.predict(&[1.0, 2.0]);
    }
}
