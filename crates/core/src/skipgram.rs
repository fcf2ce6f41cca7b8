//! The original skip-gram model with negative sampling, trained by SGD —
//! the paper's baseline ("Original").
//!
//! Two weight matrices: input-side `W_in` (`N×d`, the embedding) and
//! output-side `W_out` (`N×d`, one row per output node). A (center,
//! positive) pair with `ns` negatives performs the standard SGNS update
//! (Mikolov et al. \[9\]):
//!
//! ```text
//! h       = W_in[center]
//! for t in {positive (y=1), negatives (y=0)}:
//!     g        = lr · (y − σ(h · W_out[t]))
//!     grad_h  += g · W_out[t]
//!     W_out[t] += g · h
//! W_in[center] += grad_h
//! ```
//!
//! Weights are `f64`, matching the paper's model-size accounting for the
//! original model (Table 5) and the usual double-precision CPU reference.

use crate::config::ModelConfig;
use crate::model::{init_weight, EmbeddingModel, NegativeDraw};
use seqge_graph::NodeId;
use seqge_linalg::{ops, Mat};
use seqge_sampling::{context_windows, NegativeTable, Rng64};

/// SGD-trained skip-gram with negative sampling.
#[derive(Debug, Clone)]
pub struct SkipGram {
    w_in: Mat<f64>,
    w_out: Mat<f64>,
    cfg: ModelConfig,
    lr: f64,
    draw: NegativeDraw,
    grad_h: Vec<f64>,
}

impl SkipGram {
    /// Default SGD learning rate (§4.3: 0.01).
    pub const DEFAULT_LR: f64 = 0.01;

    /// Creates a model over `num_nodes` nodes.
    pub fn new(num_nodes: usize, cfg: ModelConfig) -> Self {
        cfg.validate().expect("invalid model config");
        let mut rng = Rng64::seed_from_u64(cfg.seed);
        let d = cfg.dim;
        let w_in = Mat::from_fn(num_nodes, d, |_, _| init_weight(&mut rng, d) as f64);
        // Output weights start at zero (word2vec convention): first updates
        // are driven purely by the input embedding.
        let w_out = Mat::zeros(num_nodes, d);
        SkipGram {
            w_in,
            w_out,
            lr: Self::DEFAULT_LR,
            draw: NegativeDraw::new(&cfg),
            grad_h: vec![0.0; cfg.dim],
            cfg,
        }
    }

    /// Direct access to the input matrix (tests, diagnostics).
    pub fn w_in(&self) -> &Mat<f64> {
        &self.w_in
    }

    /// Direct access to the output matrix.
    pub fn w_out(&self) -> &Mat<f64> {
        &self.w_out
    }

    /// The configured hyper-parameters.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }
}

/// One (center, target, label) SGD step; accumulates the center gradient
/// into `grad_h` instead of applying it immediately (a free function so the
/// walk loop can hold the negative buffer and the matrices simultaneously
/// without an allocation per positive).
#[inline]
fn train_pair(
    w_in: &Mat<f64>,
    w_out: &mut Mat<f64>,
    grad_h: &mut [f64],
    lr: f64,
    center: NodeId,
    target: NodeId,
    label: f64,
) {
    let h = w_in.row(center as usize);
    let out_row = w_out.row_mut(target as usize);
    let score = ops::sigmoid(ops::dot(h, out_row));
    let g = lr * (label - score);
    for i in 0..h.len() {
        grad_h[i] += g * out_row[i];
        out_row[i] += g * h[i];
    }
}

impl EmbeddingModel for SkipGram {
    fn train_walk(&mut self, walk: &[NodeId], negatives: &NegativeTable, rng: &mut Rng64) {
        self.draw.begin_walk(walk, negatives, rng);
        for (center, positives) in context_windows(walk, self.cfg.window) {
            self.grad_h.fill(0.0);
            for &pos in positives {
                train_pair(
                    &self.w_in,
                    &mut self.w_out,
                    &mut self.grad_h,
                    self.lr,
                    center,
                    pos,
                    1.0,
                );
                // Disjoint field borrows: `negs` borrows `self.draw` while
                // `train_pair` borrows the weight matrices.
                let negs = self.draw.for_positive(pos, negatives, rng);
                for &neg in negs {
                    train_pair(
                        &self.w_in,
                        &mut self.w_out,
                        &mut self.grad_h,
                        self.lr,
                        center,
                        neg,
                        0.0,
                    );
                }
            }
            // Apply the accumulated center gradient once per context.
            let row = self.w_in.row_mut(center as usize);
            for (w, &g) in row.iter_mut().zip(&self.grad_h) {
                *w += g;
            }
        }
    }

    fn embedding(&self) -> Mat<f32> {
        self.w_in.cast()
    }

    fn num_nodes(&self) -> usize {
        self.w_in.rows()
    }

    fn dim(&self) -> usize {
        self.cfg.dim
    }

    fn model_bytes(&self) -> usize {
        self.w_in.heap_bytes() + self.w_out.heap_bytes()
    }

    fn name(&self) -> &'static str {
        "skipgram-sgd"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NegativeMode;
    use seqge_sampling::{UpdatePolicy, WalkCorpus};

    fn setup(n: usize, dim: usize) -> (SkipGram, NegativeTable, Rng64) {
        let cfg = ModelConfig {
            dim,
            window: 4,
            negative_samples: 3,
            negative_mode: NegativeMode::PerPosition,
            seed: 7,
        };
        let model = SkipGram::new(n, cfg);
        let mut corpus = WalkCorpus::new(n);
        corpus.record(&(0..n as NodeId).collect::<Vec<_>>());
        let mut table = NegativeTable::new(UpdatePolicy::every_edge());
        table.rebuild(&corpus);
        (model, table, Rng64::seed_from_u64(99))
    }

    #[test]
    fn construction_shapes() {
        let (m, _, _) = setup(20, 8);
        assert_eq!(m.num_nodes(), 20);
        assert_eq!(m.dim(), 8);
        assert_eq!(m.embedding().rows(), 20);
        assert_eq!(m.embedding().cols(), 8);
        assert_eq!(m.model_bytes(), 2 * 20 * 8 * 8);
    }

    #[test]
    fn training_changes_visited_rows_only() {
        let (mut m, table, mut rng) = setup(30, 8);
        let before = m.w_in().clone();
        let walk: Vec<NodeId> = vec![0, 1, 2, 3, 4, 5];
        m.train_walk(&walk, &table, &mut rng);
        // Center nodes (0..=4 appear as centers of some context) changed.
        assert_ne!(m.w_in().row(0), before.row(0));
        // A node never in the walk keeps its input row (only W_out rows of
        // negatives move).
        assert_eq!(m.w_in().row(29), before.row(29));
    }

    #[test]
    fn training_is_deterministic() {
        let (mut a, table, mut rng_a) = setup(25, 8);
        let (mut b, _, mut rng_b) = setup(25, 8);
        let walk: Vec<NodeId> = vec![3, 4, 5, 6, 7, 8, 9, 10];
        a.train_walk(&walk, &table, &mut rng_a);
        b.train_walk(&walk, &table, &mut rng_b);
        assert_eq!(a.w_in(), b.w_in());
        assert_eq!(a.w_out(), b.w_out());
    }

    #[test]
    fn positive_pairs_gain_similarity() {
        // Train many walks alternating 0↔1; their embedding dot product with
        // each other's output row should grow above a never-trained pair.
        let (mut m, table, mut rng) = setup(40, 16);
        let walk: Vec<NodeId> = (0..40).map(|i| if i % 2 == 0 { 0 } else { 1 }).collect();
        for _ in 0..50 {
            m.train_walk(&walk, &table, &mut rng);
        }
        let score_pos = ops::dot(m.w_in().row(0), m.w_out().row(1));
        let score_unrelated = ops::dot(m.w_in().row(0), m.w_out().row(35));
        assert!(
            score_pos > score_unrelated + 0.5,
            "positive pair should score higher: {score_pos} vs {score_unrelated}"
        );
    }

    #[test]
    fn weights_stay_finite_under_long_training() {
        let (mut m, table, mut rng) = setup(20, 8);
        let walk: Vec<NodeId> = (0..20u32).collect();
        for _ in 0..200 {
            m.train_walk(&walk, &table, &mut rng);
        }
        assert!(m.w_in().all_finite());
        assert!(m.w_out().all_finite());
    }
}
