//! The common model interface and the negative-draw helper shared by every
//! training implementation.

use crate::config::{ModelConfig, NegativeMode};
use seqge_graph::NodeId;
use seqge_linalg::Mat;
use seqge_sampling::{NegativeTable, Rng64};

/// A graph-embedding model trainable one random walk at a time.
///
/// The unit of training is a *walk* because that is the paper's unit of
/// measurement (Table 3/4 time "a single random walk") and the accelerator's
/// unit of offload (one DMA round trip per walk).
pub trait EmbeddingModel {
    /// Trains on one random walk. `negatives` must be ready
    /// ([`NegativeTable::is_ready`]); `rng` drives negative draws.
    fn train_walk(&mut self, walk: &[NodeId], negatives: &NegativeTable, rng: &mut Rng64);

    /// The current embedding as an `N×d` matrix (row per node).
    fn embedding(&self) -> Mat<f32>;

    /// Number of nodes.
    fn num_nodes(&self) -> usize;

    /// Embedding dimension.
    fn dim(&self) -> usize;

    /// Heap bytes of everything the deployed model must retain (Table 5
    /// accounting; excludes transient training scratch).
    fn model_bytes(&self) -> usize;

    /// A short display name for reports.
    fn name(&self) -> &'static str;
}

/// Draws negatives according to the configured [`NegativeMode`], reusing
/// buffers across calls (no allocation in the training hot loop).
#[derive(Debug, Clone)]
pub struct NegativeDraw {
    ns: usize,
    mode: NegativeMode,
    shared: Vec<NodeId>,
    buf: Vec<NodeId>,
}

impl NegativeDraw {
    /// Creates a drawer for `cfg`.
    pub fn new(cfg: &ModelConfig) -> Self {
        NegativeDraw {
            ns: cfg.negative_samples,
            mode: cfg.negative_mode,
            shared: Vec::with_capacity(cfg.negative_samples),
            buf: Vec::with_capacity(cfg.negative_samples),
        }
    }

    /// Called once at the start of each walk. In [`NegativeMode::PerWalk`]
    /// this draws the walk's shared negative set (avoiding the walk's start
    /// node, the closest analogue of avoiding the positive).
    pub fn begin_walk(&mut self, walk: &[NodeId], table: &NegativeTable, rng: &mut Rng64) {
        if self.mode == NegativeMode::PerWalk {
            let avoid = walk.first().copied().unwrap_or(0);
            table.sample_into(self.ns, avoid, rng, &mut self.shared);
        }
    }

    /// Negatives to train against `positive`.
    pub fn for_positive(
        &mut self,
        positive: NodeId,
        table: &NegativeTable,
        rng: &mut Rng64,
    ) -> &[NodeId] {
        match self.mode {
            NegativeMode::PerPosition => {
                table.sample_into(self.ns, positive, rng, &mut self.buf);
                &self.buf
            }
            NegativeMode::PerWalk => &self.shared,
        }
    }

    /// The walk's shared set under [`NegativeMode::PerWalk`], as the last
    /// [`NegativeDraw::begin_walk`] drew it: what [`NegativeDraw::for_positive`]
    /// returns for every positive of that walk. Empty under
    /// [`NegativeMode::PerPosition`].
    pub fn shared(&self) -> &[NodeId] {
        &self.shared
    }

    /// Negatives per positive (`ns`).
    pub fn ns(&self) -> usize {
        self.ns
    }
}

/// Uniform symmetric weight init in `[-0.5/d, 0.5/d)`, the word2vec
/// convention, shared by all models so comparisons start from the same
/// distribution family.
pub fn init_weight(rng: &mut Rng64, dim: usize) -> f32 {
    (rng.next_f32() - 0.5) / dim as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqge_sampling::{UpdatePolicy, WalkCorpus};

    fn ready_table(n: usize) -> NegativeTable {
        let mut corpus = WalkCorpus::new(n);
        let walk: Vec<NodeId> = (0..n as NodeId).collect();
        corpus.record(&walk);
        let mut t = NegativeTable::new(UpdatePolicy::every_edge());
        t.rebuild(&corpus);
        t
    }

    fn cfg(mode: NegativeMode) -> ModelConfig {
        ModelConfig { negative_mode: mode, ..ModelConfig::paper_defaults(8) }
    }

    #[test]
    fn per_position_draws_fresh_sets() {
        let table = ready_table(50);
        let mut rng = Rng64::seed_from_u64(1);
        let mut nd = NegativeDraw::new(&cfg(NegativeMode::PerPosition));
        nd.begin_walk(&[0, 1, 2], &table, &mut rng);
        let a: Vec<_> = nd.for_positive(5, &table, &mut rng).to_vec();
        let b: Vec<_> = nd.for_positive(5, &table, &mut rng).to_vec();
        assert_eq!(a.len(), 10);
        assert_ne!(a, b, "fresh draw per positive");
        assert!(!a.contains(&5));
    }

    #[test]
    fn per_walk_reuses_one_set() {
        let table = ready_table(50);
        let mut rng = Rng64::seed_from_u64(2);
        let mut nd = NegativeDraw::new(&cfg(NegativeMode::PerWalk));
        nd.begin_walk(&[7, 8, 9], &table, &mut rng);
        let a: Vec<_> = nd.for_positive(1, &table, &mut rng).to_vec();
        let b: Vec<_> = nd.for_positive(2, &table, &mut rng).to_vec();
        assert_eq!(a, b, "shared set across positives");
        assert!(!a.contains(&7), "walk start excluded");
        nd.begin_walk(&[3, 4], &table, &mut rng);
        let c: Vec<_> = nd.for_positive(1, &table, &mut rng).to_vec();
        assert_ne!(a, c, "new walk redraws");
    }

    #[test]
    fn init_weight_range() {
        let mut rng = Rng64::seed_from_u64(3);
        for _ in 0..1000 {
            let w = init_weight(&mut rng, 32);
            assert!(w.abs() <= 0.5 / 32.0);
        }
    }
}
