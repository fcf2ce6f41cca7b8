//! Link prediction — the second standard downstream evaluation of node2vec
//! embeddings (Grover & Leskovec §4.4): hold out a fraction of edges, score
//! candidate pairs by an embedding-combination operator, and report AUC.
//!
//! This extends the paper's evaluation (which only reports classification
//! F1) and gives the sequential-training experiments a task that directly
//! probes *edge* knowledge: a model that forgets old edges loses AUC on
//! them even when class labels survive.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seqge_graph::{Graph, NodeId};
use seqge_linalg::normed::row_norm;
use seqge_linalg::{ops, Mat};

/// Binary operator combining two node embeddings into an edge score
/// (Grover & Leskovec Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum EdgeOp {
    /// Dot product of the two embeddings.
    Dot,
    /// Negative L2 distance.
    NegL2,
    /// Cosine similarity.
    Cosine,
}

impl EdgeOp {
    /// Scores the pair `(u, v)` under this operator.
    pub fn score(&self, emb: &Mat<f32>, u: NodeId, v: NodeId) -> f64 {
        self.scorer(emb.row(u as usize)).score(emb.row(v as usize))
    }

    /// Prepares `query` for scoring against many rows: whatever depends on
    /// the query alone (its `f64` widening, its norm) is computed here, once.
    pub fn scorer<'a>(&self, query: &'a [f32]) -> Scorer<'a> {
        let widen = || query.iter().map(|&a| a as f64).collect::<Vec<f64>>();
        Scorer(match self {
            EdgeOp::Dot => Prepared::Dot(widen()),
            EdgeOp::NegL2 => Prepared::NegL2(query),
            EdgeOp::Cosine => Prepared::Cosine { wide: widen(), norm: row_norm(query) },
        })
    }
}

/// One query row prepared by [`EdgeOp::scorer`]. This is the only
/// definition of a score: [`EdgeOp::score`] and [`LinkPredSet::auc`] go
/// through [`Scorer::score`], the serving plane's exact and ANN `topk` and
/// `score_link` through [`Scorer::score_normed`] with the norm their view
/// stores, and the first is the second with the norm computed, so they agree
/// bit for bit. A score is a function of `seqge_linalg::ops`' `scan_*` sums
/// (exact `f32`×`f32` products accumulated in `f64` over eight fixed lanes),
/// and swapping query and row returns the same bits.
#[derive(Debug, Clone)]
pub struct Scorer<'a>(Prepared<'a>);

#[derive(Debug, Clone)]
enum Prepared<'a> {
    /// The query widened to `f64`.
    Dot(Vec<f64>),
    /// The query as stored: the difference is taken in `f32`.
    NegL2(&'a [f32]),
    /// The query widened, and its Euclidean norm.
    Cosine { wide: Vec<f64>, norm: f64 },
}

impl Scorer<'_> {
    /// The score of the query against `row`. A cosine computes the row's
    /// norm first, as [`seqge_linalg::NormedMat`] stores it.
    #[inline]
    pub fn score(&self, row: &[f32]) -> f64 {
        match &self.0 {
            Prepared::Dot(wide) => ops::scan_dot(wide, row),
            Prepared::NegL2(query) => -ops::scan_dist2(query, row).sqrt(),
            Prepared::Cosine { .. } => self.score_normed(row, row_norm(row)),
        }
    }

    /// The score of the query against `row`, whose Euclidean norm is
    /// `norm` (a [`seqge_linalg::NormedMat`]'s stored norm of that row): one pass over
    /// `row`. Only a cosine reads `norm`.
    #[inline]
    pub fn score_normed(&self, row: &[f32], norm: f64) -> f64 {
        match &self.0 {
            Prepared::Cosine { wide, norm: query } => {
                ops::scan_dot(wide, row) / (query * norm).max(1e-12)
            }
            _ => self.score(row),
        }
    }
}

/// A link-prediction evaluation set: positive (held-out true) edges and
/// negative (non-edge) pairs, one negative per positive.
#[derive(Debug, Clone)]
pub struct LinkPredSet {
    /// Held-out true edges.
    pub positives: Vec<(NodeId, NodeId)>,
    /// Sampled non-edges.
    pub negatives: Vec<(NodeId, NodeId)>,
}

impl LinkPredSet {
    /// Samples an evaluation set from `g`: `fraction` of edges as positives
    /// (at least 1), and an equal number of uniform non-edges. Deterministic
    /// per seed. The caller trains on the *remaining* graph (see
    /// [`LinkPredSet::training_graph`]).
    pub fn sample(g: &Graph, fraction: f64, seed: u64) -> Self {
        assert!(fraction > 0.0 && fraction < 1.0, "fraction must be in (0, 1)");
        assert!(g.num_edges() > 0, "graph has no edges to hold out");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges: Vec<(NodeId, NodeId)> = g.edges().map(|(u, v, _)| (u, v)).collect();
        for i in (1..edges.len()).rev() {
            edges.swap(i, rng.gen_range(0..=i));
        }
        let n_pos = ((edges.len() as f64 * fraction) as usize).max(1);
        let positives: Vec<_> = edges[..n_pos].to_vec();
        let n = g.num_nodes() as NodeId;
        let mut negatives = Vec::with_capacity(n_pos);
        while negatives.len() < n_pos {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v && !g.has_edge(u, v) {
                negatives.push((u, v));
            }
        }
        LinkPredSet { positives, negatives }
    }

    /// The graph with the held-out positives removed (what the embedding
    /// model is allowed to train on).
    pub fn training_graph(&self, g: &Graph) -> Graph {
        let held: std::collections::HashSet<(NodeId, NodeId)> =
            self.positives.iter().copied().collect();
        let mut out = Graph::with_nodes(g.num_nodes());
        for (u, v, w) in g.edges() {
            if !held.contains(&(u, v)) {
                out.add_weighted_edge(u, v, w).expect("edges unique in source graph");
            }
        }
        if let Some(labels) = g.labels() {
            out.set_labels(labels.to_vec()).expect("same node count");
        }
        out
    }

    /// AUC of `emb` under `op`: probability that a random positive outranks
    /// a random negative (exact pairwise computation).
    pub fn auc(&self, emb: &Mat<f32>, op: EdgeOp) -> f64 {
        let pos: Vec<f64> = self.positives.iter().map(|&(u, v)| op.score(emb, u, v)).collect();
        let neg: Vec<f64> = self.negatives.iter().map(|&(u, v)| op.score(emb, u, v)).collect();
        pairwise_auc(&pos, &neg)
    }
}

/// Probability that a random positive score outranks a random negative one
/// (ties count half) — exact pairwise AUC.
pub fn pairwise_auc(pos: &[f64], neg: &[f64]) -> f64 {
    let mut wins = 0.0f64;
    for &p in pos {
        for &n in neg {
            if p > n {
                wins += 1.0;
            } else if p == n {
                wins += 0.5;
            }
        }
    }
    wins / (pos.len() * neg.len()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use seqge_graph::generators::classic::erdos_renyi;
    use seqge_linalg::NormedMat;

    fn graph() -> Graph {
        erdos_renyi(60, 0.15, 3)
    }

    #[test]
    fn sample_shapes_and_validity() {
        let g = graph();
        let set = LinkPredSet::sample(&g, 0.2, 1);
        assert_eq!(set.positives.len(), set.negatives.len());
        assert_eq!(set.positives.len(), (g.num_edges() as f64 * 0.2) as usize);
        for &(u, v) in &set.positives {
            assert!(g.has_edge(u, v));
        }
        for &(u, v) in &set.negatives {
            assert!(!g.has_edge(u, v));
            assert_ne!(u, v);
        }
    }

    #[test]
    fn training_graph_excludes_heldout() {
        let g = graph();
        let set = LinkPredSet::sample(&g, 0.3, 2);
        let train = set.training_graph(&g);
        assert_eq!(train.num_edges(), g.num_edges() - set.positives.len());
        for &(u, v) in &set.positives {
            assert!(!train.has_edge(u, v));
        }
    }

    #[test]
    fn perfect_embedding_gets_auc_1() {
        // Oracle embedding: a dimension per node pair is impossible, but an
        // indicator trick works: score positives by construction. Use a
        // 2-node-per-edge clique embedding: nodes of held-out edges share a
        // unique coordinate.
        let g = graph();
        let set = LinkPredSet::sample(&g, 0.2, 3);
        let d = set.positives.len();
        let mut emb = Mat::<f32>::zeros(g.num_nodes(), d);
        for (i, &(u, v)) in set.positives.iter().enumerate() {
            emb[(u as usize, i)] = 1.0;
            emb[(v as usize, i)] = 1.0;
        }
        let auc = set.auc(&emb, EdgeOp::Dot);
        assert!(auc > 0.95, "oracle AUC {auc}");
    }

    #[test]
    fn random_embedding_near_half() {
        let g = graph();
        let set = LinkPredSet::sample(&g, 0.25, 4);
        let emb =
            Mat::from_fn(g.num_nodes(), 8, |r, c| (((r * 31 + c * 17) % 97) as f32 / 97.0) - 0.5);
        let auc = set.auc(&emb, EdgeOp::Dot);
        assert!((0.3..0.7).contains(&auc), "random AUC {auc}");
    }

    #[test]
    fn operators_disagree_in_general() {
        let g = graph();
        let set = LinkPredSet::sample(&g, 0.2, 5);
        let emb = Mat::from_fn(g.num_nodes(), 4, |r, c| ((r + c) % 5) as f32 - 2.0);
        let dot = set.auc(&emb, EdgeOp::Dot);
        let cos = set.auc(&emb, EdgeOp::Cosine);
        let l2 = set.auc(&emb, EdgeOp::NegL2);
        for v in [dot, cos, l2] {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    /// The scalar reference the `scan_*` kernels replaced: three sequential
    /// `f64` reductions per pair. Returns the score and the magnitude its
    /// rounding error scales with (`Σ|aᵢ·bᵢ|` for a dot product, which can
    /// cancel; the score itself otherwise).
    fn score_ref(op: EdgeOp, x: &[f32], y: &[f32]) -> (f64, f64) {
        let products = || x.iter().zip(y).map(|(&a, &b)| a as f64 * b as f64);
        match op {
            EdgeOp::Dot => (products().sum(), products().map(f64::abs).sum()),
            EdgeOp::NegL2 => {
                let s =
                    -x.iter().zip(y).map(|(&a, &b)| ((a - b) as f64).powi(2)).sum::<f64>().sqrt();
                (s, s.abs())
            }
            EdgeOp::Cosine => {
                let dot: f64 = products().sum();
                let nx: f64 = x.iter().map(|&a| (a as f64).powi(2)).sum::<f64>().sqrt();
                let ny: f64 = y.iter().map(|&b| (b as f64).powi(2)).sum::<f64>().sqrt();
                (dot / (nx * ny).max(1e-12), 1.0)
            }
        }
    }

    const MAX_LEN: usize = 67;

    /// A row in one magnitude regime: all zero, `f32` denormals, tiny,
    /// ordinary, large, or within a factor of `f32::MAX`.
    fn row() -> impl Strategy<Value = Vec<f32>> {
        let scale = prop_oneof![
            Just(0.0f32),
            Just(1e-42f32),
            Just(1e-20f32),
            Just(1.0f32),
            Just(1.0f32),
            Just(1e18f32),
            Just(3e38f32)
        ];
        (scale, proptest::collection::vec(-1.0f32..1.0, MAX_LEN))
            .prop_map(|(scale, unit)| unit.into_iter().map(|a| a * scale).collect())
    }

    fn any_op() -> impl Strategy<Value = EdgeOp> {
        prop_oneof![Just(EdgeOp::Dot), Just(EdgeOp::NegL2), Just(EdgeOp::Cosine)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The one-pass kernels agree with the scalar reference to 1e-12 of
        /// the score's own scale at every length (lane tails included) and
        /// in every magnitude regime.
        #[test]
        fn scorer_matches_scalar_reference(
            op in any_op(), len in 0usize..=MAX_LEN, x in row(), y in row(),
        ) {
            let (x, y) = (&x[..len], &y[..len]);
            let got = op.scorer(x).score(y);
            let (want, scale) = score_ref(op, x, y);
            // `==` first: ±inf (an f32 difference that overflowed) has no error.
            prop_assert!(
                got == want || (got - want).abs() <= 1e-12 * scale,
                "{:?} len {}: kernel {:e}, reference {:e}", op, len, got, want
            );
            let zero = |v: &[f32]| v.iter().all(|&a| a == 0.0);
            if op != EdgeOp::NegL2 && (zero(x) || zero(y)) {
                prop_assert_eq!(got.to_bits(), want.to_bits(), "the sign of a zero score");
            }
        }

        /// A score does not depend on which vertex is the query, and
        /// `EdgeOp::score` is the scorer — bit for bit.
        #[test]
        fn score_is_symmetric_and_has_one_definition(
            op in any_op(), len in 0usize..=MAX_LEN, x in row(), y in row(),
        ) {
            let (x, y) = (&x[..len], &y[..len]);
            let got = op.scorer(x).score(y);
            prop_assert_eq!(got.to_bits(), op.scorer(y).score(x).to_bits());
            let emb = Mat::from_vec(2, len, [x, y].concat());
            prop_assert_eq!(got.to_bits(), op.score(&emb, 0, 1).to_bits());
            prop_assert_eq!(got.to_bits(), op.score(&emb, 1, 0).to_bits());
        }

        /// A score read with a view's stored norm is the score, bit for bit:
        /// the stored norm is the one `score` computes.
        #[test]
        fn stored_norm_score_is_the_score(
            op in any_op(), len in 0usize..=MAX_LEN, x in row(), y in row(),
        ) {
            let (x, y) = (&x[..len], &y[..len]);
            let view = NormedMat::from(Mat::from_vec(2, len, [x, y].concat()));
            for (q, r) in [(0, 1), (1, 0), (1, 1)] {
                let scorer = op.scorer(view.row(q));
                let stored = scorer.score_normed(view.row(r), view.norm(r));
                prop_assert_eq!(stored.to_bits(), scorer.score(view.row(r)).to_bits());
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = graph();
        let a = LinkPredSet::sample(&g, 0.2, 9);
        let b = LinkPredSet::sample(&g, 0.2, 9);
        assert_eq!(a.positives, b.positives);
        assert_eq!(a.negatives, b.negatives);
    }
}
