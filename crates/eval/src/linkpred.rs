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
use seqge_linalg::Mat;

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
        let (x, y) = (emb.row(u as usize), emb.row(v as usize));
        match self {
            EdgeOp::Dot => x.iter().zip(y).map(|(&a, &b)| a as f64 * b as f64).sum(),
            EdgeOp::NegL2 => {
                -x.iter().zip(y).map(|(&a, &b)| ((a - b) as f64).powi(2)).sum::<f64>().sqrt()
            }
            EdgeOp::Cosine => {
                let dot: f64 = x.iter().zip(y).map(|(&a, &b)| a as f64 * b as f64).sum();
                let nx: f64 = x.iter().map(|&a| (a as f64).powi(2)).sum::<f64>().sqrt();
                let ny: f64 = y.iter().map(|&b| (b as f64).powi(2)).sum::<f64>().sqrt();
                dot / (nx * ny).max(1e-12)
            }
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
    use seqge_graph::generators::classic::erdos_renyi;

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

    #[test]
    fn deterministic_per_seed() {
        let g = graph();
        let a = LinkPredSet::sample(&g, 0.2, 9);
        let b = LinkPredSet::sample(&g, 0.2, 9);
        assert_eq!(a.positives, b.positives);
        assert_eq!(a.negatives, b.negatives);
    }
}
