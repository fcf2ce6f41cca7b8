//! Second-order biased random walks (node2vec, Grover & Leskovec 2016).
//!
//! Transition probability from current node `u` (having arrived from `t`) to
//! a neighbor `x` is proportional to `α_pq(t, x) · w_ux` (paper Eq. 1–2):
//!
//! ```text
//! α = 1/p  if x == t            (return)
//!     1    if x adjacent to t   (stay near)
//!     1/q  otherwise            (explore)
//! ```
//!
//! Two sampling strategies are provided: exact cumulative-weight inversion
//! (O(deg) per step, what the paper's CPU presampling does) and rejection
//! sampling (O(1) expected per step for bounded bias ratios, the strategy of
//! FPGA walkers like LightRW). Both draw from the same distribution; the
//! bench suite compares their throughput.

use crate::rng::Rng64;
use seqge_graph::{Csr, Graph, NodeId};

/// Adjacency access the walk kernel needs, implemented by both the immutable
/// [`Csr`] snapshot (fast, for the static "all" scenario) and the mutable
/// [`Graph`] (for the "seq" scenario, where re-snapshotting after every
/// inserted edge would cost O(E) per edge).
pub trait WalkGraph {
    /// Number of nodes.
    fn num_nodes(&self) -> usize;
    /// Degree of `u`.
    fn degree(&self, u: NodeId) -> usize;
    /// `i`-th neighbor of `u` with its edge weight.
    fn neighbor_at(&self, u: NodeId, i: usize) -> (NodeId, f32);
    /// Whether `(u, v)` is an edge. The walk asks `has_edge(prev, x)` for
    /// every neighbour `x` of the current node, so an implementation may
    /// scan `u`'s list, which stays in cache for the whole step.
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool;
}

impl WalkGraph for Csr {
    #[inline]
    fn num_nodes(&self) -> usize {
        Csr::num_nodes(self)
    }
    #[inline]
    fn degree(&self, u: NodeId) -> usize {
        Csr::degree(self, u)
    }
    #[inline]
    fn neighbor_at(&self, u: NodeId, i: usize) -> (NodeId, f32) {
        (self.neighbors(u)[i], self.weights(u)[i])
    }
    #[inline]
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        Csr::has_edge(self, u, v)
    }
}

impl WalkGraph for Graph {
    #[inline]
    fn num_nodes(&self) -> usize {
        Graph::num_nodes(self)
    }
    #[inline]
    fn degree(&self, u: NodeId) -> usize {
        Graph::degree(self, u)
    }
    #[inline]
    fn neighbor_at(&self, u: NodeId, i: usize) -> (NodeId, f32) {
        self.neighbors(u)[i]
    }
    /// Scans `u`'s list alone: the same answer as [`Graph::has_edge`] on an
    /// undirected graph, without reading `v`'s entry to compare degrees —
    /// one likely cache miss per candidate of a step.
    #[inline]
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).iter().any(|&(w, _)| w == v)
    }
}

/// node2vec walk hyper-parameters (paper Table 2 defaults).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Node2VecParams {
    /// Return parameter `p` (Table 2: 0.5).
    pub p: f64,
    /// In-out parameter `q` (Table 2: 1.0).
    pub q: f64,
    /// Walk length `l` (Table 2: 80).
    pub walk_length: usize,
    /// Walks per node `r` (Table 2: 10).
    pub walks_per_node: usize,
}

impl Default for Node2VecParams {
    fn default() -> Self {
        Node2VecParams { p: 0.5, q: 1.0, walk_length: 80, walks_per_node: 10 }
    }
}

impl Node2VecParams {
    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), String> {
        if self.p <= 0.0 || self.q <= 0.0 || !self.p.is_finite() || !self.q.is_finite() {
            return Err("p and q must be positive".into());
        }
        if self.walk_length < 2 {
            return Err("walk_length must be at least 2".into());
        }
        if self.walks_per_node == 0 {
            return Err("walks_per_node must be at least 1".into());
        }
        Ok(())
    }
}

/// Sampling strategy for the biased step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepStrategy {
    /// Exact O(deg) cumulative inversion.
    Cumulative,
    /// Rejection sampling against the max bias (O(1) expected).
    Rejection,
}

/// A reusable walk generator over a CSR snapshot.
#[derive(Debug, Clone)]
pub struct Walker {
    params: Node2VecParams,
    strategy: StepStrategy,
    /// Scratch cumulative-weight buffer, reused across steps to avoid
    /// per-step allocation (workhorse-collection idiom).
    scratch: Vec<f64>,
}

impl Walker {
    /// Creates a walker with the exact (cumulative) step strategy.
    pub fn new(params: Node2VecParams) -> Self {
        params.validate().expect("invalid node2vec parameters");
        Walker { params, strategy: StepStrategy::Cumulative, scratch: Vec::new() }
    }

    /// Creates a walker with an explicit step strategy.
    pub fn with_strategy(params: Node2VecParams, strategy: StepStrategy) -> Self {
        params.validate().expect("invalid node2vec parameters");
        Walker { params, strategy, scratch: Vec::new() }
    }

    /// The walk parameters.
    pub fn params(&self) -> &Node2VecParams {
        &self.params
    }

    /// Performs one walk from `start`, appending nodes into `out` (cleared
    /// first). A walk from an isolated node is just `[start]`; otherwise the
    /// walk has exactly `walk_length` nodes.
    pub fn walk_into<G: WalkGraph>(
        &mut self,
        csr: &G,
        start: NodeId,
        rng: &mut Rng64,
        out: &mut Vec<NodeId>,
    ) {
        out.clear();
        out.push(start);
        if csr.degree(start) == 0 {
            return;
        }
        // First step: weighted by edge weight only (no previous node yet).
        let first = weighted_neighbor(csr, start, rng, &mut self.scratch);
        out.push(first);
        let mut prev = start;
        let mut cur = first;
        while out.len() < self.params.walk_length {
            let next = match self.strategy {
                StepStrategy::Cumulative => self.step_cumulative(csr, prev, cur, rng),
                StepStrategy::Rejection => self.step_rejection(csr, prev, cur, rng),
            };
            out.push(next);
            prev = cur;
            cur = next;
        }
    }

    /// Convenience wrapper allocating the output.
    pub fn walk<G: WalkGraph>(&mut self, csr: &G, start: NodeId, rng: &mut Rng64) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.params.walk_length);
        self.walk_into(csr, start, rng, &mut out);
        out
    }

    /// One biased step by exact cumulative inversion.
    fn step_cumulative<G: WalkGraph>(
        &mut self,
        csr: &G,
        prev: NodeId,
        cur: NodeId,
        rng: &mut Rng64,
    ) -> NodeId {
        let deg = csr.degree(cur);
        debug_assert!(deg > 0, "undirected walk can always return");
        self.scratch.clear();
        let mut acc = 0.0f64;
        for i in 0..deg {
            let (x, w) = csr.neighbor_at(cur, i);
            acc += self.bias(csr, prev, x) * w as f64;
            self.scratch.push(acc);
        }
        let draw = rng.next_f64() * acc;
        let idx = self.scratch.partition_point(|&c| c <= draw).min(deg - 1);
        csr.neighbor_at(cur, idx).0
    }

    /// One biased step by rejection sampling: propose by edge weight, accept
    /// with probability `α / α_max`.
    fn step_rejection<G: WalkGraph>(
        &mut self,
        csr: &G,
        prev: NodeId,
        cur: NodeId,
        rng: &mut Rng64,
    ) -> NodeId {
        let alpha_max = (1.0 / self.params.p).max(1.0).max(1.0 / self.params.q);
        loop {
            let x = weighted_neighbor(csr, cur, rng, &mut self.scratch);
            let alpha = self.bias(csr, prev, x);
            if rng.next_f64() * alpha_max < alpha {
                return x;
            }
        }
    }

    /// The α_pq bias term for candidate `x` given previous node `prev`.
    #[inline]
    fn bias<G: WalkGraph>(&self, csr: &G, prev: NodeId, x: NodeId) -> f64 {
        if x == prev {
            1.0 / self.params.p
        } else if csr.has_edge(prev, x) {
            1.0
        } else {
            1.0 / self.params.q
        }
    }
}

/// Samples a neighbor of `u` proportionally to edge weight (first-order step).
fn weighted_neighbor<G: WalkGraph>(
    csr: &G,
    u: NodeId,
    rng: &mut Rng64,
    scratch: &mut Vec<f64>,
) -> NodeId {
    let deg = csr.degree(u);
    // Fast path: unweighted graphs (all 1.0) dominate the evaluation.
    if (0..deg).all(|i| csr.neighbor_at(u, i).1 == 1.0) {
        return csr.neighbor_at(u, rng.gen_index(deg)).0;
    }
    scratch.clear();
    let mut acc = 0.0f64;
    for i in 0..deg {
        acc += csr.neighbor_at(u, i).1 as f64;
        scratch.push(acc);
    }
    let draw = rng.next_f64() * acc;
    let idx = scratch.partition_point(|&c| c <= draw).min(deg - 1);
    csr.neighbor_at(u, idx).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqge_graph::generators::classic::{path, ring, star};
    use seqge_graph::Graph;

    fn params(p: f64, q: f64, l: usize) -> Node2VecParams {
        Node2VecParams { p, q, walk_length: l, walks_per_node: 1 }
    }

    #[test]
    fn walk_has_requested_length() {
        let csr = ring(10).to_csr();
        let mut w = Walker::new(params(0.5, 1.0, 80));
        let mut rng = Rng64::seed_from_u64(0);
        let walk = w.walk(&csr, 3, &mut rng);
        assert_eq!(walk.len(), 80);
        assert_eq!(walk[0], 3);
    }

    #[test]
    fn consecutive_nodes_are_adjacent() {
        let csr = seqge_graph::generators::classic::erdos_renyi(50, 0.2, 1).to_csr();
        let mut w = Walker::new(params(0.5, 2.0, 40));
        let mut rng = Rng64::seed_from_u64(5);
        for start in [0u32, 10, 20] {
            let walk = w.walk(&csr, start, &mut rng);
            for pair in walk.windows(2) {
                assert!(csr.has_edge(pair[0], pair[1]), "walk steps must follow edges");
            }
        }
    }

    #[test]
    fn isolated_node_walk_is_singleton() {
        let g = Graph::with_nodes(3);
        let csr = g.to_csr();
        let mut w = Walker::new(params(0.5, 1.0, 10));
        let mut rng = Rng64::seed_from_u64(0);
        assert_eq!(w.walk(&csr, 1, &mut rng), vec![1]);
    }

    #[test]
    fn deterministic_per_seed() {
        let csr = ring(20).to_csr();
        let mut w = Walker::new(Node2VecParams::default());
        let a = w.walk(&csr, 0, &mut Rng64::seed_from_u64(9));
        let b = w.walk(&csr, 0, &mut Rng64::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn low_p_increases_backtracking() {
        // On a star, from a leaf every step goes to the hub; from the hub,
        // returning to the previous leaf has bias 1/p vs 1/q for others.
        // Count immediate backtracks hub→same-leaf over many steps.
        let csr = star(21).to_csr(); // hub 0, leaves 1..21
        let backtrack_rate = |p: f64, q: f64, seed: u64| {
            let mut w = Walker::new(params(p, q, 2000));
            let mut rng = Rng64::seed_from_u64(seed);
            let walk = w.walk(&csr, 1, &mut rng);
            // Triples (leaf, hub, x): backtrack when x == leaf.
            let mut total = 0usize;
            let mut back = 0usize;
            for t in walk.windows(3) {
                if t[1] == 0 {
                    total += 1;
                    if t[2] == t[0] {
                        back += 1;
                    }
                }
            }
            back as f64 / total as f64
        };
        let low_p = backtrack_rate(0.1, 1.0, 42); // strong return bias
        let high_p = backtrack_rate(10.0, 1.0, 42); // strong anti-return bias
        assert!(
            low_p > 3.0 * high_p,
            "return bias not expressed: low_p={low_p:.3} high_p={high_p:.3}"
        );
    }

    #[test]
    fn low_q_encourages_exploration_on_path() {
        // On a path, from node i (arrived from i-1) candidates are i-1
        // (α=1/p) and i+1 (α=1/q). Small q should push the walk outward.
        let csr = path(200).to_csr();
        let end_pos = |q: f64| {
            let mut w = Walker::new(params(1.0, q, 100));
            let mut rng = Rng64::seed_from_u64(7);
            let walk = w.walk(&csr, 0, &mut rng);
            *walk.last().unwrap()
        };
        assert!(end_pos(0.1) > end_pos(10.0), "low q should travel farther");
    }

    #[test]
    fn rejection_matches_cumulative_distribution() {
        // Same graph, same (p, q): empirical next-step distribution from a
        // fixed (prev, cur) state must agree between strategies.
        let mut g = Graph::with_nodes(5);
        // prev = 0, cur = 1; candidates: 0 (return), 2 (adjacent to 0), 3, 4.
        for (u, v) in [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4)] {
            g.add_edge(u, v).unwrap();
        }
        let csr = g.to_csr();
        let p = Node2VecParams { p: 0.5, q: 2.0, walk_length: 3, walks_per_node: 1 };
        let empirical = |strategy: StepStrategy, seed: u64| {
            let mut w = Walker::with_strategy(p, strategy);
            let mut rng = Rng64::seed_from_u64(seed);
            let mut counts = [0usize; 5];
            for _ in 0..60_000 {
                let next = match strategy {
                    StepStrategy::Cumulative => w.step_cumulative(&csr, 0, 1, &mut rng),
                    StepStrategy::Rejection => w.step_rejection(&csr, 0, 1, &mut rng),
                };
                counts[next as usize] += 1;
            }
            counts.map(|c| c as f64 / 60_000.0)
        };
        let a = empirical(StepStrategy::Cumulative, 1);
        let b = empirical(StepStrategy::Rejection, 2);
        for i in 0..5 {
            assert!((a[i] - b[i]).abs() < 0.01, "outcome {i}: {} vs {}", a[i], b[i]);
        }
        // And check against the analytic distribution:
        // weights: 0 → 1/p = 2, 2 → 1 (adjacent to prev), 3 → 1/q = 0.5, 4 → 0.5.
        let total = 2.0 + 1.0 + 0.5 + 0.5;
        assert!((a[0] - 2.0 / total).abs() < 0.01);
        assert!((a[2] - 1.0 / total).abs() < 0.01);
        assert!((a[3] - 0.5 / total).abs() < 0.01);
    }

    #[test]
    fn respects_edge_weights_on_first_step() {
        let mut g = Graph::with_nodes(3);
        g.add_weighted_edge(0, 1, 9.0).unwrap();
        g.add_weighted_edge(0, 2, 1.0).unwrap();
        let csr = g.to_csr();
        let mut w = Walker::new(params(1.0, 1.0, 2));
        let mut rng = Rng64::seed_from_u64(3);
        let mut to1 = 0;
        for _ in 0..10_000 {
            if w.walk(&csr, 0, &mut rng)[1] == 1 {
                to1 += 1;
            }
        }
        let f = to1 as f64 / 10_000.0;
        assert!((f - 0.9).abs() < 0.02, "weighted first step freq {f}");
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(params(0.0, 1.0, 10).validate().is_err());
        assert!(params(1.0, -1.0, 10).validate().is_err());
        assert!(params(1.0, 1.0, 1).validate().is_err());
        assert!(Node2VecParams { walks_per_node: 0, ..Default::default() }.validate().is_err());
    }

    #[test]
    fn default_params_match_table2() {
        let d = Node2VecParams::default();
        assert_eq!((d.p, d.q, d.walks_per_node, d.walk_length), (0.5, 1.0, 10, 80));
    }
}
