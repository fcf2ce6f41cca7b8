//! Immutable compressed-sparse-row snapshot of a [`Graph`].
//!
//! The node2vec walk kernel queries, per step, (a) the neighbor list of the
//! current node and (b) whether a candidate next-hop is adjacent to the
//! *previous* node (to decide the `d_tx` distance in the paper's Eq. 2).
//! CSR with sorted neighbor lists serves (a) with one contiguous slice and
//! (b) with a binary search, and the whole structure lives in three flat
//! allocations, which is what the hot loop wants.

use crate::graph::{Graph, NodeId};

/// Compressed sparse row adjacency with sorted neighbor lists and per-edge
/// weights. Construct via [`Graph::to_csr`] or [`Csr::from_graph`].
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    offsets: Vec<u32>,
    neighbors: Vec<NodeId>,
    weights: Vec<f32>,
}

impl Csr {
    /// Builds a CSR snapshot of `g`, sorting each neighbor list by node id.
    pub fn from_graph(g: &Graph) -> Self {
        let n = g.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(2 * g.num_edges());
        let mut weights = Vec::with_capacity(2 * g.num_edges());
        offsets.push(0u32);
        let mut scratch: Vec<(NodeId, f32)> = Vec::new();
        for u in 0..n {
            scratch.clear();
            scratch.extend_from_slice(g.neighbors(u as NodeId));
            scratch.sort_unstable_by_key(|&(v, _)| v);
            for &(v, w) in &scratch {
                neighbors.push(v);
                weights.push(w);
            }
            offsets.push(neighbors.len() as u32);
        }
        Csr { offsets, neighbors, weights }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        (self.offsets[u as usize + 1] - self.offsets[u as usize]) as usize
    }

    /// Sorted neighbor ids of `u`.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        let lo = self.offsets[u as usize] as usize;
        let hi = self.offsets[u as usize + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// Edge weights aligned with [`Csr::neighbors`].
    #[inline]
    pub fn weights(&self, u: NodeId) -> &[f32] {
        let lo = self.offsets[u as usize] as usize;
        let hi = self.offsets[u as usize + 1] as usize;
        &self.weights[lo..hi]
    }

    /// Whether `(u, v)` is an edge — O(log deg(u)) via binary search.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Approximate heap footprint in bytes (used by the model-size report).
    pub fn heap_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
            + self.neighbors.len() * std::mem::size_of::<NodeId>()
            + self.weights.len() * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Csr {
        // 0 - 1 - 2 - 3
        let mut g = Graph::with_nodes(4);
        g.add_edge(1, 0).unwrap();
        g.add_edge(2, 1).unwrap();
        g.add_edge(3, 2).unwrap();
        g.to_csr()
    }

    #[test]
    fn shape_matches_graph() {
        let c = path4();
        assert_eq!(c.num_nodes(), 4);
        assert_eq!(c.num_edges(), 3);
        assert_eq!(c.degree(0), 1);
        assert_eq!(c.degree(1), 2);
    }

    #[test]
    fn neighbor_lists_are_sorted() {
        let mut g = Graph::with_nodes(5);
        for v in [4u32, 2, 3, 1] {
            g.add_edge(0, v).unwrap();
        }
        let c = g.to_csr();
        assert_eq!(c.neighbors(0), &[1, 2, 3, 4]);
    }

    #[test]
    fn has_edge_matches_membership() {
        let c = path4();
        assert!(c.has_edge(1, 2));
        assert!(c.has_edge(2, 1));
        assert!(!c.has_edge(0, 3));
        assert!(!c.has_edge(0, 0));
    }

    #[test]
    fn weights_follow_sort_order() {
        let mut g = Graph::with_nodes(3);
        g.add_weighted_edge(0, 2, 5.0).unwrap();
        g.add_weighted_edge(0, 1, 3.0).unwrap();
        let c = g.to_csr();
        assert_eq!(c.neighbors(0), &[1, 2]);
        assert_eq!(c.weights(0), &[3.0, 5.0]);
    }

    #[test]
    fn empty_node_has_empty_slices() {
        let g = Graph::with_nodes(2);
        let c = g.to_csr();
        assert!(c.neighbors(0).is_empty());
        assert!(c.weights(1).is_empty());
    }
}
