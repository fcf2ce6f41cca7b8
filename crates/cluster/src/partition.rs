//! Vertex-space partitioning: which shard owns which node and edge.
//!
//! The scheme is plain modulo — `owner(v) = v % shards` — chosen over a
//! mixing hash deliberately: the serve protocol's `topk` residue-class
//! filter (`mod`/`rem`) expresses exactly this partition, so the router
//! can ask shard `s` for "your slice of the answer" with
//! `{"mod": shards, "rem": s}` and the filter *is* the ownership test.
//! Modulo also keeps the partition stable under node-id growth: adding
//! nodes never migrates existing ones between shards.
//!
//! An edge `{u, v}` has exactly **one** owner: the owner of its
//! lower-numbered endpoint, `owner(min(u, v))`. The graph is undirected
//! (`add_edge(u, v)` and `remove_edge(v, u)` name the same edge), so
//! ownership must be a function of the *set* `{u, v}`, not of the order a
//! client happened to write the endpoints in — keying on the first
//! argument would route `add_edge(2, 5)` and `remove_edge(5, 2)` to
//! different shards. Every edge is therefore applied and trained exactly
//! once cluster-wide — the previous both-endpoint routing trained
//! cross-shard edges twice, which capped 1→N-shard ingest scaling at ~N/2
//! of the attainable ratio. A shard's walks may still cross partition
//! boundaries (the walk graph is the shard's owned-edge subgraph over the
//! *global* node space), so a shard holds a locally trained row for
//! vertices it does not own; the authoritative row lives on the owner,
//! which is where the router sends every single-vertex read.
//! Ownership is residue-stable: the same `{"mod", "rem"}` filter the
//! router already scatters for `topk` still partitions the answer.

use seqge_graph::{Graph, NodeId};

/// The shard that owns node `v`. Panics if `shards` is zero.
pub fn owner(v: NodeId, shards: usize) -> usize {
    assert!(shards > 0, "a cluster has at least one shard");
    (v as usize) % shards
}

/// The single shard an edge event must reach: the owner of the
/// lower-numbered endpoint. Orientation-invariant —
/// `edge_owner(u, v) == edge_owner(v, u)` — because the graph is
/// undirected and both orderings name the same edge. Exactly one shard
/// applies (and trains) each edge, so added shards divide the training
/// work instead of duplicating it.
pub fn edge_owner(u: NodeId, v: NodeId, shards: usize) -> usize {
    owner(u.min(v), shards)
}

/// The subgraph shard `shard` trains on: every node (embeddings are
/// indexed by global id on every shard), but only the edges it owns.
/// The per-shard subgraphs are a disjoint cover of the full edge set.
pub fn shard_subgraph(g: &Graph, shard: usize, shards: usize) -> Graph {
    let edges: Vec<(NodeId, NodeId)> = g
        .edges()
        .filter(|&(u, v, _)| edge_owner(u, v, shards) == shard)
        .map(|(u, v, _)| (u, v))
        .collect();
    Graph::from_edges_lossy(g.num_nodes(), &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqge_graph::generators::classic::erdos_renyi;

    #[test]
    fn ownership_is_total_and_disjoint() {
        for shards in 1..6 {
            for v in 0..100u32 {
                let s = owner(v, shards);
                assert!(s < shards);
                assert_eq!(s, owner(v, shards), "deterministic");
            }
        }
    }

    #[test]
    fn edge_owner_is_the_min_endpoint_owner() {
        assert_eq!(edge_owner(3, 7, 4), 3);
        assert_eq!(edge_owner(1, 5, 4), 1);
        assert_eq!(edge_owner(2, 5, 4), 2);
        // The edge is undirected: argument order must not matter.
        assert_eq!(edge_owner(5, 2, 4), 2);
        assert_eq!(edge_owner(7, 3, 4), 3);
    }

    #[test]
    fn edge_owner_is_orientation_invariant() {
        // add_edge(u, v) and remove_edge(v, u) name the same undirected
        // edge and must land on the same shard, for every pair and shard
        // count.
        for shards in 1..6 {
            for u in 0..40u32 {
                for v in 0..40u32 {
                    assert_eq!(
                        edge_owner(u, v, shards),
                        edge_owner(v, u, shards),
                        "({u},{v}) vs ({v},{u}) at {shards} shards"
                    );
                }
            }
        }
    }

    #[test]
    fn subgraphs_are_a_disjoint_cover_of_the_edge_set() {
        let g = erdos_renyi(60, 0.1, 3);
        let shards = 4;
        let parts: Vec<Graph> = (0..shards).map(|s| shard_subgraph(&g, s, shards)).collect();
        for (u, v, _) in g.edges() {
            let own = edge_owner(u, v, shards);
            for (s, part) in parts.iter().enumerate() {
                assert_eq!(
                    part.has_edge(u, v),
                    s == own,
                    "edge ({u},{v}) vs shard {s}: owner {own}"
                );
            }
        }
        // Exactly one copy of every edge cluster-wide: summed shard edge
        // counts reconcile with the full graph.
        let total: usize = parts.iter().map(Graph::num_edges).sum();
        assert_eq!(total, g.num_edges(), "single-owner cover must not duplicate or drop edges");
    }

    #[test]
    fn one_shard_owns_everything() {
        let g = erdos_renyi(30, 0.2, 9);
        let part = shard_subgraph(&g, 0, 1);
        assert_eq!(part.num_edges(), g.num_edges());
    }
}
