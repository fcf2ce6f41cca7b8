//! Fluent construction of validated graphs.

use crate::graph::{Graph, NodeId};
use crate::Result;

/// Accumulates nodes, edges, and labels, then validates everything in one
/// [`GraphBuilder::build`] call. Unlike [`Graph::add_edge`], the builder
/// collects *all* errors lazily: generation code can `push` freely and decide
/// at build time whether duplicates should be fatal or skipped.
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    num_nodes: usize,
    edges: Vec<(NodeId, NodeId, f32)>,
    labels: Option<Vec<u16>>,
    skip_invalid: bool,
}

impl GraphBuilder {
    /// Starts a builder for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        GraphBuilder { num_nodes: n, ..Default::default() }
    }

    /// Queues an unweighted edge.
    pub fn edge(mut self, u: NodeId, v: NodeId) -> Self {
        self.edges.push((u, v, 1.0));
        self
    }

    /// Queues many unweighted edges.
    pub fn edges<I: IntoIterator<Item = (NodeId, NodeId)>>(mut self, it: I) -> Self {
        self.edges.extend(it.into_iter().map(|(u, v)| (u, v, 1.0)));
        self
    }

    /// Attaches per-node class labels.
    pub fn labels(mut self, labels: Vec<u16>) -> Self {
        self.labels = Some(labels);
        self
    }

    /// Skip (rather than fail on) duplicate edges and self loops at build
    /// time. Out-of-range nodes and bad weights remain fatal.
    pub fn skip_invalid(mut self) -> Self {
        self.skip_invalid = true;
        self
    }

    /// Validates and produces the [`Graph`].
    pub fn build(self) -> Result<Graph> {
        let mut g = Graph::with_nodes(self.num_nodes);
        for (u, v, w) in self.edges {
            match g.add_weighted_edge(u, v, w) {
                Ok(()) => {}
                Err(e) if self.skip_invalid => match e {
                    crate::GraphError::DuplicateEdge(..) | crate::GraphError::SelfLoop(_) => {}
                    other => return Err(other),
                },
                Err(e) => return Err(e),
            }
        }
        if let Some(labels) = self.labels {
            g.set_labels(labels)?;
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphError;

    #[test]
    fn builds_labelled_graph() {
        let g = GraphBuilder::new(3).edge(0, 1).edge(1, 2).labels(vec![0, 0, 1]).build().unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_classes(), 2);
    }

    #[test]
    fn strict_mode_rejects_duplicates() {
        let err = GraphBuilder::new(2).edge(0, 1).edge(1, 0).build().unwrap_err();
        assert!(matches!(err, GraphError::DuplicateEdge(..)));
    }

    #[test]
    fn skip_invalid_drops_dupes_and_loops_only() {
        let g = GraphBuilder::new(3)
            .skip_invalid()
            .edges([(0, 1), (1, 0), (1, 1), (1, 2)])
            .build()
            .unwrap();
        assert_eq!(g.num_edges(), 2);

        let err = GraphBuilder::new(2).skip_invalid().edge(0, 5).build().unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfRange { .. }));
    }
}
