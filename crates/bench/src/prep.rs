//! Dataset and walk preparation shared by the experiments and the benches.

use seqge_core::{full_corpus, TrainConfig};
use seqge_graph::{Dataset, Graph, NodeId};
use seqge_sampling::{NegativeTable, WalkCorpus};

/// A dataset instantiated at some scale, with its walk corpus and a ready
/// negative table.
pub struct PreparedGraph {
    /// Which dataset.
    pub dataset: Dataset,
    /// The labelled graph.
    pub graph: Graph,
    /// The walk corpus (appearance counts).
    pub corpus: WalkCorpus,
    /// Pre-generated walks (`r` per node).
    pub walks: Vec<Vec<NodeId>>,
    /// Negative table built from the corpus.
    pub table: NegativeTable,
}

/// Generates `dataset` at `scale`, runs the full walk pass, and builds the
/// negative table.
pub fn prepared_walks(dataset: Dataset, scale: f64, cfg: &TrainConfig, seed: u64) -> PreparedGraph {
    let graph =
        if scale >= 1.0 { dataset.generate(seed) } else { dataset.generate_scaled(scale, seed) };
    let (corpus, walks, table, _) = full_corpus(&graph, cfg, seed ^ 0xBEEF);
    PreparedGraph { dataset, graph, corpus, walks, table }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepared_graph_is_consistent() {
        let cfg = {
            let mut c = TrainConfig::paper_defaults(16);
            c.walk.walk_length = 10;
            c.walk.walks_per_node = 2;
            c
        };
        let p = prepared_walks(Dataset::Cora, 0.05, &cfg, 1);
        assert!(p.graph.num_nodes() >= 28);
        assert_eq!(p.walks.len(), p.corpus.num_walks());
        assert!(p.table.is_ready());
        assert_eq!(p.graph.num_classes(), 7);
        // FNV-1a over every walk's nodes: pins the `seed ^ 0xBEEF` corpus
        // stream every table/figure experiment trains on.
        let hash = p
            .walks
            .iter()
            .flatten()
            .flat_map(|u| u.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            });
        assert_eq!(hash, 0x87de_83a9_2ea0_d245, "walk stream moved");
    }
}
