//! Evaluation dataset specifications (paper Table 1) and their synthetic
//! instantiations.
//!
//! The paper evaluates on Cora, Amazon Photo ("ampt"), and Amazon Electronics
//! Computers ("amcp"). Those datasets cannot be shipped here, so each spec is
//! realized as a seeded degree-corrected planted-partition graph matched to
//! the published node / edge / class counts — same sizes, same densities,
//! same class cardinalities, recoverable community structure. See DESIGN.md §1.

use crate::generators::sbm::{PlantedPartition, SbmParams};
use crate::graph::Graph;

/// The three evaluation datasets of the paper (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Dataset {
    /// Cora citation network: 2708 nodes, 5429 edges, 7 classes.
    Cora,
    /// Amazon Photo co-purchase subset: 7650 nodes, 143663 edges, 8 classes.
    AmazonPhoto,
    /// Amazon Electronics Computers subset: 13752 nodes, 287209 edges, 10 classes.
    AmazonComputers,
}

impl Dataset {
    /// All three datasets in the paper's presentation order.
    pub const ALL: [Dataset; 3] = [Dataset::Cora, Dataset::AmazonPhoto, Dataset::AmazonComputers];

    /// The short name the paper uses in its figures.
    pub fn short_name(self) -> &'static str {
        match self {
            Dataset::Cora => "cora",
            Dataset::AmazonPhoto => "ampt",
            Dataset::AmazonComputers => "amcp",
        }
    }

    /// Full human-readable name.
    pub fn full_name(self) -> &'static str {
        match self {
            Dataset::Cora => "Cora",
            Dataset::AmazonPhoto => "Amazon Photo",
            Dataset::AmazonComputers => "Amazon Electronics Computers",
        }
    }

    /// Published statistics (Table 1) as a generator spec.
    pub fn spec(self) -> DatasetSpec {
        match self {
            Dataset::Cora => DatasetSpec::new(self, 2708, 5429, 7),
            Dataset::AmazonPhoto => DatasetSpec::new(self, 7650, 143_663, 8),
            Dataset::AmazonComputers => DatasetSpec::new(self, 13_752, 287_209, 10),
        }
    }

    /// Generates the synthetic stand-in graph for this dataset.
    pub fn generate(self, seed: u64) -> Graph {
        self.spec().generate(seed)
    }

    /// A proportionally shrunk variant (same density and class count, fewer
    /// nodes) for fast tests and CI-scale experiment runs. `scale` in (0, 1].
    pub fn generate_scaled(self, scale: f64, seed: u64) -> Graph {
        self.spec().scaled(scale).generate(seed)
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Size parameters for one dataset together with the generator configuration
/// used to synthesize it.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DatasetSpec {
    /// Which dataset this spec describes.
    pub dataset: Dataset,
    /// Node count (Table 1).
    pub num_nodes: usize,
    /// Edge count (Table 1).
    pub num_edges: usize,
    /// Class count (Table 1).
    pub num_classes: usize,
}

impl DatasetSpec {
    fn new(dataset: Dataset, n: usize, m: usize, k: usize) -> Self {
        DatasetSpec { dataset, num_nodes: n, num_edges: m, num_classes: k }
    }

    /// Shrinks the spec to `scale` of its node count, preserving average
    /// degree and class count. Clamps so every class keeps at least 4 nodes.
    pub fn scaled(&self, scale: f64) -> DatasetSpec {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let n = ((self.num_nodes as f64 * scale) as usize).max(self.num_classes * 4);
        let m = ((self.num_edges as f64) * (n as f64 / self.num_nodes as f64)) as usize;
        let max_m = n * (n - 1) / 2;
        DatasetSpec { num_nodes: n, num_edges: m.min(max_m).max(n), ..*self }
    }

    /// Instantiates the spec as a labelled planted-partition graph.
    pub fn generate(&self, seed: u64) -> Graph {
        let params = SbmParams::new(self.num_nodes, self.num_edges, self.num_classes);
        PlantedPartition::new(params)
            .expect("published dataset sizes are always valid")
            .generate(seed ^ stable_hash(self.dataset.short_name()))
    }
}

/// Tiny stable string hash (FNV-1a) so each dataset gets decorrelated streams
/// from the same user seed.
fn stable_hash(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_match_table1() {
        let c = Dataset::Cora.spec();
        assert_eq!((c.num_nodes, c.num_edges, c.num_classes), (2708, 5429, 7));
        let p = Dataset::AmazonPhoto.spec();
        assert_eq!((p.num_nodes, p.num_edges, p.num_classes), (7650, 143_663, 8));
        let e = Dataset::AmazonComputers.spec();
        assert_eq!((e.num_nodes, e.num_edges, e.num_classes), (13_752, 287_209, 10));
    }

    #[test]
    fn cora_generates_to_spec() {
        let g = Dataset::Cora.generate(0);
        assert_eq!(g.num_nodes(), 2708);
        assert_eq!(g.num_edges(), 5429);
        assert_eq!(g.num_classes(), 7);
    }

    #[test]
    fn scaled_preserves_density_and_classes() {
        let spec = Dataset::AmazonComputers.spec();
        let small = spec.scaled(0.05);
        assert_eq!(small.num_classes, 10);
        let avg_degree = |s: &DatasetSpec| 2.0 * s.num_edges as f64 / s.num_nodes as f64;
        let ratio = avg_degree(&small) / avg_degree(&spec);
        assert!((0.8..=1.2).contains(&ratio), "avg degree ratio {ratio}");
        let g = small.generate(1);
        assert_eq!(g.num_nodes(), small.num_nodes);
        assert_eq!(g.num_edges(), small.num_edges);
    }

    #[test]
    fn scaled_floor_keeps_classes_populated() {
        let tiny = Dataset::Cora.spec().scaled(0.001);
        assert!(tiny.num_nodes >= 7 * 4);
        let g = tiny.generate(2);
        assert_eq!(g.num_classes(), 7);
    }

    #[test]
    fn datasets_decorrelated_for_same_seed() {
        let a = Dataset::Cora.generate_scaled(0.05, 7);
        let b = Dataset::AmazonPhoto.generate_scaled(0.02, 7);
        // Different datasets, same user seed — structurally different graphs.
        assert_ne!(a.num_nodes(), b.num_nodes());
    }

    #[test]
    fn short_names_match_paper_figures() {
        assert_eq!(Dataset::Cora.to_string(), "cora");
        assert_eq!(Dataset::AmazonPhoto.to_string(), "ampt");
        assert_eq!(Dataset::AmazonComputers.to_string(), "amcp");
    }
}
