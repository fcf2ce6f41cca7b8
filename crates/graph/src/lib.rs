//! # seqge-graph — graph substrate for sequential graph embedding
//!
//! This crate provides everything the embedding layers need from a graph:
//!
//! * [`Graph`] — an undirected, weighted, *dynamic* graph (edges can be added
//!   after construction, which is the whole point of the paper's sequential
//!   training scenario) with optional per-node class labels.
//! * [`Csr`] — an immutable compressed-sparse-row snapshot used by the random
//!   walk kernels (cache-friendly, sorted neighbor lists, O(log deg) edge
//!   membership queries).
//! * [`generators`] — synthetic labelled graph generators. The paper evaluates
//!   on Cora and two Amazon co-purchase subsets; those datasets are not
//!   redistributable here, so [`datasets`] instantiates seeded
//!   degree-corrected planted-partition graphs matched to each dataset's
//!   published node / edge / class counts (see DESIGN.md §1).
//! * [`forest`] — spanning-forest extraction used to build the initial graph
//!   of the paper's "seq" scenario (§4.3.2): the initial graph is a forest
//!   with the *same connected components* as the full graph, and the removed
//!   edges are replayed one at a time.
//! * [`dynamic`] — the replayable edge-insertion stream driving that scenario.
//!
//! All randomness is seeded and deterministic for a given seed.

#![forbid(unsafe_code)]

pub mod builder;
pub mod csr;
pub mod datasets;
pub mod dynamic;
pub mod error;
pub mod forest;
pub mod generators;
pub mod graph;
pub mod io;
pub mod stats;

pub use builder::GraphBuilder;
pub use csr::Csr;
pub use datasets::{Dataset, DatasetSpec};
pub use dynamic::{EdgeEvent, EdgeStream};
pub use error::GraphError;
pub use forest::{spanning_forest, ForestSplit};
pub use graph::{Graph, NodeId};

/// Result alias for graph operations.
pub type Result<T> = std::result::Result<T, GraphError>;
