//! # seqge-ann — incremental approximate-nearest-neighbor index
//!
//! The serving read path answers `topk` by scoring the query embedding
//! against *every* vertex in the published snapshot — O(n·d) flops per
//! query. This crate is the cheaper alternative: every vertex carries one
//! 128-bit code, its signs under [`LANES`] random hyperplanes, so the
//! Hamming distance between two codes estimates the angle between their
//! rows. A query hashes its embedding (O(128·d)), takes the Hamming
//! distance to every code in its residue class (two `popcount`s each), and
//! keeps the `128·(probes + 1)` nearest; the caller exactly re-ranks that
//! candidate set under the requested operator — so the approximation only
//! ever affects *which* vertices compete, never the scores or the tie-break
//! order of the survivors.
//!
//! Two halves:
//!
//! * [`AnnIndex`] — the immutable artifact published alongside an
//!   embedding snapshot: the hyperplanes and one flat array of codes, 16
//!   bytes per vertex. Readers holding an old snapshot keep a consistent
//!   index/embedding pair forever.
//! * [`AnnBuilder`] — the trainer-side maintainer. It keeps the last view
//!   it synced: handed the same `Arc<NormedMat>` again (a publish with no
//!   training since) it returns the previous `Arc<AnnIndex>` without
//!   reading a row. Otherwise it detects the *dirty region*: rows whose
//!   bits differ from the last view's, compared exactly — over the rows the
//!   backend says it re-rendered when it names the view it replaced
//!   ([`AnnBuilder::sync_rows`]), over every row otherwise. A dirty row is
//!   projected through the lane-parallel kernel only once its movements
//!   since its last projection add up to its margin budget, the distance
//!   it can travel without any projection changing sign, rounding included.
//!   A projected row's code is overwritten in place, and a sync that moved
//!   a code publishes a copy of the array; a sync where no code moved
//!   returns the previous index.
//!
//! The exemplar shape is SNIPPETS.md snippets 2–3 (`ATree`, `LayeredLsh`,
//! `DynamicQuery` from the wembed/rembed line of work): a spatial index
//! maintained *dynamically* under a mutating embedding set, queried
//! through the same interface as the brute-force path it replaces. The
//! Hamming scan over packed binary codes is how hyperdimensional graph
//! classifiers search on FPGA (PAPERS.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod index;
mod lsh;

pub use index::{AnnBuilder, AnnIndex, SyncReport};
pub use lsh::{AnnConfig, LANES};
