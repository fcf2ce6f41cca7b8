//! # seqge-ann — incremental approximate-nearest-neighbor index
//!
//! The serving read path answers `topk` by scoring the query embedding
//! against *every* vertex in the published snapshot — O(n·d) per query,
//! which is fine at cora scale and fatal at 10^6+ vertices under heavy
//! read traffic. This crate is the sublinear alternative: locality-
//! sensitive hashing with `bands` independent hash tables, each keyed by a
//! `bits`-bit signature of signed random-hyperplane projections. A query
//! hashes its embedding (O(bands·bits·d)), unions the matching buckets
//! (plus `probes` low-margin bit-flip probes per band), and the caller
//! exactly re-ranks that candidate set under the requested operator — so
//! the approximation only ever affects *which* vertices compete, never the
//! scores or the tie-break order of the survivors.
//!
//! Two halves:
//!
//! * [`AnnIndex`] — the immutable artifact published alongside an
//!   embedding snapshot: per band, a dense offsets table and the vertex
//!   ids grouped by signature, two flat allocations per version. Readers
//!   holding an old snapshot keep a consistent index/embedding pair
//!   forever.
//! * [`AnnBuilder`] — the trainer-side maintainer. It keeps the last view
//!   it synced: handed the same `Arc<NormedMat>` again (a publish with no
//!   training since) it returns the previous `Arc<AnnIndex>` without
//!   reading a row. Otherwise it detects the *dirty region*: rows whose
//!   bits differ from the last view's, compared exactly — over the rows the
//!   backend says it re-rendered when it names the view it replaced
//!   ([`AnnBuilder::sync_rows`]), over every row otherwise. A dirty row is
//!   projected through the lane-parallel kernel only once its movements
//!   since its last projection add up to its margin budget, the distance
//!   it can travel without any projection changing sign, rounding included
//!   (`Hyperplanes::margin` derives it). Then only the signatures that
//!   changed are moved: a linear merge per band that has moves, O(n + m log
//!   m). A sync where no signature moved returns the previous index.
//!
//! The exemplar shape is SNIPPETS.md snippets 2–3 (`ATree`, `LayeredLsh`,
//! `DynamicQuery` from the wembed/rembed line of work): a spatial index
//! maintained *dynamically* under a mutating embedding set, queried
//! through the same interface as the brute-force path it replaces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod index;
pub mod lsh;

pub use index::{AnnBuilder, AnnIndex, SyncReport};
pub use lsh::{AnnConfig, Hyperplanes};
