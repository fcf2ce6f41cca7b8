//! # seqge-sampling — node2vec walks and weighted sampling
//!
//! Everything between "a graph" and "a stream of training samples":
//!
//! * [`rng`] — a small, seeded, cross-platform-deterministic xoshiro256**
//!   generator for the hot sampling loops (the walk kernel calls it several
//!   times per step; determinism per seed is what makes the experiment
//!   harness reproducible).
//! * [`alias`] — Walker's alias method: O(n) table build, O(1) sampling.
//!   The paper uses it for negative sampling and studies how often the table
//!   should be rebuilt as the graph grows (Fig. 7).
//! * [`walk`] — the second-order biased random walk of node2vec (Eq. 1–2:
//!   return parameter `p`, in-out parameter `q`), plus a rejection-sampling
//!   variant used as a baseline in the benches.
//! * [`window`] — slicing a walk into (center, positives) training contexts.
//! * [`corpus`] — walk accumulation, node-frequency bookkeeping, and a
//!   bounded tail of the most recent appearances.
//! * [`negative`] — the negative-sampling table with its update policy: an
//!   alias table frozen at its last full build plus a log of the appearances
//!   recorded since, exact at every policy tick without the O(n) rebuild.
//! * [`pipeline`] — overlapped walk generation: walker threads feed a
//!   consumer in deterministic walk-index order over bounded channels.

#![forbid(unsafe_code)]

pub mod alias;
pub mod corpus;
pub mod negative;
pub mod pipeline;
pub mod rng;
pub mod walk;
pub mod window;

pub use alias::AliasTable;
pub use corpus::{generate_corpus, WalkCorpus};
pub use negative::{NegativeTable, UpdatePolicy};
pub use pipeline::{generate_corpus_pipelined, stream_walks, PipelineConfig, PipelineStats};
pub use rng::{stream_seed, Rng64};
pub use walk::{Node2VecParams, StepStrategy, WalkGraph, Walker};
pub use window::{context_windows, contexts, Context, ContextWindows};
