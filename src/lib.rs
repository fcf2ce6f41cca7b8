//! # seqge — Sequential Graph Embedding, reproduced in Rust
//!
//! Facade crate re-exporting the whole workspace. See the README for a
//! guided tour and `examples/` for runnable entry points.
//!
//! * [`graph`] — dynamic graphs, CSR snapshots, synthetic labelled datasets.
//! * [`sampling`] — node2vec random walks, Walker alias tables, negative sampling.
//! * [`linalg`] — small dense linear algebra for the OS-ELM updates.
//! * [`fixed`] — Q-format fixed-point arithmetic (the FPGA's number format).
//! * [`core`] — the paper's models: SGD skip-gram baseline, OS-ELM skip-gram
//!   (Algorithm 1), and the dataflow-optimized variant (Algorithm 2).
//! * [`fpga`] — cycle-approximate simulator of the ZCU104 accelerator.
//! * [`obs`] — zero-dependency metrics registry, span timers, and the
//!   structured JSONL logger shared by every runtime component.
//! * [`eval`] — one-vs-rest logistic regression and F1 scoring.
//! * [`backend`] — pluggable training backends behind the serve plane:
//!   the float OS-ELM pipeline and the fixed-point fpga-sim kernel behind
//!   one `TrainBackend` trait, with cycle-model planning, a float shadow
//!   that samples fpga-sim's accuracy deviation one publish window in
//!   eight, and the kernel's saturation count on every walk.
//! * [`serve`] — online embedding service: live edge ingestion, incremental
//!   sequential training, lock-free snapshot queries over TCP.
//! * [`ann`] — incremental LSH index behind the serve plane's sublinear
//!   `topk mode:"ann"` path, versioned with each published snapshot.
//! * [`cluster`] — sharded, replicated serving: hash-partitioned shard
//!   plane, scatter-gather router, WAL-fed read replicas.
//! * [`mod@bench`] — shared benchmark plumbing: scaled streamed-SBM edge
//!   synthesis, clustered embedding geometry, JSON report writing.
//! * [`loadgen`] — mixed-traffic load generator: Zipf-skewed op mixes,
//!   pluggable arrival processes, the phased scenario matrix, and SLO
//!   accounting split by steady-vs-fault window.

pub use seqge_ann as ann;
pub use seqge_backend as backend;
pub use seqge_bench as bench;
pub use seqge_cluster as cluster;
pub use seqge_core as core;
pub use seqge_eval as eval;
pub use seqge_fixed as fixed;
pub use seqge_fpga as fpga;
pub use seqge_graph as graph;
pub use seqge_linalg as linalg;
pub use seqge_loadgen as loadgen;
pub use seqge_obs as obs;
pub use seqge_sampling as sampling;
pub use seqge_serve as serve;
