//! # seqge-serve — online graph-embedding service
//!
//! The deployment story the paper motivates: OS-ELM skip-gram is
//! *sequentially trainable*, so a long-lived process can absorb dynamic-
//! graph updates without batch retraining. This crate is that process — a
//! pure-`std` daemon (no async runtime; `std::net` + a hand-rolled worker
//! pool) with two planes over one line-delimited JSON protocol:
//!
//! * **write plane** — `add_edge` / `remove_edge` events are queued to a
//!   dedicated trainer thread, batched, and folded into the model through a
//!   pluggable [`seqge_backend::TrainBackend`] (float OS-ELM or the
//!   fixed-point fpga-sim kernel; walks restarted from both endpoints of
//!   each event, §4.3.2), with an optional full-corpus resample cadence for
//!   heavy drift;
//! * **read plane** — `get_embedding`, `topk`, and `score_link` (reusing
//!   `seqge-eval`'s link-prediction operators) answered from an immutable
//!   [`snapshot::EmbeddingSnapshot`] republished after every batch, so no
//!   query ever blocks on a training step;
//!
//! plus `snapshot` / `restore` commands backed by `seqge_core::persist`
//! for crash recovery: a restored server resumes with bit-identical β/P.
//!
//! Crash safety (this PR): the [`wal`] module adds a write-ahead log so
//! every *acknowledged* write survives kill -9 — appended and checksummed
//! before the trainer sees it, replayed over the snapshot at boot. The
//! [`fault`] module injects deterministic failures (torn writes, dropped
//! connections, trainer panics) for the chaos suite, and both client and
//! server grew deadlines, bounded retries, write dedup, and read-shedding
//! backpressure around it.
//!
//! Modules: [`protocol`] (wire grammar), [`snapshot`] (read-optimized
//! state + publication cell), [`trainer`] (write plane), [`server`] (TCP
//! front end), [`client`] (scriptable reference client), [`wal`]
//! (durability), [`fault`] (failure injection), [`dedup`] (bounded
//! retry-dedup table), [`ready`] (port-0 readiness handshake for spawned
//! daemons).

#![warn(missing_docs)]

pub mod client;
pub mod dedup;
pub mod fault;
pub mod protocol;
pub mod ready;
pub mod server;
pub mod snapshot;
pub mod trainer;
pub mod wal;

pub use client::{Client, ClientConfig};
pub use dedup::DedupTable;
pub use fault::{FaultInjector, FaultPoint};
pub use protocol::{
    attach_trace, parse_request, parse_request_traced, Request, Response, TopKMode, WriteId,
    CODE_DEGRADED, CODE_OVERLOADED, DEFAULT_PROBES, MAX_LINE_BYTES,
};
pub use server::{boot_restore_spec, boot_wal, start_backend, ServeConfig, ServerHandle};
pub use snapshot::{AnnTopK, EmbeddingSnapshot, SnapshotCell, SnapshotReader};
pub use trainer::{ServeStats, Trainer, TrainerConfig, TrainerMsg};
pub use wal::{FsyncPolicy, RecoveryReport, Wal, WalBoot, WalConfig};
