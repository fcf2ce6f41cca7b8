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
//!   query ever blocks on a training step.
//!
//! A durable node is a WAL store ([`wal`]): every *acknowledged* write is
//! appended and checksummed before the trainer sees it, `snapshot` (and a
//! graceful shutdown) commits a generation and rotates the log, and a boot
//! replays the log over the last generation through the same [`fold`] step
//! the live trainer runs — so a recovered server is bit-identical to one
//! that never crashed. A server started without a store is ephemeral. The
//! [`fault`] module injects deterministic failures (torn writes, dropped
//! connections, trainer panics) for the chaos suite; client and server
//! carry deadlines, bounded retries, write dedup, and read-shedding
//! backpressure around it.
//!
//! Modules: [`protocol`] (wire grammar), [`snapshot`] (read-optimized
//! state + publication cell), [`fold`] (the one event-apply rule),
//! [`trainer`] (write plane), [`front`] (the line-protocol front end the
//! node and the cluster router share), [`server`] (the node), [`node`] (the one
//! boot path of a durable node, and the shard daemons' `main`), [`client`]
//! (scriptable reference client), [`wal`] (durability), [`fault`] (failure
//! injection), [`dedup`] (bounded retry-dedup table), [`ready`] (port-0
//! readiness handshake for spawned daemons).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod dedup;
pub mod fault;
pub mod fold;
pub mod front;
pub mod node;
pub mod protocol;
pub mod ready;
pub mod server;
pub mod snapshot;
pub mod trainer;
pub mod wal;

pub use client::{Client, ClientConfig};
pub use dedup::DedupTable;
pub use fault::{FaultInjector, FaultPoint};
pub use fold::{Applied, Fold, Step};
pub use node::{daemon_main, shard_spec, start_node};
pub use protocol::{
    attach_trace, parse_request, parse_request_traced, Request, Response, TopKMode, WriteId,
    CODE_DEGRADED, CODE_OVERLOADED, DEFAULT_PROBES, MAX_LINE_BYTES,
};
pub use server::{boot_wal, start_backend, ServeConfig, ServerHandle};
pub use snapshot::{AnnTopK, EmbeddingSnapshot, SnapshotCell, SnapshotReader};
pub use trainer::{ServeStats, Trainer, TrainerMsg};
pub use wal::{FsyncPolicy, RecoveryReport, Wal, WalBoot, WalConfig};
