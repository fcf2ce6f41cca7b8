//! # seqge-cluster — sharded, replicated embedding serving
//!
//! Scales the single-node `seqge-serve` daemon out: the vertex space is
//! hash-partitioned (plain modulo, see [`partition`]) across N
//! independent serve engines, each with its own WAL directory and
//! trainer thread, behind one scatter-gather [`router`] that speaks the
//! exact same line-delimited JSON protocol — a serve [`seqge_serve::Client`]
//! pointed at the router works unchanged.
//!
//! * **Shard plane** ([`shard`], [`cluster`]) — engines run in-process
//!   (`seqge cluster`) or as spawned `shardd` children (the e2e tests
//!   kill -9 them). Every edge has exactly one owner (the min endpoint's
//!   shard — orientation-invariant, the edge being undirected), so added
//!   shards divide the training work. Shards are **share-nothing**: an
//!   engine knows no shard id, shard count or peer directory, and its
//!   model is a pure function of its own event stream.
//! * **Router** ([`router`]) — consistent write routing by ownership;
//!   `topk`/`stats` scatter-gather with per-shard deadlines and partial-
//!   result degradation (`"degraded": true` + the missing-shard list);
//!   unreachable-shard writes answer `overloaded`, which the serve
//!   client retries with the same `WriteId` so the shard that did ack
//!   dedups the resend.
//! * **Replication & health** ([`replica`], [`cluster`]) — optional read
//!   replicas fed by streaming the shard WAL (the replay construction is
//!   the recovery path, so a replica is bit-identical to its primary at
//!   every applied sequence number), plus a health loop that respawns
//!   crashed child shards; WAL recovery inside the new process restores
//!   the pre-crash state bit for bit.
//!
//! Pure `std` like the rest of the workspace: no async runtime, no
//! external service dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod partition;
pub mod replica;
pub mod router;
pub mod shard;

pub use cluster::{Backend, Cluster, ClusterConfig};
pub use partition::{edge_owner, owner, shard_subgraph};
pub use replica::{Replica, ReplicaConfig};
pub use router::{start_router, ReplicaView, RouterConfig, RouterHandle};
pub use shard::{ChildShard, ChildSpec, ShardInfo, ShardTable};
