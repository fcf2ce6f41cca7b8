//! `seqge-loadgen` — mixed-traffic load generator for the serve protocol.
//!
//! Production readiness claims ("the serving plane sheds load instead of
//! collapsing", "replica fallback keeps reads available through a shard
//! loss") are only as good as the traffic they were tested under. This
//! crate is the workload side of that argument: a closed- and open-loop
//! driver that speaks the line protocol over N concurrent connections
//! against a single `seqge serve` listener or the cluster router, with an
//! accounting plane that splits every outcome by steady-vs-fault window.
//!
//! The pieces:
//!
//! * [`zipf`] — allocation-free rejection-inversion Zipf sampler: reads
//!   concentrate on hot vertices like real traffic does.
//! * [`workload`] — op mixes over the six workload ops, rendered as
//!   protocol lines with correct write-dedup identities.
//! * [`arrival`] — closed, fixed-rate, Poisson, and on/off bursty arrival
//!   processes, materialized as offsets to dodge coordinated omission.
//! * [`scenario`] — the named scenario matrix (`hot_read`, `edge_churn`,
//!   `deletion_storm`, `drift_replay`) as phased schedules, deterministic
//!   under `--seed` with an FNV-1a schedule hash as the witness.
//! * [`slo`] — per-op p99 targets and the error budget.
//! * [`report`] — reply classification (`ok` / `degraded` / `shed` /
//!   `hard_error` / `transport`) via the protocol `code` field, per-op
//!   log-histogram latency, and the JSON run report `seqge loadgen --json`
//!   writes.
//! * [`driver`] — the connection fleet: phase barriers, reconnects,
//!   flush points, aggregation.
//!
//! Everything upstream of the socket is deterministic: two runs with the
//! same `(scenario, nodes, connections, seed, scale)` issue bit-identical
//! request streams (witnessed by `schedule_hash`); only latencies and
//! server-side outcomes differ.

#![forbid(unsafe_code)]

pub mod arrival;
pub mod driver;
pub mod report;
pub mod scenario;
pub mod slo;
pub mod workload;
pub mod zipf;

pub use arrival::Arrival;
pub use driver::{materialize, probe_backend, probe_nodes, run, LoadOpts};
pub use report::{classify, Accounting, Outcome, Report};
pub use scenario::{builtin, names, schedule, schedule_hash, ConnSchedule, Scenario};
pub use slo::Slo;
pub use workload::{OpMix, WireOp, WorkloadGen, OP_LABELS};
pub use zipf::Zipf;
