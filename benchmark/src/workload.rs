//! The three workloads: sizes, rates, and the server configuration each
//! boots. Only the graph/stream seed comes from the command line; model and
//! walk RNG seeds are fixed program configuration, as they are for a
//! deployed `seqge serve`.

use seqge_backend::{BackendKind, BackendSpec};
use seqge_core::{OsElmConfig, TrainConfig};
use seqge_sampling::UpdatePolicy;

/// `seqge serve`'s default `--seed`.
const MODEL_SEED: u64 = 42;

/// One workload's shape.
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Nodes.
    pub nodes: usize,
    /// Bootstrap walks per node (`r`); ingest walks are two per event
    /// whatever this is.
    pub walks_per_node: usize,
    /// Training engine.
    pub backend: BackendKind,
    /// Burst events per second of burst budget: the burst phase is a fixed
    /// amount of work (so every count repeats exactly), sized to last about
    /// its share of `--seconds` at the ingest rate measured when the
    /// benchmark was defined.
    pub burst_events_per_s: f64,
    /// Events per burst slice (a multiple of the trainer's 256-event batch).
    pub slice_events: usize,
    /// Churn events generated per second of mixed-phase budget: well above
    /// what the closed-loop writer gets through (it stops early if they
    /// ever run out).
    pub mixed_events_per_s: f64,
    /// Cold boots timed per run; `setup_s` is their median.
    pub setups: usize,
    /// Burst events replayed in-process by the traced run.
    pub trace_events: usize,
}

/// Embedding dimension of every workload.
pub const DIM: usize = 32;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "small_float",
        nodes: 2_000,
        walks_per_node: 10,
        backend: BackendKind::Float,
        burst_events_per_s: 1_280.0,
        slice_events: 512,
        mixed_events_per_s: 1_000.0,
        setups: 3,
        trace_events: 2_048,
    },
    Workload {
        name: "large_float",
        nodes: 50_000,
        walks_per_node: 1,
        backend: BackendKind::Float,
        burst_events_per_s: 320.0,
        slice_events: 256,
        mixed_events_per_s: 100.0,
        setups: 1,
        trace_events: 512,
    },
    Workload {
        name: "small_fpga",
        nodes: 1_000,
        walks_per_node: 2,
        backend: BackendKind::FpgaSim,
        burst_events_per_s: 208.0,
        slice_events: 128,
        mixed_events_per_s: 500.0,
        setups: 3,
        trace_events: 512,
    },
];

/// Toy-sized stand-ins for `--quick`, one per backend.
pub const QUICK: [Workload; 2] = [
    Workload {
        name: "quick_float",
        nodes: 400,
        walks_per_node: 2,
        backend: BackendKind::Float,
        burst_events_per_s: 768.0,
        slice_events: 256,
        mixed_events_per_s: 400.0,
        setups: 1,
        trace_events: 256,
    },
    Workload {
        name: "quick_fpga",
        nodes: 300,
        walks_per_node: 1,
        backend: BackendKind::FpgaSim,
        burst_events_per_s: 384.0,
        slice_events: 128,
        mixed_events_per_s: 200.0,
        setups: 1,
        trace_events: 128,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// What `seqge serve --backend <kind> --dim 32` builds (paper Table 2
    /// hyper-parameters, every-edge negative-table rebuilds, deviation probe
    /// on), except for the bootstrap walk count.
    pub fn spec(&self) -> BackendSpec {
        let mut train = TrainConfig::paper_defaults(DIM);
        train.model.seed = MODEL_SEED;
        train.walk.walks_per_node = self.walks_per_node;
        let oselm = OsElmConfig { model: train.model, ..OsElmConfig::paper_defaults(DIM) };
        BackendSpec::new(self.backend, train, oselm, UpdatePolicy::every_edge(), MODEL_SEED)
    }

    /// Burst events for a burst budget of `seconds`: whole slices, at least
    /// three of them.
    pub fn burst_events(&self, seconds: f64) -> usize {
        let slices = (self.burst_events_per_s * seconds / self.slice_events as f64).round();
        (slices as usize).max(3) * self.slice_events
    }
}
