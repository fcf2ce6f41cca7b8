//! # seqge-backend — pluggable training backends for the serving path
//!
//! The paper's contribution is not the float OS-ELM model — it is Algorithm 2
//! executed as a deferred-Δ fixed-point dataflow kernel with a calibrated
//! cycle model. Until this crate, that kernel lived only in the offline
//! `seqge-fpga` repro; the online server always trained in float. The
//! [`TrainBackend`] trait makes the training engine a *configuration choice*:
//!
//! * [`FloatBackend`] — the float OS-ELM, Algorithm 1
//!   ([`seqge_core::OsElmSkipGram`] driven by
//!   [`seqge_core::IncrementalTrainer`]): the trait methods delegate exactly
//!   the calls a hand-driven model and driver make, in the same order, on
//!   the same RNG stream.
//!
//! Both draw the paper's shared negatives — one set of `ns` per walk, reused
//! for every window (§3.2) — because [`BackendSpec::new`] sets
//! [`NegativeMode::PerWalk`]. An event's two walks therefore write at most
//! `2·(l + ns)` β rows (180 at Table 2's `l = 80`, `ns = 10`), and the
//! publish and the index sync behind it visit no more.
//! * [`FpgaSimBackend`] — the paper's accelerator semantics online: every
//!   walk runs through the Q8.24 functional kernel
//!   ([`seqge_fpga::Accelerator`], deferred Δβ committed per walk, cycle
//!   accounting per walk), the cycle model doubles as a live throughput
//!   planner ([`CyclePlan`]), a float shadow trained on the same
//!   walks/negatives in the boot window and one publish window in
//!   [`fpga_sim::SHADOW_EVERY`] after it measures the Fig. 4-style accuracy
//!   deviation as a live metric, and the kernel's saturation count is
//!   exported on every walk.
//!
//! Both keep their float serving view in one [`ViewBuffer`]: a publish
//! re-renders only the rows the kernel wrote since the last one (the
//! host-side analogue of the accelerator's batched DRAM write-back), into
//! the view it replaced once no reader holds that one, and
//! [`TrainBackend::last_delta`] names those rows so the index sync behind
//! the publish visits them alone.
//!
//! The contract every backend must honor (the serve/WAL planes rely on it):
//!
//! 1. **Deterministic replay** — a backend restored from [`save_state`] bytes
//!    and fed the same event sequence produces bit-identical state. For the
//!    float backend the state is (β, P) in f32; for fpga-sim it is the *raw
//!    Q8.24 words* (an f32 round-trip would not be bit-faithful).
//! 2. **Publish-view purity** — [`publish_view`] returns the current
//!    embedding without changing training state (it may flush caches).
//! 3. **No training between two [`publish_view`]s means the same `Arc`** —
//!    a publish with nothing trained since the last one (a flush barrier)
//!    hands out the very view it handed out before, so the index sync and
//!    the snapshot behind it cost a pointer compare, not a matrix.
//!
//! [`save_state`]: TrainBackend::save_state
//! [`publish_view`]: TrainBackend::publish_view

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fixedstate;
pub mod float;
pub mod fpga_sim;
pub mod view;

use seqge_core::{persist, NegativeMode, OsElmConfig, SeqOutcome, TrainConfig};
use seqge_graph::{EdgeEvent, Graph, GraphError, NodeId};
use seqge_linalg::NormedMat;
use seqge_sampling::UpdatePolicy;
use std::io;
use std::path::Path;
use std::sync::Arc;

pub use float::FloatBackend;
pub use fpga_sim::FpgaSimBackend;
pub use view::ViewBuffer;

/// Which training engine a server runs. The wire `stats` reply and
/// `cluster_status` carry the name so operators can see what a node is
/// actually running, and the cluster router asserts homogeneity across
/// shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum BackendKind {
    /// Float OS-ELM (`OsElmSkipGram`, Algorithm 1 over shared per-walk
    /// negatives), the serving default.
    Float,
    /// Fixed-point deferred-Δ accelerator semantics (`seqge-fpga` kernel).
    FpgaSim,
}

impl BackendKind {
    /// The CLI / wire spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            BackendKind::Float => "float",
            BackendKind::FpgaSim => "fpga-sim",
        }
    }

    /// Parses the CLI spelling (`float` | `fpga-sim`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "float" => Ok(BackendKind::Float),
            "fpga-sim" => Ok(BackendKind::FpgaSim),
            other => Err(format!("unknown backend `{other}` (expected `float` or `fpga-sim`)")),
        }
    }

    /// [`Self::as_str`] for a boot log line: fpga-sim adds which instantiation
    /// of the Q8.24 kernel this host's CPU selects (`fpga-sim/avx2`,
    /// `fpga-sim/baseline`), since that sets its ingest rate. Log-only — both
    /// train the same bits, so it is no part of [`TrainBackend::descriptor`],
    /// which a cluster compares across nodes.
    pub fn boot_label(&self) -> String {
        match self {
            BackendKind::Float => self.as_str().to_string(),
            BackendKind::FpgaSim => format!("{}/{}", self.as_str(), seqge_fpga::kernel_isa()),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The live throughput plan derived from the accelerator's cycle model: what
/// ingest rate the modeled hardware *should* sustain at
/// [`seqge_fpga::CLOCK_MHZ`], to compare against what the server measures.
/// Float backends have no cycle model and return `None` from
/// [`TrainBackend::planner`].
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CyclePlan {
    /// Modeled PL cycles accumulated so far.
    pub cycles_total: u64,
    /// Walks priced into `cycles_total`.
    pub walks: u64,
    /// Modeled mean per-walk latency in microseconds.
    pub predicted_walk_us: f64,
    /// Predicted sustainable ingest rate in edge events/s: each event
    /// restarts a walk from both endpoints (§4.3.2), so one event costs two
    /// modeled walks.
    pub predicted_ingest_eps: f64,
}

impl CyclePlan {
    /// Builds a plan from accumulated cycle telemetry.
    pub fn from_cycles(cycles_total: u64, walks: u64) -> CyclePlan {
        let (predicted_walk_us, predicted_ingest_eps) = if walks == 0 {
            (0.0, 0.0)
        } else {
            let walk_us = seqge_fpga::cycles_to_millis(cycles_total) * 1e3 / walks as f64;
            (walk_us, 1e6 / (walk_us * 2.0))
        };
        CyclePlan { cycles_total, walks, predicted_walk_us, predicted_ingest_eps }
    }
}

/// A training engine the serve plane can drive. One instance owns both the
/// model state and the sequential-training driver (walker, RNG, corpus,
/// negative table); see the crate docs for the replay contract.
pub trait TrainBackend: Send {
    /// Which engine this is.
    fn kind(&self) -> BackendKind;

    /// Name + key parameters as one compact JSON object (embedded verbatim
    /// in the wire `stats` reply and `cluster_status`).
    fn descriptor(&self) -> String;

    /// Node capacity of the model.
    fn num_nodes(&self) -> usize;

    /// Full "all"-protocol pass over the boot graph (start-up only).
    fn bootstrap(&mut self, g: &Graph);

    /// Applies one edge event: mutate the graph, restart a walk from both
    /// endpoints, train. Returns walks trained or the graph's rejection with
    /// all state untouched.
    fn ingest(&mut self, g: &mut Graph, event: EdgeEvent) -> Result<usize, GraphError>;

    /// Full corpus resample + retrain (the drift arm). Returns walks trained.
    fn refresh(&mut self, g: &Graph) -> usize;

    /// The current embedding for publication, shared: the backend keeps the
    /// `Arc` it hands out and returns the same one until training changes a
    /// row (contract item 3). Renders the rows training wrote since the last
    /// call (fpga-sim re-dequantizes them — the Δ-batch application that
    /// amortizes per-walk cost) but must not advance training state.
    fn publish_view(&mut self) -> Arc<NormedMat>;

    /// The view the last [`TrainBackend::publish_view`] that changed a row
    /// replaced, and the rows it re-rendered, ascending: outside those rows
    /// that view and the current one hold the same bits, so an index synced
    /// on the replaced view only has to visit them
    /// (`seqge_ann::AnnBuilder::sync_rows`). `None` when the backend keeps
    /// no such record; the sync then compares every row.
    fn last_delta(&self) -> Option<(&Arc<NormedMat>, &[NodeId])> {
        None
    }

    /// Training telemetry so far.
    fn outcome(&self) -> SeqOutcome;

    /// Edges retracted so far.
    fn edges_removed(&self) -> usize;

    /// Persists the model state (everything deterministic replay needs).
    fn save_state(&self, path: &Path) -> io::Result<()>;

    /// The cycle-model throughput plan, if this backend has one.
    fn planner(&self) -> Option<CyclePlan> {
        None
    }

    /// Latest measured float-vs-fixed embedding deviation in parts-per-
    /// million (refreshed by the [`TrainBackend::publish_view`] that closes
    /// a shadowed window), if this backend runs a float shadow.
    fn deviation_ppm(&self) -> Option<i64> {
        None
    }

    /// Fixed-point saturation events the kernel has counted on write-back
    /// since this backend was built — on every walk, not only in shadowed
    /// windows — if this backend has a fixed-point kernel.
    fn saturations(&self) -> Option<u64> {
        None
    }
}

/// Everything needed to construct a backend — cold, or over a persisted
/// snapshot during WAL recovery. The spec (not a live backend) is what boot
/// paths and replay carry around, because recovery may need to build the
/// backend several times (verify-replay builds two).
#[derive(Debug, Clone)]
pub struct BackendSpec {
    /// Which engine to build.
    pub kind: BackendKind,
    /// Walk + model hyper-parameters for the sequential driver.
    pub train: TrainConfig,
    /// OS-ELM hyper-parameters for the model.
    pub oselm: OsElmConfig,
    /// Negative-table rebuild cadence.
    pub policy: UpdatePolicy,
    /// Walk/negative RNG seed.
    pub seed: u64,
}

impl BackendSpec {
    /// A spec for `kind`. Every serving engine draws the paper's shared
    /// negatives — one set of `ns` per walk, reused for every window (§3.2,
    /// after Ji et al. \[10\]) — so both `train.model` and `oselm.model` get
    /// [`NegativeMode::PerWalk`] whatever the caller passed. One event then
    /// writes at most `2·(l + ns)` β rows. A persisted store keeps the rule
    /// in its own config, so a store written under another rule recovers and
    /// replays under that one ([`BackendSpec::load`]).
    pub fn new(
        kind: BackendKind,
        mut train: TrainConfig,
        mut oselm: OsElmConfig,
        policy: UpdatePolicy,
        seed: u64,
    ) -> BackendSpec {
        train.model.negative_mode = NegativeMode::PerWalk;
        oselm.model.negative_mode = NegativeMode::PerWalk;
        BackendSpec { kind, train, oselm, policy, seed }
    }

    /// Shorthand for the float engine (the pre-refactor serving default).
    pub fn float(
        train: TrainConfig,
        oselm: OsElmConfig,
        policy: UpdatePolicy,
        seed: u64,
    ) -> BackendSpec {
        BackendSpec::new(BackendKind::Float, train, oselm, policy, seed)
    }

    /// Refuses a spec no backend can be built from: the walk and model
    /// ranges of [`TrainConfig::validate`] and [`OsElmConfig::validate`]
    /// (a zero dimension among them), and for fpga-sim a dimension with no
    /// accelerator build ([`seqge_fpga::Build::for_dim`]). Boot paths call
    /// it before they build anything, so bad flags are an
    /// [`io::ErrorKind::InvalidInput`] error, not a panic inside a model.
    pub fn validate(&self) -> io::Result<()> {
        let invalid = |e: String| io::Error::new(io::ErrorKind::InvalidInput, e);
        self.train.validate().map_err(invalid)?;
        self.oselm.validate().map_err(invalid)?;
        if self.kind == BackendKind::FpgaSim {
            seqge_fpga::Build::for_dim(self.oselm.model.dim).map_err(invalid)?;
        }
        Ok(())
    }

    /// Builds a cold (untrained) backend over `num_nodes` nodes.
    pub fn cold(&self, num_nodes: usize) -> Box<dyn TrainBackend> {
        match self.kind {
            BackendKind::Float => Box::new(FloatBackend::cold(num_nodes, self)),
            BackendKind::FpgaSim => Box::new(FpgaSimBackend::cold(num_nodes, self)),
        }
    }

    /// Builds a backend over a persisted model snapshot with a *fresh*
    /// sequential driver (WAL replay semantics: the corpus is rebuilt by the
    /// replayed events, exactly as the pre-refactor float path did). The
    /// snapshot's kind byte must match `self.kind` — booting `--backend
    /// float` over an fpga-sim store (or vice versa) is refused loudly
    /// rather than silently retrained.
    pub fn load(&self, path: &Path) -> io::Result<Box<dyn TrainBackend>> {
        let kind = fixedstate::sniff_kind(path)?;
        let found = match kind {
            persist::KIND_OSELM => BackendKind::Float,
            persist::KIND_FIXED => BackendKind::FpgaSim,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("model snapshot has unsupported payload kind {other}"),
                ))
            }
        };
        if found != self.kind {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "model snapshot was written by the `{found}` backend, \
                     but this server is configured for `{}`",
                    self.kind
                ),
            ));
        }
        match self.kind {
            BackendKind::Float => Ok(Box::new(FloatBackend::load(path, self)?)),
            BackendKind::FpgaSim => Ok(Box::new(FpgaSimBackend::load(path, self)?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_spec_serves_shared_per_walk_negatives() {
        let mut train = TrainConfig::paper_defaults(8);
        train.model.negative_mode = NegativeMode::PerPosition;
        let oselm = OsElmConfig { model: train.model, ..OsElmConfig::paper_defaults(8) };
        for kind in [BackendKind::Float, BackendKind::FpgaSim] {
            let spec = BackendSpec::new(kind, train, oselm, UpdatePolicy::every_edge(), 1);
            assert_eq!(spec.train.model.negative_mode, NegativeMode::PerWalk, "{kind}");
            assert_eq!(spec.oselm.model.negative_mode, NegativeMode::PerWalk, "{kind}");
        }
    }

    #[test]
    fn backend_kinds_parse_only_their_documented_spelling() {
        for kind in [BackendKind::Float, BackendKind::FpgaSim] {
            assert_eq!(BackendKind::parse(kind.as_str()), Ok(kind));
        }
        for other in ["fpga_sim", "fpgasim", "Float", ""] {
            let err = BackendKind::parse(other).unwrap_err();
            assert!(err.contains("expected `float` or `fpga-sim`"), "{other}: {err}");
        }
    }
}
