//! The fpga-sim backend: the paper's deferred-Δ fixed-point accelerator
//! semantics on the serving path.
//!
//! Every walk the sequential driver produces is trained through the Q8.24
//! functional kernel ([`Accelerator`]) — deferred Δβ committed once per walk
//! (Algorithm 2 line 20), cycle accounting per walk. The dequantized float
//! serving view is **not** maintained per walk: the kernel tracks which β
//! rows each walk's commit dirtied, and [`TrainBackend::publish_view`]
//! re-dequantizes only those rows into the backend's [`ViewBuffer`] — the
//! host-side analogue of the accelerator's batched DRAM write-back,
//! amortizing the per-walk cost across a publish batch exactly as the
//! hardware does. A publish with no row dirty hands out the same `Arc`
//! again.
//!
//! Two live by-products:
//!
//! * **Cycle planner** — the calibrated per-walk cycle model accumulates
//!   into [`CyclePlan`]: predicted sustainable ingest rate at the paper's
//!   clock, exported next to the measured rate so capacity headroom is a
//!   metric, not a guess.
//! * **Deviation probe** (Fig. 4 live) — during a *shadowed* publish window
//!   a float [`DataflowOsElm`] shadow trains on the *same walks and negative
//!   draws* (it consumes a cloned RNG, so the accelerator's stream — and
//!   replay bit-identity — is untouched), and the publish closing the window
//!   measures the fixed-vs-float embedding deviation in ppm. A window runs
//!   from one publish that trained walks to the next; the shadow starts at
//!   the window's opening publish from the dequantized fixed-point state,
//!   because two numeric trajectories run chaotically apart over thousands
//!   of events however correct both are (tiny rounding differences compound
//!   through P), so only the *per-window* drift is actionable: it stays in
//!   the ppm band Fig. 4 implies, and a wrong quantization scale blows it up
//!   immediately — which is what `tests/parity.rs` puts a ceiling on.
//!
//!   Window 0 — from construction to the first publish that trained walks,
//!   so bootstrap, WAL replay or a loaded snapshot — is always shadowed;
//!   after it, one window in [`SHADOW_EVERY`]. The rest run the accelerator
//!   alone. A sampled window starts from the state the always-on shadow
//!   re-synced to at the same publish and draws the same cloned RNG, so each
//!   value reported is the one an always-on probe reports there; between
//!   samples the last one holds. Saturation storms, which the shadow would
//!   see up to seven windows late, are counted by the kernel on every walk
//!   instead ([`TrainBackend::saturations`]).

use crate::{BackendKind, CyclePlan, TrainBackend, ViewBuffer};
use seqge_core::model::EmbeddingModel;
use seqge_core::{DataflowOsElm, IncrementalTrainer, SeqOutcome};
use seqge_fpga::{Accelerator, CLOCK_MHZ};
use seqge_graph::{EdgeEvent, Graph, GraphError, NodeId};
use seqge_linalg::Mat;
use seqge_sampling::{NegativeTable, Rng64};
use std::io;
use std::path::Path;
use std::sync::Arc;

/// One publish window in this many (after the always-shadowed window 0)
/// trains the float shadow.
pub const SHADOW_EVERY: u64 = 8;

/// The accelerator plus its float shadow, presented to the sequential driver
/// as one [`EmbeddingModel`]: the driver stays unaware that a shadowed
/// window's walks are trained twice.
struct ProbeModel {
    accel: Accelerator,
    /// `Some` only during a shadowed publish window.
    shadow: Option<DataflowOsElm>,
}

/// A shadowed window's shadow, started from the accelerator's dequantized
/// state at the publish that opens the window. It runs the accelerator's own
/// (PerWalk-forced) config, so both consume the identical negative-draw
/// schedule.
fn shadow_of(accel: &Accelerator) -> DataflowOsElm {
    DataflowOsElm::from_parts(*accel.config(), accel.beta_f32(), accel.p_f32())
}

impl EmbeddingModel for ProbeModel {
    fn train_walk(&mut self, walk: &[NodeId], negatives: &NegativeTable, rng: &mut Rng64) {
        let Some(shadow) = &mut self.shadow else {
            return self.accel.train_walk(walk, negatives, rng);
        };
        // The shadow replays the identical draw schedule from a clone; the
        // real stream advances exactly as it would on a bare accelerator.
        let mut shadow_rng = rng.clone();
        self.accel.train_walk(walk, negatives, rng);
        shadow.train_walk(walk, negatives, &mut shadow_rng);
    }

    fn embedding(&self) -> Mat<f32> {
        self.accel.embedding()
    }

    fn num_nodes(&self) -> usize {
        self.accel.num_nodes()
    }

    fn dim(&self) -> usize {
        self.accel.dim()
    }

    fn model_bytes(&self) -> usize {
        self.accel.model_bytes()
    }

    fn name(&self) -> &'static str {
        "fpga-sim"
    }
}

/// Fixed-point deferred-Δ training behind the serving trait.
pub struct FpgaSimBackend {
    probe: ProbeModel,
    inc: IncrementalTrainer,
    /// The dequantized serving view, shared with the snapshots published
    /// from it.
    view: ViewBuffer,
    deviation_ppm: Option<i64>,
    /// Index of the current publish window (0 from construction).
    window: u64,
    /// Kernel walk count at the publish that opened the current window: a
    /// publish with no walks trained since (flush barriers publish freely)
    /// neither closes it nor opens another.
    window_walks: u64,
    seed: u64,
}

/// Fixed-vs-float mean absolute embedding deviation, normalized by the
/// float magnitude, in parts-per-million.
fn deviation_ppm(fixed: &Mat<f32>, float: &Mat<f32>) -> i64 {
    let mut num = 0f64;
    let mut den = 0f64;
    for (a, b) in fixed.as_slice().iter().zip(float.as_slice()) {
        num += (a - b).abs() as f64;
        den += b.abs() as f64;
    }
    if den <= f64::EPSILON {
        return 0;
    }
    (num / den * 1e6).round() as i64
}

impl FpgaSimBackend {
    fn assemble(accel: Accelerator, spec: &crate::BackendSpec) -> FpgaSimBackend {
        let shadow = Some(shadow_of(&accel));
        let inc = IncrementalTrainer::new(accel.num_nodes(), &spec.train, spec.policy, spec.seed);
        let window_walks = accel.stats.walks;
        FpgaSimBackend {
            view: ViewBuffer::new(accel.num_nodes(), accel.dim()),
            probe: ProbeModel { accel, shadow },
            inc,
            deviation_ppm: None,
            window: 0,
            window_walks,
            seed: spec.seed,
        }
    }

    /// Cold (untrained) engine over `num_nodes` nodes. The accelerator
    /// quantizes the same float init the CPU models use, and the window-0
    /// shadow starts from the accelerator's dequantized state, so the first
    /// deviation measurement covers exactly the walks up to that publish.
    pub fn cold(num_nodes: usize, spec: &crate::BackendSpec) -> FpgaSimBackend {
        FpgaSimBackend::assemble(Accelerator::new(num_nodes, spec.oselm), spec)
    }

    /// Engine over a persisted kind-3 snapshot (raw Q8.24 words) with a
    /// fresh sequential driver (WAL replay semantics). The window-0 shadow
    /// starts from the restored fixed-point state.
    pub fn load(path: &Path, spec: &crate::BackendSpec) -> io::Result<FpgaSimBackend> {
        Ok(FpgaSimBackend::assemble(crate::fixedstate::load_fixed(path)?, spec))
    }

    /// The wrapped accelerator (tests and benches: cycle stats, raw state).
    pub fn accel(&self) -> &Accelerator {
        &self.probe.accel
    }
}

impl TrainBackend for FpgaSimBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::FpgaSim
    }

    fn descriptor(&self) -> String {
        let cfg = self.probe.accel.config();
        format!(
            "{{\"name\":\"fpga-sim\",\"dim\":{},\"seed\":{},\"mu\":{},\"forgetting\":{},\
             \"clock_mhz\":{CLOCK_MHZ}}}",
            cfg.model.dim, self.seed, cfg.mu, cfg.forgetting
        )
    }

    fn num_nodes(&self) -> usize {
        self.probe.accel.num_nodes()
    }

    fn bootstrap(&mut self, g: &Graph) {
        self.inc.bootstrap(g, &mut self.probe);
    }

    fn ingest(&mut self, g: &mut Graph, event: EdgeEvent) -> Result<usize, GraphError> {
        self.inc.ingest(g, event, &mut self.probe)
    }

    fn refresh(&mut self, g: &Graph) -> usize {
        self.inc.refresh(g, &mut self.probe)
    }

    fn publish_view(&mut self) -> Arc<Mat<f32>> {
        // The Δ-batch application: only rows committed since the last
        // publish are re-dequantized.
        let dirty = self.probe.accel.take_dirty();
        let accel = &self.probe.accel;
        let view = self.view.publish(dirty, |row, out| accel.embed_row(row, out));
        // A publish that trained walks closes the current window (measuring
        // it if it was shadowed) and opens the next (with a fresh shadow
        // one window in SHADOW_EVERY); see module docs. Walk-free publishes
        // (flush barriers) keep the last measurement.
        if self.probe.accel.stats.walks > self.window_walks {
            if let Some(shadow) = self.probe.shadow.take() {
                self.deviation_ppm = Some(deviation_ppm(&view, &shadow.embedding()));
            }
            self.window += 1;
            self.window_walks = self.probe.accel.stats.walks;
            if self.window.is_multiple_of(SHADOW_EVERY) {
                self.probe.shadow = Some(shadow_of(&self.probe.accel));
            }
        }
        view
    }

    fn last_delta(&self) -> Option<(&Arc<Mat<f32>>, &[NodeId])> {
        self.view.last_delta()
    }

    fn outcome(&self) -> SeqOutcome {
        self.inc.outcome()
    }

    fn edges_removed(&self) -> usize {
        self.inc.edges_removed()
    }

    fn save_state(&self, path: &Path) -> io::Result<()> {
        crate::fixedstate::save_fixed(&self.probe.accel, path)
    }

    fn planner(&self) -> Option<CyclePlan> {
        let s = &self.probe.accel.stats;
        Some(CyclePlan::from_cycles(s.cycles, s.walks))
    }

    fn deviation_ppm(&self) -> Option<i64> {
        self.deviation_ppm
    }

    fn saturations(&self) -> Option<u64> {
        Some(self.probe.accel.stats.saturations)
    }
}
