//! Algorithm 2: the dataflow-optimized variant.
//!
//! Algorithm 1 carries a loop dependency — each context reads the `P` and
//! `β` the previous context wrote — which blocks pipelining the four stages
//! of the FPGA kernel. Algorithm 2 accumulates the updates into `ΔP` and
//! `Δβ` and commits both to main memory once per walk (lines 19–20).
//!
//! How *visible* the in-flight `ΔP` is to stage 2 is a modeling choice with
//! teeth (see DESIGN.md §1 "Faithfulness notes"): if stage 2 reads the
//! walk-entry `P` for all 73 contexts, repeated walk directions apply up to
//! 73 downdates sized against the same stale `P` — the accumulated downdate
//! overshoots, `P` goes indefinite, and training diverges (we verified this
//! numerically; the overshoot is catastrophic on small dense graphs). The
//! hardware keeps `ΔP` in on-chip accumulators next to the stage that
//! computes it, so the natural design forwards it with pipeline-register
//! staleness only. [`PVisibility::Running`] (default) models that; the
//! paper-literal whole-walk freeze is kept as [`PVisibility::PerWalk`] for
//! the ablation, protected by a denominator guard so it degrades instead of
//! exploding.
//!
//! This is the float-exact functional model of what the FPGA executes; the
//! fixed-point + cycle-timed version lives in `seqge-fpga`.

use crate::model::{init_weight, EmbeddingModel, NegativeDraw};
use crate::oselm::model::OsElmConfig;
use seqge_graph::NodeId;
use seqge_linalg::{ops, Mat};
use seqge_sampling::{context_windows, NegativeTable, Rng64};
use std::iter::once;

/// How the in-flight `ΔP` is exposed to stage 2 within a walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum PVisibility {
    /// `ΔP` forwarded with pipeline-register staleness: each context sees
    /// the previous context's downdate (hardware-accurate, stable).
    Running,
    /// Paper-literal whole-walk freeze: every context reads the walk-entry
    /// `P`. Unstable when walk directions repeat; guarded by
    /// [`DataflowOsElm::DENOM_GUARD`] so it degrades rather than diverges.
    PerWalk,
}

/// Per-walk accumulator for sparse `Δβ` columns: a flat arena of `d`-slots
/// indexed through a dense node → slot table that is reset from the touched
/// list — no hashing, no per-column allocation, nothing allocated in steady
/// state — plus one cached frozen score `H·β[node]` per slot. Generic over
/// the lane type: `f32` here, `Q8_24` in `seqge-fpga`'s accelerator — whose
/// walk body is compiled once per target-feature set, which is why the
/// per-sample methods are `#[inline]`: a dot product left in an out-of-line
/// `frozen_score` would be compiled without the body's features.
#[derive(Debug, Clone)]
pub struct DeltaBeta<T> {
    /// Node → slot, [`NO_SLOT`] while untouched this walk.
    slot_of: Vec<u32>,
    touched: Vec<NodeId>,
    arena: Vec<T>,
    /// Per slot: the context stamp its frozen score was computed under, and
    /// the score.
    frozen: Vec<(u64, T)>,
    /// Stamp of the current context; a fresh slot carries stamp 0, which no
    /// context has.
    context: u64,
    dim: usize,
}

const NO_SLOT: u32 = u32::MAX;

impl<T: Copy + Default> DeltaBeta<T> {
    /// An empty accumulator for `dim`-wide columns of `num_nodes` nodes.
    pub fn new(num_nodes: usize, dim: usize) -> Self {
        DeltaBeta {
            slot_of: vec![NO_SLOT; num_nodes],
            touched: Vec::new(),
            arena: Vec::new(),
            frozen: Vec::new(),
            context: 0,
            dim,
        }
    }

    /// Opens the next context: `H` changes, so every cached frozen score
    /// goes stale.
    #[inline]
    pub fn begin_context(&mut self) {
        self.context += 1;
    }

    /// The slot holding `node`'s Δ-column, zeroed on its first touch of the
    /// walk.
    #[inline]
    pub fn slot(&mut self, node: NodeId) -> usize {
        let slot = &mut self.slot_of[node as usize];
        if *slot == NO_SLOT {
            *slot = self.touched.len() as u32;
            self.touched.push(node);
            self.arena.resize(self.touched.len() * self.dim, T::default());
            self.frozen.push((0, T::default()));
        }
        *slot as usize
    }

    /// The frozen score `H·β[node]` of `slot`'s node in the current context:
    /// `dot` runs on the first request after [`Self::begin_context`], later
    /// ones reuse its result. Sound because β is written only when the walk
    /// commits and `H` is fixed inside a context.
    #[inline]
    pub fn frozen_score(&mut self, slot: usize, dot: impl FnOnce() -> T) -> T {
        let entry = &mut self.frozen[slot];
        if entry.0 != self.context {
            *entry = (self.context, dot());
        }
        entry.1
    }

    /// The Δ-column in `slot`.
    #[inline]
    pub fn column_mut(&mut self, slot: usize) -> &mut [T] {
        &mut self.arena[slot * self.dim..(slot + 1) * self.dim]
    }

    /// Hands every touched `(node, Δ-column)` to `apply` in first-touch
    /// order, then clears for the next walk.
    #[inline]
    pub fn commit(&mut self, mut apply: impl FnMut(NodeId, &[T])) {
        for (slot, &node) in self.touched.iter().enumerate() {
            apply(node, &self.arena[slot * self.dim..(slot + 1) * self.dim]);
            self.slot_of[node as usize] = NO_SLOT;
        }
        self.touched.clear();
        self.arena.clear();
        self.frozen.clear();
    }

    /// Number of distinct touched columns this walk.
    pub fn touched_count(&self) -> usize {
        self.touched.len()
    }
}

/// The Algorithm 2 model.
#[derive(Debug, Clone)]
pub struct DataflowOsElm {
    beta_t: Mat<f32>,
    /// Committed `P` (main-memory copy, written once per walk).
    p: Mat<f32>,
    /// Running `P` (on-chip copy stage 2 reads under `Running` visibility).
    p_run: Mat<f32>,
    cfg: OsElmConfig,
    p_visibility: PVisibility,
    draw: NegativeDraw,
    delta_p: Mat<f32>,
    delta_beta: DeltaBeta<f32>,
    h: Vec<f32>,
    ph: Vec<f32>,
    phn: Vec<f32>,
    clamped: u64,
    guarded: u64,
}

const DENOM_FLOOR: f32 = 1e-12;

impl DataflowOsElm {
    /// Creates the model. Weight init is identical to [`super::OsElmSkipGram`]
    /// for the same seed, so Fig. 4's CPU-vs-FPGA comparison starts from the
    /// same state.
    pub fn new(num_nodes: usize, cfg: OsElmConfig) -> Self {
        let d = cfg.model.dim;
        let mut rng = Rng64::seed_from_u64(cfg.model.seed);
        let beta_t = Mat::from_fn(num_nodes, d, |_, _| init_weight(&mut rng, d));
        DataflowOsElm::from_parts(cfg, beta_t, Mat::scaled_identity(d, cfg.p0_scale))
    }

    /// Rebuilds the model from externally-held state: `beta_t` (βᵀ, row per
    /// node) and the committed `P`. The running `P` starts equal to the
    /// committed copy, as at a walk boundary. Used by the serving backends to
    /// restart a float shadow from a checkpointed trajectory.
    pub fn from_parts(cfg: OsElmConfig, beta_t: Mat<f32>, p: Mat<f32>) -> Self {
        cfg.validate().expect("invalid OS-ELM config");
        let d = cfg.model.dim;
        assert_eq!(beta_t.cols(), d, "beta_t width must match dim");
        assert_eq!(p.rows(), d, "P must be d×d");
        assert_eq!(p.cols(), d, "P must be d×d");
        DataflowOsElm {
            p_run: p.clone(),
            p,
            p_visibility: PVisibility::Running,
            draw: NegativeDraw::new(&cfg.model),
            delta_p: Mat::zeros(d, d),
            delta_beta: DeltaBeta::new(beta_t.rows(), d),
            beta_t,
            h: vec![0.0; d],
            ph: vec![0.0; d],
            phn: vec![0.0; d],
            clamped: 0,
            guarded: 0,
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &OsElmConfig {
        &self.cfg
    }

    /// `βᵀ` (row per node).
    pub fn beta_t(&self) -> &Mat<f32> {
        &self.beta_t
    }

    /// The `P` matrix.
    pub fn p(&self) -> &Mat<f32> {
        &self.p
    }

    /// Denominator-clamp telemetry.
    pub fn clamped_updates(&self) -> u64 {
        self.clamped
    }

    /// Denominator floor below which the `PerWalk` variant skips the `P`
    /// downdate for a context (keeps the ablation bounded).
    pub const DENOM_GUARD: f32 = 0.25;

    /// Number of contexts whose `P` downdate was skipped by the guard.
    pub fn guarded_updates(&self) -> u64 {
        self.guarded
    }

    /// Selects the `ΔP` visibility model (default [`PVisibility::Running`]).
    pub fn with_p_visibility(mut self, v: PVisibility) -> Self {
        self.p_visibility = v;
        self
    }
}

impl EmbeddingModel for DataflowOsElm {
    fn train_walk(&mut self, walk: &[NodeId], negatives: &NegativeTable, rng: &mut Rng64) {
        let d = self.cfg.model.dim;
        self.draw.begin_walk(walk, negatives, rng);
        debug_assert_eq!(self.delta_beta.touched_count(), 0);
        for (center, positives) in context_windows(walk, self.cfg.model.window) {
            // Stage 1: H from the walk-entry β (the center column's Δ is in
            // the stage-3/4 accumulators, not visible to stage 1).
            let brow = self.beta_t.row(center as usize);
            for (hi, &b) in self.h.iter_mut().zip(brow) {
                *hi = self.cfg.mu * b;
            }
            // Stage 2: Pʜ and HPHᵀ from the visible P.
            let p_src = match self.p_visibility {
                PVisibility::Running => &self.p_run,
                PVisibility::PerWalk => &self.p,
            };
            ops::gemv(p_src, &self.h, &mut self.ph);
            let hph = ops::dot(&self.h, &self.ph);
            let lambda = self.cfg.forgetting;
            let mut denom = if self.cfg.regularized { lambda + hph } else { hph };
            let drift_guard = self.cfg.regularized && denom < 0.5 * lambda;
            if denom.abs() < DENOM_FLOOR {
                denom = if denom < 0.0 { -DENOM_FLOOR } else { DENOM_FLOOR };
                self.clamped += 1;
            }
            // Stage 4a: ΔP ← ΔP − Pʜ·Pʜᵀ / denom (line 17). Under PerWalk
            // visibility the guard skips downdates once P is no longer
            // positive along H (denominator too small) — a cheap comparator
            // in hardware, and the difference between "degrades" and
            // "diverges" in the ablation.
            let guard = drift_guard
                || (self.p_visibility == PVisibility::PerWalk && denom < Self::DENOM_GUARD);
            if guard {
                // P is no longer healthy along H: drop the context entirely
                // (cheap comparator in hardware; keeps the ablation bounded).
                self.guarded += 1;
                continue;
            }
            {
                match self.p_visibility {
                    PVisibility::Running => {
                        if lambda < 1.0 {
                            // EW-RLS downdate + inflation with PSD-preserving
                            // trace normalization against covariance wind-up,
                            // fused into one contiguous full-matrix sweep
                            // whose (r,c) and (c,r) updates are bitwise
                            // equal: P stays exactly symmetric (the inflation
                            // would amplify an antisymmetric rounding
                            // component exponentially).
                            let cap = self.cfg.p0_scale * d as f32;
                            ops::p_downdate_forget(
                                &mut self.p_run,
                                &self.ph,
                                denom,
                                1.0 / lambda,
                                cap,
                            );
                        } else {
                            ops::p_downdate_sym(&mut self.p_run, &self.ph, denom);
                        }
                    }
                    PVisibility::PerWalk => {
                        // Forgetting is undefined for the frozen-P ablation
                        // (the 1/λ inflation cannot be deferred soundly);
                        // the config validator allows it but the ablation
                        // binary runs λ = 1.
                        ops::p_downdate_sym(&mut self.delta_p, &self.ph, denom);
                    }
                }
                // PʜΝ = P_ctx·Hᵀ where P_ctx = P − Pʜ·Pʜᵀ/denom = a scalar
                // rescale of Pʜ — no second gemv.
                let scale = 1.0 - hph / denom;
                for i in 0..d {
                    self.phn[i] = self.ph[i] * scale;
                }
            }
            // Stage 3 + 4b: sample errors and Δβ accumulation. The error
            // reads the *effective* column β + Δβ — the Δβ accumulator
            // lives in the same BRAM the sample stage reads, so the running
            // value is what the hardware naturally sees. (Only the P chain
            // is frozen; freezing β too makes the 500-odd per-walk touches
            // of a shared negative column an unstable fixed-step iteration
            // that diverges — see DESIGN.md §1 "Faithfulness notes".)
            //
            // The frozen dot reads main-memory β, which never moves inside
            // the walk, under an `H` that never moves inside the context —
            // so it is computed once per (column, context) and reused by
            // every later sample of the same column (the shared negatives
            // recur under each positive). The Δβ slot dot stays per-sample:
            // slots are the running accumulators whose latest value each
            // error must see.
            self.delta_beta.begin_context();
            for &pos in positives {
                let negs = self.draw.for_positive(pos, negatives, rng);
                for (id, y) in once((pos, 1.0)).chain(negs.iter().map(|&neg| (neg, 0.0))) {
                    let slot = self.delta_beta.slot(id);
                    let frozen = self
                        .delta_beta
                        .frozen_score(slot, || ops::dot(self.beta_t.row(id as usize), &self.h));
                    let column = self.delta_beta.column_mut(slot);
                    let e = y - (frozen + ops::dot(&self.h, column));
                    ops::axpy(e, &self.phn, column);
                }
            }
        }
        // Lines 19–20: commit once per walk. Under Running visibility the
        // on-chip copy *is* the new P (write-back); under PerWalk the
        // accumulated ΔP is applied to the frozen copy.
        match self.p_visibility {
            PVisibility::Running => {
                self.p.as_mut_slice().copy_from_slice(self.p_run.as_slice());
            }
            PVisibility::PerWalk => {
                // Apply ΔP, then saturate both matrices at the Q8.24-style
                // rails the hardware would impose — the literal whole-walk
                // freeze overshoots, and the rails are what turn divergence
                // into the bounded degradation the ablation reports.
                let p_cap = 4.0 * self.cfg.p0_scale;
                for (p, &dpv) in self.p.as_mut_slice().iter_mut().zip(self.delta_p.as_slice()) {
                    *p = (*p + dpv).clamp(-p_cap, p_cap);
                }
                self.delta_p.as_mut_slice().fill(0.0);
                self.p_run.as_mut_slice().copy_from_slice(self.p.as_slice());
            }
        }
        self.delta_beta.commit(|node, delta| {
            for (b, &dv) in self.beta_t.row_mut(node as usize).iter_mut().zip(delta) {
                *b += dv;
            }
        });
        if self.p_visibility == PVisibility::PerWalk {
            const BETA_RAIL: f32 = 128.0; // Q8.24 saturation rail
            for v in self.beta_t.as_mut_slice() {
                *v = v.clamp(-BETA_RAIL, BETA_RAIL);
            }
        }
    }

    fn embedding(&self) -> Mat<f32> {
        let mut e = self.beta_t.clone();
        ops::scal(self.cfg.mu, e.as_mut_slice());
        e
    }

    fn num_nodes(&self) -> usize {
        self.beta_t.rows()
    }

    fn dim(&self) -> usize {
        self.cfg.model.dim
    }

    fn model_bytes(&self) -> usize {
        self.beta_t.heap_bytes() + self.p.heap_bytes()
    }

    fn name(&self) -> &'static str {
        "oselm-dataflow"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModelConfig, NegativeMode};
    use crate::oselm::OsElmSkipGram;
    use crate::EmbeddingModel;
    use seqge_sampling::{UpdatePolicy, WalkCorpus};

    fn ready_table(n: usize) -> NegativeTable {
        let mut corpus = WalkCorpus::new(n);
        corpus.record(&(0..n as NodeId).collect::<Vec<_>>());
        let mut t = NegativeTable::new(UpdatePolicy::every_edge());
        t.rebuild(&corpus);
        t
    }

    fn cfg(dim: usize) -> OsElmConfig {
        OsElmConfig {
            model: ModelConfig {
                dim,
                window: 4,
                negative_samples: 3,
                negative_mode: NegativeMode::PerWalk,
                seed: 11,
            },
            mu: 0.01,
            p0_scale: 10.0,
            regularized: true,
            forgetting: 1.0,
        }
    }

    #[test]
    fn delta_beta_arena_reuse() {
        let mut db = DeltaBeta::<f32>::new(10, 3);
        let (a, b) = (db.slot(5), db.slot(9));
        db.column_mut(a)[0] = 1.0;
        db.column_mut(b)[1] = 2.0;
        assert_eq!(db.slot(5), a, "same slot as the first touch");
        db.column_mut(a)[2] = 3.0;
        assert_eq!(db.touched_count(), 2);
        // One frozen score per (slot, context).
        db.begin_context();
        assert_eq!(db.frozen_score(a, || 7.0), 7.0);
        assert_eq!(db.frozen_score(a, || unreachable!("cached")), 7.0);
        db.begin_context();
        assert_eq!(db.frozen_score(a, || 8.0), 8.0);
        let mut beta = Mat::<f32>::zeros(10, 3);
        let mut order = Vec::new();
        db.commit(|node, delta| {
            order.push(node);
            beta.row_mut(node as usize).copy_from_slice(delta);
        });
        assert_eq!(order, [5, 9], "first-touch order");
        assert_eq!(beta.row(5), &[1.0, 0.0, 3.0]);
        assert_eq!(beta.row(9), &[0.0, 2.0, 0.0]);
        assert_eq!(db.touched_count(), 0);
        // Reuse after commit starts from a zeroed slot and a stale score.
        let c = db.slot(5);
        assert_eq!(db.column_mut(c), &[0.0, 0.0, 0.0]);
        assert_eq!(db.frozen_score(c, || 9.0), 9.0);
    }

    #[test]
    fn same_init_as_algorithm1() {
        let a1 = OsElmSkipGram::new(20, cfg(8));
        let a2 = DataflowOsElm::new(20, cfg(8));
        assert_eq!(a1.beta_t(), a2.beta_t(), "identical seeds must give identical init");
    }

    #[test]
    fn single_context_walk_matches_algorithm1() {
        // With exactly one context per walk there is nothing to defer:
        // Algorithm 2 must equal Algorithm 1 bit-for-bit (float-exact).
        let table = ready_table(20);
        let mut a1 = OsElmSkipGram::new(20, cfg(8));
        let mut a2 = DataflowOsElm::new(20, cfg(8));
        // walk of exactly `window` nodes → one context
        let walk: Vec<NodeId> = vec![0, 1, 2, 3];
        let mut r1 = Rng64::seed_from_u64(7);
        let mut r2 = Rng64::seed_from_u64(7);
        a1.train_walk(&walk, &table, &mut r1);
        a2.train_walk(&walk, &table, &mut r2);
        let d1 = a1.beta_t().max_abs_diff(a2.beta_t());
        assert!(d1 < 1e-6, "single-context divergence {d1}");
        let dp = a1.p().max_abs_diff(a2.p());
        assert!(dp < 1e-6, "P divergence {dp}");
    }

    #[test]
    fn multi_context_walk_diverges_but_stays_close() {
        // Deferred updates differ from sequential ones — that's the point —
        // but after one walk the two must still be near neighbors.
        let table = ready_table(30);
        let mut a1 = OsElmSkipGram::new(30, cfg(8));
        let mut a2 = DataflowOsElm::new(30, cfg(8));
        let walk: Vec<NodeId> = (0..20u32).collect();
        let mut r1 = Rng64::seed_from_u64(7);
        let mut r2 = Rng64::seed_from_u64(7);
        a1.train_walk(&walk, &table, &mut r1);
        a2.train_walk(&walk, &table, &mut r2);
        let diff = a1.beta_t().max_abs_diff(a2.beta_t());
        assert!(diff > 0.0, "multi-context walks must actually defer updates");
        assert!(diff < 0.1, "deferred updates should stay close after one walk: {diff}");
    }

    #[test]
    fn deltas_cleared_between_walks() {
        let table = ready_table(20);
        let mut m = DataflowOsElm::new(20, cfg(8));
        let mut rng = Rng64::seed_from_u64(1);
        let walk: Vec<NodeId> = (0..12u32).collect();
        m.train_walk(&walk, &table, &mut rng);
        assert_eq!(m.delta_beta.touched_count(), 0);
        assert!(m.delta_p.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn long_training_stays_finite() {
        let table = ready_table(40);
        let mut m = DataflowOsElm::new(40, cfg(16));
        let mut rng = Rng64::seed_from_u64(5);
        let walk: Vec<NodeId> = (0..40u32).collect();
        for _ in 0..100 {
            m.train_walk(&walk, &table, &mut rng);
        }
        assert!(m.beta_t().all_finite());
        assert!(m.p().all_finite());
        assert_eq!(m.clamped_updates(), 0);
    }
}
