//! Algorithm 2: the dataflow-optimized variant, written once and run at two
//! precisions.
//!
//! Algorithm 1 carries a loop dependency — each context reads the `P` and
//! `β` the previous context wrote — which blocks pipelining the four stages
//! of the FPGA kernel. Algorithm 2 accumulates the updates into `ΔP` and
//! `Δβ` and commits both to main memory once per walk (lines 19–20).
//!
//! [`DataflowKernel`] is that walk, generic over a [`Datapath`]: the float
//! model ([`DataflowOsElm`], the [`F32`] path) and `seqge-fpga`'s Q8.24
//! `Accelerator` differ in arithmetic alone, so the gap between their
//! embeddings is quantization — what the paper's Fig. 4 measures. Both drop
//! a context whose denominator says `P` is no longer healthy along `H`: no
//! `P` downdate, no `Δβ` (a comparator in hardware).
//!
//! Stage 2 reads one running `P` that absorbs each context's downdate
//! ([`PVisibility::Running`], pipeline-register staleness, as the hardware
//! forwards its on-chip `ΔP`). The paper-literal whole-walk freeze,
//! [`PVisibility::PerWalk`], reads the walk-entry `P` instead; repeated walk
//! directions then apply up to 73 downdates sized against one stale `P`,
//! which overshoots and, unguarded, diverges (DESIGN.md §1 "Faithfulness
//! notes"). It is kept for the ablation, bounded by the guard.

use crate::config::NegativeMode;
use crate::dirty::DirtyRows;
use crate::model::{init_weight, EmbeddingModel, NegativeDraw};
use crate::oselm::model::OsElmConfig;
use seqge_graph::NodeId;
use seqge_linalg::{ops, Mat};
use seqge_sampling::{context_windows, NegativeTable, Rng64};
use std::fmt::Debug;
use std::iter::once;
use std::ops::{Add, Mul, Sub};

/// Which `P` stage 2 reads within a walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum PVisibility {
    /// The running `P`: each context sees the previous context's downdate
    /// (pipeline-register staleness; hardware-accurate, stable).
    Running,
    /// Paper-literal whole-walk freeze: the walk-entry `P`. Unstable when
    /// walk directions repeat; the guard keeps it bounded.
    PerWalk,
}

/// Per-walk accumulator for sparse `Δβ` columns: a flat arena of `d`-slots
/// indexed through a dense node → slot table that is reset from the touched
/// list — no hashing, no per-column allocation, nothing allocated in steady
/// state — plus one cached frozen score `H·β[node]` per slot, in the
/// datapath's words. The Q8.24 walk is compiled once per target-feature set,
/// which is why its methods are inlined: a dot product left in an
/// out-of-line `sample` would be compiled without the walk's features
/// (`#[inline]` alone left it out of line there).
#[derive(Debug, Clone)]
struct DeltaBeta<T> {
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
    fn new(num_nodes: usize, dim: usize) -> Self {
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
    fn begin_context(&mut self) {
        self.context += 1;
    }

    /// `node`'s Δ-column, zeroed on its first touch of the walk, and its
    /// frozen score `H·β[node]` in the current context: `dot` runs on the
    /// column's first sample after [`Self::begin_context`], later ones reuse
    /// its result. Sound because β is written only when the walk commits and
    /// `H` is fixed inside a context.
    #[inline(always)]
    fn sample(&mut self, node: NodeId, dot: impl FnOnce() -> T) -> (T, &mut [T]) {
        let slot = &mut self.slot_of[node as usize];
        if *slot == NO_SLOT {
            *slot = self.touched.len() as u32;
            self.touched.push(node);
            self.arena.resize(self.touched.len() * self.dim, T::default());
            self.frozen.push((0, T::default()));
        }
        let slot = *slot as usize;
        let entry = &mut self.frozen[slot];
        if entry.0 != self.context {
            *entry = (self.context, dot());
        }
        (entry.1, &mut self.arena[slot * self.dim..(slot + 1) * self.dim])
    }

    /// Hands every touched `(node, Δ-column)` to `apply` in first-touch
    /// order, then clears for the next walk.
    #[inline]
    fn commit(&mut self, mut apply: impl FnMut(NodeId, &[T])) {
        for (slot, &node) in self.touched.iter().enumerate() {
            apply(node, &self.arena[slot * self.dim..(slot + 1) * self.dim]);
            self.slot_of[node as usize] = NO_SLOT;
        }
        self.touched.clear();
        self.arena.clear();
        self.frozen.clear();
    }
}

/// The arithmetic one [`DataflowKernel`] runs in, implemented on a marker
/// type per precision. `+`, `−` and `·` are the word type's own (saturating
/// on Q8.24); each path keeps its own operation order, and the walk decides
/// only which operation comes next.
pub trait Datapath {
    /// A datapath word.
    type Word: Copy
        + Default
        + PartialOrd
        + Debug
        + Add<Output = Self::Word>
        + Sub<Output = Self::Word>
        + Mul<Output = Self::Word>;
    /// What one look at a context's `H` decides for every dot product of
    /// that context (each has `H` as one operand).
    type Gate: Copy;
    /// A multiply-add's vector-operand bound, hoisted out of its sample loop.
    type Max: Copy;
    /// One: a positive sample's target (a negative's is `Word::default()`).
    const ONE: Self::Word;
    /// [`EmbeddingModel::name`].
    const NAME: &'static str;
    /// Converts a configuration or initial-weight value.
    fn from_f32(x: f32) -> Self::Word;
    /// Dequantizes a word for the float view.
    fn to_f32(x: Self::Word) -> f32;
    /// The per-context gate, from `H`.
    fn gate(h: &[Self::Word]) -> Self::Gate;
    /// `x · y` under the context's gate.
    fn dot(gate: Self::Gate, x: &[Self::Word], y: &[Self::Word]) -> Self::Word;
    /// Stage 2's `Pʜ = P·Hᵀ`, one [`Datapath::dot`] per row of `P`.
    fn gemv(gate: Self::Gate, p: &Mat<Self::Word>, h: &[Self::Word], ph: &mut [Self::Word]);
    /// The positivity guard's comparator: whether the regularized
    /// denominator clears `threshold` (½λ).
    fn healthy(denom: Self::Word, threshold: Self::Word) -> bool;
    /// The denominator in the form the downdate and the gain divide by.
    fn recip(denom: Self::Word) -> Self::Word;
    /// The `P` downdate `P ← P − Pʜ·Pʜᵀ/denom`, then, when `forget` holds
    /// `(1/λ, trace cap)`, the EW-RLS inflation and trace cap.
    fn downdate(
        p: &mut Mat<Self::Word>,
        ph: &[Self::Word],
        recip: Self::Word,
        forget: Forget<Self>,
    );
    /// The gain's scale `1 − HPHᵀ/denom`: `PʜΝ` is a rescale of `Pʜ`.
    fn gain_scale(hph: Self::Word, recip: Self::Word) -> Self::Word;
    /// The bound [`Datapath::mul_add`] takes for `x`.
    fn max(x: &[Self::Word]) -> Self::Max;
    /// `y += a·x`.
    fn mul_add(a: Self::Word, x: &[Self::Word], x_max: Self::Max, y: &mut [Self::Word]);
    /// Whether a word sits on a saturation rail.
    fn saturated(x: Self::Word) -> bool;
}

/// `(1/λ, trace cap)` when λ < 1: the EW-RLS step after each downdate.
pub type Forget<D> = Option<(<D as Datapath>::Word, <D as Datapath>::Word)>;

/// The float datapath over `seqge_linalg::ops`. The walk is instantiated in
/// the crate that calls it, so `dot`, `downdate` and `mul_add` are
/// `#[inline]` (out of line, each would be a call per sample or context);
/// `gemv` stays out of line, for the reason it gives.
#[derive(Debug, Clone, Copy)]
pub struct F32;

const DENOM_FLOOR: f32 = 1e-12;

impl Datapath for F32 {
    type Word = f32;
    type Gate = ();
    type Max = ();
    const ONE: f32 = 1.0;
    const NAME: &'static str = "oselm-dataflow";
    fn from_f32(x: f32) -> f32 {
        x
    }
    fn to_f32(x: f32) -> f32 {
        x
    }
    fn gate(_: &[f32]) {}
    #[inline]
    fn dot((): (), x: &[f32], y: &[f32]) -> f32 {
        ops::dot(x, y)
    }
    /// Out of line: `P`, `H` and `Pʜ` arrive as separate arguments, which
    /// the compiler may assume do not alias; the same loop inlined into the
    /// walk, over fields of one `&mut self`, measured about 10 % slower at
    /// d = 96 (2-vCPU x86-64 host).
    fn gemv((): (), p: &Mat<f32>, h: &[f32], ph: &mut [f32]) {
        ops::gemv(p, h, ph);
    }
    fn healthy(denom: f32, threshold: f32) -> bool {
        denom >= threshold
    }
    /// The denominator itself, floored away from zero: the float path's
    /// reciprocal saturation.
    fn recip(denom: f32) -> f32 {
        denom.abs().max(DENOM_FLOOR).copysign(denom)
    }
    /// One fused full-matrix sweep whose (r,c) and (c,r) updates are
    /// bitwise equal, so `P` stays exactly symmetric (the inflation would
    /// amplify an antisymmetric rounding component exponentially).
    #[inline]
    fn downdate(p: &mut Mat<f32>, ph: &[f32], denom: f32, forget: Forget<Self>) {
        match forget {
            Some((inv_lambda, cap)) => ops::p_downdate_forget(p, ph, denom, inv_lambda, cap),
            None => ops::p_downdate_sym(p, ph, denom),
        }
    }
    fn gain_scale(hph: f32, denom: f32) -> f32 {
        1.0 - hph / denom
    }
    fn max(_: &[f32]) {}
    #[inline]
    fn mul_add(a: f32, x: &[f32], (): (), y: &mut [f32]) {
        ops::axpy(a, x, y);
    }
    fn saturated(_: f32) -> bool {
        false
    }
}

/// Algorithm 2 over datapath `D`: βᵀ (row per node), one running `P`, the
/// per-walk accumulators and what the guard and the rails counted.
#[derive(Debug, Clone)]
pub struct DataflowKernel<D: Datapath> {
    beta: Mat<D::Word>,
    p: Mat<D::Word>,
    /// The walk-entry `P` stage 2 reads under [`PVisibility::PerWalk`].
    p_entry: Option<Mat<D::Word>>,
    cfg: OsElmConfig,
    draw: NegativeDraw,
    /// The walk's one negative set under [`NegativeMode::PerWalk`].
    walk_negatives: Vec<NodeId>,
    delta_beta: DeltaBeta<D::Word>,
    dirty: DirtyRows,
    h: Vec<D::Word>,
    ph: Vec<D::Word>,
    phn: Vec<D::Word>,
    guarded: u64,
    saturations: u64,
}

/// The float Algorithm 2 model.
pub type DataflowOsElm = DataflowKernel<F32>;

impl<D: Datapath> DataflowKernel<D> {
    /// Creates the model. Weight init is identical to [`super::OsElmSkipGram`]
    /// for the same seed, converted to the datapath's words, so Fig. 4's
    /// CPU-vs-FPGA comparison starts from the same state.
    pub fn new(num_nodes: usize, cfg: OsElmConfig) -> Self {
        let d = cfg.model.dim;
        let mut rng = Rng64::seed_from_u64(cfg.model.seed);
        let beta = (0..num_nodes * d).map(|_| D::from_f32(init_weight(&mut rng, d))).collect();
        let mut p = vec![D::Word::default(); d * d];
        p.iter_mut().step_by(d + 1).for_each(|w| *w = D::from_f32(cfg.p0_scale));
        Self::try_from_parts(num_nodes, cfg, beta, p).expect("invalid OS-ELM config")
    }

    /// Rebuilds the model from βᵀ (row per node) and `P` (row-major `d×d`)
    /// as flat words, at a walk boundary. A configuration that fails
    /// validation, or a length that disagrees with `num_nodes × d` / `d × d`,
    /// is an error.
    pub fn try_from_parts(
        num_nodes: usize,
        cfg: OsElmConfig,
        beta: Vec<D::Word>,
        p: Vec<D::Word>,
    ) -> Result<Self, String> {
        cfg.validate()?;
        let d = cfg.model.dim;
        if num_nodes.checked_mul(d) != Some(beta.len()) {
            return Err(format!("beta holds {} words, expected {num_nodes}x{d}", beta.len()));
        }
        if p.len() != d * d {
            return Err(format!("P holds {} words, expected {d}x{d}", p.len()));
        }
        Ok(DataflowKernel {
            beta: Mat::from_vec(num_nodes, d, beta),
            p: Mat::from_vec(d, d, p),
            p_entry: None,
            draw: NegativeDraw::new(&cfg.model),
            walk_negatives: Vec::with_capacity(cfg.model.negative_samples),
            delta_beta: DeltaBeta::new(num_nodes, d),
            dirty: DirtyRows::new(num_nodes),
            h: vec![D::Word::default(); d],
            ph: vec![D::Word::default(); d],
            phn: vec![D::Word::default(); d],
            guarded: 0,
            saturations: 0,
            cfg,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &OsElmConfig {
        &self.cfg
    }

    /// `βᵀ` (row per node).
    pub fn beta_t(&self) -> &Mat<D::Word> {
        &self.beta
    }

    /// The `P` matrix.
    pub fn p(&self) -> &Mat<D::Word> {
        &self.p
    }

    /// Number of contexts the positivity guard dropped.
    pub fn guarded_updates(&self) -> u64 {
        self.guarded
    }

    /// Saturation events counted at each walk's commit: every `P` word and
    /// every written β word on a rail.
    pub fn saturations(&self) -> u64 {
        self.saturations
    }

    /// Drains the set of rows whose β the commits wrote since the last
    /// call, sorted.
    pub fn take_dirty(&mut self) -> Vec<NodeId> {
        self.dirty.take()
    }

    /// Dequantizes one embedding row (μ·β) into `out`.
    pub fn embed_row(&self, node: NodeId, out: &mut [f32]) {
        let mu = D::to_f32(D::from_f32(self.cfg.mu));
        for (o, &b) in out.iter_mut().zip(self.beta.row(node as usize)) {
            *o = mu * D::to_f32(b);
        }
    }

    /// Selects which `P` stage 2 reads (default [`PVisibility::Running`]).
    pub fn with_p_visibility(mut self, v: PVisibility) -> Self {
        self.p_entry = (v == PVisibility::PerWalk).then(|| self.p.clone());
        self
    }

    /// One walk of Algorithm 2 — the only source of the kernel. It is
    /// `#[inline(always)]` so that a caller can compile its own copy under
    /// its own target features. Returns the walk's context count and its
    /// widest context's sample count, which price the walk in cycles.
    #[inline(always)]
    pub fn train(
        &mut self,
        walk: &[NodeId],
        negatives: &NegativeTable,
        rng: &mut Rng64,
    ) -> (usize, usize) {
        let windows = context_windows(walk, self.cfg.model.window);
        let contexts = windows.len();
        if contexts == 0 {
            return (0, 0);
        }
        // §3.2: under `PerWalk` every positive of the walk trains against
        // one negative set, drawn here as `NegativeDraw::begin_walk` draws
        // it (same avoided node, same RNG draws) and read once per walk
        // rather than once per positive.
        let per_walk = self.cfg.model.negative_mode == NegativeMode::PerWalk;
        if per_walk {
            negatives.sample_into(self.draw.ns(), walk[0], rng, &mut self.walk_negatives);
        } else {
            self.draw.begin_walk(walk, negatives, rng);
        }
        if let Some(entry) = &mut self.p_entry {
            entry.as_mut_slice().copy_from_slice(self.p.as_slice());
        }
        let (cfg, d, zero) = (self.cfg, self.cfg.model.dim, D::Word::default());
        let mu = D::from_f32(cfg.mu);
        let lambda = D::from_f32(cfg.forgetting);
        let half_lambda = lambda * D::from_f32(0.5);
        let inv_lambda = D::from_f32(1.0 / cfg.forgetting);
        let cap = D::from_f32(cfg.p0_scale * d as f32);
        let forget = (inv_lambda > D::ONE).then_some((inv_lambda, cap));
        let mut max_samples = 0;
        for (center, positives) in windows {
            max_samples = max_samples.max(positives.len() * (1 + self.draw.ns()));
            // Stage 1: H = μ·β[center] from the walk-entry β (the center
            // column's Δ is in the stage-3/4 accumulators, not visible here).
            for (h, &b) in self.h.iter_mut().zip(self.beta.row(center as usize)) {
                *h = mu * b;
            }
            let gate = D::gate(&self.h);
            // Stage 2: Pʜ = P·Hᵀ and HPHᵀ from the visible P.
            D::gemv(gate, self.p_entry.as_ref().unwrap_or(&self.p), &self.h, &mut self.ph);
            let hph = D::dot(gate, &self.h, &self.ph);
            let denom = if cfg.regularized { lambda + hph } else { hph };
            if cfg.regularized && !D::healthy(denom, half_lambda) {
                self.guarded += 1;
                continue;
            }
            // Stage 4a: the running P absorbs the downdate (line 17); DRAM
            // write-back still happens once per walk.
            let recip = D::recip(denom);
            D::downdate(&mut self.p, &self.ph, recip, forget);
            let scale = D::gain_scale(hph, recip);
            for (g, &x) in self.phn.iter_mut().zip(&self.ph) {
                *g = x * scale;
            }
            let phn_max = D::max(&self.phn);
            // Stage 3 + 4b: sample errors and Δβ accumulation. The error
            // reads the *effective* column β + Δβ — the Δβ accumulator lives
            // in the same BRAM the sample stage reads, so the running value
            // is what the hardware naturally sees. (Only the P chain is
            // frozen; freezing β too makes the 500-odd per-walk touches of a
            // shared negative column an unstable fixed-step iteration that
            // diverges — see DESIGN.md §1 "Faithfulness notes".)
            //
            // β is written only at the commit and H is fixed inside the
            // context, so the frozen score H·β[s] is computed once per
            // column and context — §3.2's reason for sharing negatives: each
            // recurs under every positive.
            self.delta_beta.begin_context();
            for &pos in positives {
                let negs = if per_walk {
                    &self.walk_negatives
                } else {
                    self.draw.for_positive(pos, negatives, rng)
                };
                for (id, y) in once((pos, D::ONE)).chain(negs.iter().map(|&n| (n, zero))) {
                    let (frozen, column) = self
                        .delta_beta
                        .sample(id, || D::dot(gate, &self.h, self.beta.row(id as usize)));
                    let e = y - (frozen + D::dot(gate, &self.h, column));
                    D::mul_add(e, &self.phn, phn_max, column);
                }
            }
        }
        // Lines 19–20: commit Δβ once per walk, counting rail hits.
        self.saturations += self.p.as_slice().iter().filter(|&&w| D::saturated(w)).count() as u64;
        self.delta_beta.commit(|node, delta| {
            self.dirty.mark(node);
            for (b, &dv) in self.beta.row_mut(node as usize).iter_mut().zip(delta) {
                *b = *b + dv;
                self.saturations += u64::from(D::saturated(*b));
            }
        });
        (contexts, max_samples)
    }
}

impl DataflowOsElm {
    /// Rebuilds the float model from βᵀ (row per node) and `P`. Used by the
    /// serving backends to restart a float shadow from a checkpointed
    /// trajectory.
    pub fn from_parts(cfg: OsElmConfig, beta_t: Mat<f32>, p: Mat<f32>) -> Self {
        Self::try_from_parts(beta_t.rows(), cfg, beta_t.into_vec(), p.into_vec())
            .expect("invalid Algorithm 2 state")
    }
}

impl<D: Datapath> EmbeddingModel for DataflowKernel<D> {
    fn train_walk(&mut self, walk: &[NodeId], negatives: &NegativeTable, rng: &mut Rng64) {
        self.train(walk, negatives, rng);
    }

    fn embedding(&self) -> Mat<f32> {
        let mut e = Mat::zeros(self.beta.rows(), self.cfg.model.dim);
        for r in 0..self.beta.rows() {
            self.embed_row(r as NodeId, e.row_mut(r));
        }
        e
    }

    fn num_nodes(&self) -> usize {
        self.beta.rows()
    }

    fn dim(&self) -> usize {
        self.cfg.model.dim
    }

    fn model_bytes(&self) -> usize {
        (self.beta.as_slice().len() + self.p.as_slice().len()) * std::mem::size_of::<D::Word>()
    }

    fn name(&self) -> &'static str {
        D::NAME
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
        db.begin_context();
        db.sample(5, || 7.0).1[0] = 1.0;
        db.sample(9, || 0.0).1[1] = 2.0;
        // The first touch's column, and one frozen score per (column, context).
        let (score, column) = db.sample(5, || unreachable!("cached"));
        assert_eq!(score, 7.0);
        column[2] = 3.0;
        assert_eq!(db.touched.len(), 2);
        db.begin_context();
        assert_eq!(db.sample(5, || 8.0).0, 8.0);
        let mut beta = Mat::<f32>::zeros(10, 3);
        let mut order = Vec::new();
        db.commit(|node, delta| {
            order.push(node);
            beta.row_mut(node as usize).copy_from_slice(delta);
        });
        assert_eq!(order, [5, 9], "first-touch order");
        assert_eq!(beta.row(5), &[1.0, 0.0, 3.0]);
        assert_eq!(beta.row(9), &[0.0, 2.0, 0.0]);
        assert_eq!(db.touched.len(), 0);
        // Reuse after commit starts from a zeroed column and a stale score.
        let (score, column) = db.sample(5, || 9.0);
        assert_eq!((score, &*column), (9.0, &[0.0, 0.0, 0.0][..]));
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
        assert!(m.delta_beta.touched.is_empty());
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
    }
}
