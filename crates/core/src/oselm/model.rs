//! Algorithm 1: the sequentially-trainable OS-ELM skip-gram.
//!
//! Classic OS-ELM keeps a random input matrix `α` and trains only the output
//! weights `β` by recursive least squares. The paper's twist (§3.1, after
//! Press & Wolf \[8\]): since skip-gram inputs are one-hot, the hidden
//! activation is just a row of the input matrix — and instead of a random
//! `α`, the model *reuses the output weights*, `W_in = μ·βᵀ`, so
//! `H_i = μ·β[:, center]`. The random matrix disappears, the model shrinks
//! (Table 5), and the embedding comes from the one matrix that actually
//! trains.
//!
//! Per context (Algorithm 1):
//!
//! ```text
//! H    = μ · β[:, center]                      (d-vector)
//! Pʜ   = P·Hᵀ ;  HPHᵀ = H·Pʜ                   (P is symmetric)
//! P   ←  P − Pʜ·Pʜᵀ / (1 + HPHᵀ)               (rank-1 downdate)
//! PʜΝ  = P·Hᵀ                                  (line 7, with the new P)
//! for each positive, then ns negatives:
//!     e          = y − H·β[:, sample]          (scalar)
//!     β[:,sample] += PʜΝ · e                   (one column update)
//! ```
//!
//! `β` is stored transposed (`N×d`, row per node) so every column access is
//! a contiguous row.

use crate::config::ModelConfig;
use crate::dirty::DirtyRows;
use crate::model::{init_weight, EmbeddingModel, NegativeDraw};
use seqge_graph::NodeId;
use seqge_linalg::{ops, Mat};
use seqge_sampling::{context_windows, NegativeTable, Rng64};

/// Configuration of the OS-ELM family of models.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct OsElmConfig {
    /// Shared hyper-parameters (dimension, window, negatives, seed).
    pub model: ModelConfig,
    /// Scale factor `μ` turning `β` into the input-side weights (Fig. 6:
    /// useful range 0.005–0.1; default 0.05, the plateau center on the
    /// synthetic datasets).
    pub mu: f32,
    /// `P₀ = p0_scale · I`. The classic OS-ELM `(λI)⁻¹` init with
    /// `λ = 1/p0_scale`.
    pub p0_scale: f32,
    /// `true` → standard Sherman–Morrison denominator `1 + H·P·Hᵀ`;
    /// `false` → the paper's literal Algorithm 1 line 5 (`H·P·Hᵀ` alone),
    /// kept for the ablation (it collapses `P`; see DESIGN.md).
    pub regularized: bool,
    /// RLS forgetting factor λ ∈ (0, 1]. `1.0` (default) is the paper's
    /// plain OS-ELM: `P` contracts monotonically, so the effective learning
    /// gain decays as samples accumulate. λ < 1 is the standard
    /// exponentially-weighted RLS extension for *drifting* data (the
    /// dynamic-graph setting): `denom = λ + H·P·Hᵀ`, `P ← (P − …)/λ`,
    /// which keeps a constant effective memory of `1/(1−λ)` contexts.
    pub forgetting: f32,
}

impl OsElmConfig {
    /// Paper defaults at dimension `dim`.
    pub fn paper_defaults(dim: usize) -> Self {
        OsElmConfig {
            model: ModelConfig::paper_defaults(dim),
            mu: 0.05,
            p0_scale: 10.0,
            regularized: true,
            forgetting: 1.0,
        }
    }

    /// Validates ranges.
    pub fn validate(&self) -> Result<(), String> {
        self.model.validate()?;
        if self.mu <= 0.0 || !self.mu.is_finite() {
            return Err("mu must be positive and finite".into());
        }
        if self.p0_scale <= 0.0 || !self.p0_scale.is_finite() {
            return Err("p0_scale must be positive and finite".into());
        }
        if !(self.forgetting > 0.0 && self.forgetting <= 1.0) {
            return Err("forgetting factor must be in (0, 1]".into());
        }
        Ok(())
    }
}

/// Reusable per-context scratch vectors (no allocation in the hot loop).
#[derive(Debug, Clone)]
pub(crate) struct Scratch {
    pub h: Vec<f32>,
    pub ph: Vec<f32>,
    pub phn: Vec<f32>,
    /// The current context's `(sample, target)` list: each positive, then
    /// its negatives.
    pub samples: Vec<(NodeId, f32)>,
}

impl Scratch {
    pub fn new(d: usize) -> Self {
        Scratch { h: vec![0.0; d], ph: vec![0.0; d], phn: vec![0.0; d], samples: Vec::new() }
    }
}

/// The proposed model (Algorithm 1).
#[derive(Debug, Clone)]
pub struct OsElmSkipGram {
    /// `βᵀ`: row `u` is the β-column of node `u` (length `d`).
    beta_t: Mat<f32>,
    /// The RLS covariance-inverse `P` (`d×d`).
    p: Mat<f32>,
    cfg: OsElmConfig,
    draw: NegativeDraw,
    scratch: Scratch,
    /// Count of contexts whose denominator was clamped (stability telemetry).
    clamped: u64,
    /// Rows of `βᵀ` written since the last [`OsElmSkipGram::take_dirty`].
    dirty: DirtyRows,
}

// Why P's exact symmetry is an enforced invariant: the RLS downdate is
// symmetric, so it can damp symmetric drift but is *blind* to the
// antisymmetric component — under the EW-RLS 1/λ inflation that component
// grows as (1/λ)ⁿ from its rounding seed until it destroys P's
// definiteness (observed empirically: e-fold per 1/(1−λ) contexts).
// Hardware stores a triangular P and never has the problem; the float
// models mirror that by establishing exact symmetry once at every cold
// entry point (`new`'s identity init trivially, `Mat::symmetrize` in
// `from_parts` explicitly) and then *preserving* it
// bit-for-bit in the hot path: `ops::p_downdate_sym` and
// `ops::p_downdate_forget` form the rank-1 term from a commutative
// product, so the (r,c)/(c,r) updates are identical and no per-context
// re-symmetrization pass is needed.

/// Smallest admissible |denominator| before clamping; prevents a division
/// blow-up when the unregularized variant drives `H·P·Hᵀ` to zero.
const DENOM_FLOOR: f32 = 1e-12;

/// Fraction of λ below which the regularized denominator signals a
/// drift-dented P; the context's P downdate is skipped (see
/// `OsElmSkipGram::train_context`).
const POSITIVITY_GUARD: f32 = 0.5;

impl OsElmSkipGram {
    /// Creates the model over `num_nodes` nodes.
    pub fn new(num_nodes: usize, cfg: OsElmConfig) -> Self {
        cfg.validate().expect("invalid OS-ELM config");
        let d = cfg.model.dim;
        let mut rng = Rng64::seed_from_u64(cfg.model.seed);
        let beta_t = Mat::from_fn(num_nodes, d, |_, _| init_weight(&mut rng, d));
        OsElmSkipGram {
            beta_t,
            p: Mat::scaled_identity(d, cfg.p0_scale),
            draw: NegativeDraw::new(&cfg.model),
            scratch: Scratch::new(d),
            clamped: 0,
            dirty: DirtyRows::new(num_nodes),
            cfg,
        }
    }

    /// Reconstructs a model from persisted state (`βᵀ` row-per-node and the
    /// `d×d` P matrix). Training resumes exactly where it stopped.
    pub fn from_parts(beta_t: Mat<f32>, p: Mat<f32>, cfg: OsElmConfig) -> Result<Self, String> {
        cfg.validate()?;
        let d = cfg.model.dim;
        if beta_t.cols() != d {
            return Err(format!("beta has {} cols, config dim is {d}", beta_t.cols()));
        }
        if p.rows() != d || p.cols() != d {
            return Err(format!("P is {}x{}, expected {d}x{d}", p.rows(), p.cols()));
        }
        if !beta_t.all_finite() || !p.all_finite() {
            return Err("persisted weights contain non-finite values".into());
        }
        // Cold entry point: persisted P round-trips bit-exactly (so this is
        // a no-op for our own snapshots), but hand-assembled or truncated
        // state must enter the symmetry-preserving hot path exactly
        // symmetric.
        let mut p = p;
        p.symmetrize();
        Ok(OsElmSkipGram {
            dirty: DirtyRows::new(beta_t.rows()),
            beta_t,
            p,
            draw: NegativeDraw::new(&cfg.model),
            scratch: Scratch::new(d),
            clamped: 0,
            cfg,
        })
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

    /// How many context updates hit the denominator floor.
    pub fn clamped_updates(&self) -> u64 {
        self.clamped
    }

    /// Drains the set of rows whose `β` column was written since the last
    /// call, ascending — the same contract as the accelerator's
    /// `take_dirty`. A host keeping a float view only needs to re-render
    /// these rows ([`OsElmSkipGram::embed_row`]).
    pub fn take_dirty(&mut self) -> Vec<NodeId> {
        self.dirty.take()
    }

    /// One embedding row (`μ·β[:, node]`) into `out`; bit-identical to the
    /// corresponding row of [`EmbeddingModel::embedding`].
    pub fn embed_row(&self, node: NodeId, out: &mut [f32]) {
        let mu = self.cfg.mu;
        for (o, &b) in out.iter_mut().zip(self.beta_t.row(node as usize)) {
            *o = b * mu;
        }
    }

    /// Trains one context against the positives/negatives the caller left in
    /// `scratch.samples`.
    fn train_context(&mut self, center: NodeId) {
        let d = self.cfg.model.dim;
        let Scratch { h, ph, phn, samples } = &mut self.scratch;
        // H = μ·β[:,center]
        let brow = self.beta_t.row(center as usize);
        for i in 0..d {
            h[i] = self.cfg.mu * brow[i];
        }
        // Pʜ = P·Hᵀ (P symmetric ⇒ also (H·P)ᵀ)
        ops::gemv(&self.p, h, ph);
        let hph = ops::dot(h, ph);
        let lambda = self.cfg.forgetting;
        let mut denom = if self.cfg.regularized { lambda + hph } else { hph };
        if self.cfg.regularized && denom < POSITIVITY_GUARD * lambda {
            // hᵀPh should be ≥ 0 for PSD P; a materially negative value
            // means accumulated float drift has dented P along this
            // direction. Dividing by a near-zero or negative denominator
            // would FLIP the downdate into an explosive update, so skip the
            // P update for this context (β still trains with gain Pʜ).
            self.clamped += 1;
            seqge_obs::static_counter!("seqge_core_p_guard_total").inc();
            phn.copy_from_slice(ph);
        } else {
            if denom.abs() < DENOM_FLOOR {
                denom = if denom < 0.0 { -DENOM_FLOOR } else { DENOM_FLOOR };
                self.clamped += 1;
                seqge_obs::static_counter!("seqge_core_p_guard_total").inc();
            }
            if lambda < 1.0 {
                // Exponentially-weighted RLS: downdate, inflate P so old
                // evidence decays, and cap the trace against wind-up
                // (PSD-preserving — entrywise clamping destroys definiteness
                // and diverges) — all in one fused sweep that keeps P
                // exactly symmetric (see the invariant note above).
                let cap = self.cfg.p0_scale * d as f32;
                ops::p_downdate_forget(&mut self.p, ph, denom, 1.0 / lambda, cap);
            } else {
                ops::p_downdate_sym(&mut self.p, ph, denom);
            }
            // Line 7: PʜΝ = P_i·Hᵀ with the updated P. Expanding the
            // downdate, P_i·Hᵀ = Pʜ − Pʜ·(HPHᵀ)/denom = Pʜ·(1 − HPHᵀ/denom)
            // — an exact scalar rescale, so the second O(d²) gemv of the
            // literal algorithm is unnecessary.
            let rescale = 1.0 - hph / denom;
            for i in 0..d {
                phn[i] = ph[i] * rescale;
            }
        }
        // Column updates: per-sample dot → axpy interleave, exactly
        // Algorithm 1 lines 9–10. Each dot and axpy is internally unrolled,
        // and touching a row's 128 cache-hot bytes for both its read and
        // its update in one pass beats the gather-then-scatter block form
        // that the dataflow model uses — there the gather is *semantic*
        // (stage 3 reads frozen β), here it would only add a second pass
        // plus duplicate-row bookkeeping.
        for &(sample, y) in samples.iter() {
            let row = self.beta_t.row_mut(sample as usize);
            let e = y - ops::dot(h, row);
            ops::axpy(e, phn, row);
        }
        // Marked after the update loop, not inside it: one byte store per
        // sample keeps the dot → axpy chain free of extra memory traffic.
        for &(sample, _) in samples.iter() {
            self.dirty.mark(sample);
        }
    }
}

impl EmbeddingModel for OsElmSkipGram {
    fn train_walk(&mut self, walk: &[NodeId], negatives: &NegativeTable, rng: &mut Rng64) {
        self.draw.begin_walk(walk, negatives, rng);
        let mut ctxs = 0u64;
        for (center, positives) in context_windows(walk, self.cfg.model.window) {
            let samples = &mut self.scratch.samples;
            samples.clear();
            for &pos in positives {
                samples.push((pos, 1.0));
                for &neg in self.draw.for_positive(pos, negatives, rng) {
                    samples.push((neg, 0.0));
                }
            }
            self.train_context(center);
            ctxs += 1;
        }
        // One registry touch per walk, not per context: the inner loop is
        // the paper's Algorithm 1 hot path.
        seqge_obs::static_counter!("seqge_core_contexts_total").add(ctxs);
    }

    fn embedding(&self) -> Mat<f32> {
        // W_in = μ·βᵀ — one scaled pass over the transposed-β storage (the
        // same bits `scal` on a copy gives: each entry is one `b * μ`).
        let (mu, beta) = (self.cfg.mu, &self.beta_t);
        Mat::from_vec(beta.rows(), beta.cols(), beta.as_slice().iter().map(|&b| b * mu).collect())
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
        "oselm-skipgram"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NegativeMode;
    use seqge_sampling::{UpdatePolicy, WalkCorpus};

    pub(crate) fn ready_table(n: usize) -> NegativeTable {
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
                negative_mode: NegativeMode::PerPosition,
                seed: 11,
            },
            mu: 0.01,
            p0_scale: 10.0,
            regularized: true,
            forgetting: 1.0,
        }
    }

    #[test]
    fn shapes_and_size() {
        let m = OsElmSkipGram::new(50, cfg(16));
        assert_eq!(m.num_nodes(), 50);
        assert_eq!(m.dim(), 16);
        assert_eq!(m.embedding().rows(), 50);
        assert_eq!(m.model_bytes(), 50 * 16 * 4 + 16 * 16 * 4);
        assert_eq!(m.p()[(0, 0)], 10.0);
        assert_eq!(m.p()[(0, 1)], 0.0);
    }

    #[test]
    fn training_contracts_p() {
        let mut m = OsElmSkipGram::new(30, cfg(8));
        let table = ready_table(30);
        let mut rng = Rng64::seed_from_u64(1);
        let trace_before: f32 = (0..8).map(|i| m.p()[(i, i)]).sum();
        for _ in 0..20 {
            m.train_walk(&(0..30u32).collect::<Vec<_>>(), &table, &mut rng);
        }
        let trace_after: f32 = (0..8).map(|i| m.p()[(i, i)]).sum();
        assert!(trace_after < trace_before, "RLS must contract P: {trace_before} → {trace_after}");
        assert!(trace_after > 0.0, "P must remain positive on the diagonal");
    }

    #[test]
    fn training_is_deterministic() {
        let table = ready_table(25);
        let run = || {
            let mut m = OsElmSkipGram::new(25, cfg(8));
            let mut rng = Rng64::seed_from_u64(5);
            m.train_walk(&(0..25u32).collect::<Vec<_>>(), &table, &mut rng);
            m.beta_t().clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn weights_stay_finite_and_unclamped_when_regularized() {
        let mut m = OsElmSkipGram::new(40, cfg(16));
        let table = ready_table(40);
        let mut rng = Rng64::seed_from_u64(9);
        let walk: Vec<NodeId> = (0..40u32).collect();
        for _ in 0..100 {
            m.train_walk(&walk, &table, &mut rng);
        }
        assert!(m.beta_t().all_finite());
        assert!(m.p().all_finite());
        assert_eq!(m.clamped_updates(), 0, "regularized runs should never clamp");
    }

    #[test]
    fn positive_samples_score_higher_after_training() {
        // Walk alternates 0 and 1 so they are each other's positives.
        let mut m = OsElmSkipGram::new(40, cfg(16));
        let table = ready_table(40);
        let mut rng = Rng64::seed_from_u64(3);
        let walk: Vec<NodeId> = (0..40).map(|i| if i % 2 == 0 { 0 } else { 1 }).collect();
        for _ in 0..30 {
            m.train_walk(&walk, &table, &mut rng);
        }
        // Score of node-1 as output given center 0: H·β[:,1]
        let h: Vec<f32> = m.beta_t().row(0).iter().map(|&b| b * 0.01).collect();
        let pos = ops::dot(&h, m.beta_t().row(1));
        let unrelated = ops::dot(&h, m.beta_t().row(37));
        assert!(pos > unrelated, "positive {pos} should beat unrelated {unrelated}");
    }

    #[test]
    fn unregularized_variant_clamps_and_degrades() {
        // The paper-literal denominator HPHᵀ (no +1) drives P singular; the
        // clamp counter must record trouble on repeated training.
        let mut c = cfg(8);
        c.regularized = false;
        let mut m = OsElmSkipGram::new(20, c);
        let table = ready_table(20);
        let mut rng = Rng64::seed_from_u64(2);
        let walk: Vec<NodeId> = (0..20u32).collect();
        for _ in 0..50 {
            m.train_walk(&walk, &table, &mut rng);
        }
        // Either it clamped, or P's trace collapsed toward zero.
        let trace: f32 = (0..8).map(|i| m.p()[(i, i)]).sum();
        assert!(
            m.clamped_updates() > 0 || trace.abs() < 1e-3,
            "unregularized update should degenerate (clamped={}, trace={trace})",
            m.clamped_updates()
        );
    }

    #[test]
    fn mu_scales_embedding() {
        let m = OsElmSkipGram::new(10, cfg(4));
        let e = m.embedding();
        for r in 0..10 {
            for c in 0..4 {
                assert!((e[(r, c)] - 0.01 * m.beta_t()[(r, c)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn dirty_rows_cover_all_beta_changes() {
        let mut m = OsElmSkipGram::new(60, cfg(8));
        let table = ready_table(60);
        let mut rng = Rng64::seed_from_u64(4);
        let mut row = vec![0f32; 8];
        for walk in [vec![0u32, 1, 2, 3, 4, 5, 6], vec![10, 11, 10, 12], vec![7]] {
            let before = m.beta_t().clone();
            m.train_walk(&walk, &table, &mut rng);
            let dirty = m.take_dirty();
            assert!(dirty.windows(2).all(|w| w[0] < w[1]), "ascending, no duplicates: {dirty:?}");
            for node in 0..60u32 {
                if m.beta_t().row(node as usize) != before.row(node as usize) {
                    assert!(dirty.contains(&node), "node {node} changed but is not dirty");
                }
            }
            assert!(m.take_dirty().is_empty(), "take_dirty drains");
            for node in 0..60 {
                m.embed_row(node, &mut row);
                assert_eq!(row, m.embedding().row(node as usize), "row {node}");
            }
        }
    }

    #[test]
    fn invalid_config_rejected() {
        let mut c = cfg(8);
        c.mu = 0.0;
        assert!(c.validate().is_err());
        c.mu = 0.01;
        c.p0_scale = -1.0;
        assert!(c.validate().is_err());
    }
}
