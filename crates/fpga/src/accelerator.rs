//! The functional accelerator: Algorithm 2 in Q8.24 fixed point, counting
//! what it did.
//!
//! This is the bit-level twin of `seqge_core::DataflowOsElm`: same deferred
//! `ΔP`/`Δβ` schedule, same seeds and initial weights, but every arithmetic
//! operation goes through the `seqge-fixed` datapath (saturating Q8.24,
//! DSP-style wide accumulation). The difference between this model's
//! embedding and the float model's embedding *is* the quantization effect
//! the paper's Fig. 4 measures, and `stats.cycles` prices each walk with
//! [`TimingModel::walk_cycles`]. The kernel only trains and counts: the BRAM
//! tile traffic of its access stream is replayed outside it
//! ([`crate::bram::TileManager::replay`]).

use crate::timing::TimingModel;
use seqge_core::model::{init_weight, EmbeddingModel, NegativeDraw};
use seqge_core::oselm::DeltaBeta;
use seqge_core::{DirtyRows, NegativeMode, OsElmConfig};
use seqge_fixed::ops::{dot_headroom, gated_dot, max_abs_bits, mul_add, MacAccumulator};
use seqge_fixed::{vector, Q8_24};
use seqge_graph::NodeId;
use seqge_linalg::Mat;
use seqge_sampling::{context_windows, NegativeTable, Rng64};
use std::iter::once;

/// Run statistics accumulated across walks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccelStats {
    /// Walks trained.
    pub walks: u64,
    /// Modeled PL cycles: [`TimingModel::walk_cycles`] summed over walks.
    pub cycles: u64,
    /// Saturation events observed on write-back (overflow telemetry).
    pub saturations: u64,
    /// Contexts whose P downdate was skipped by the positivity guard.
    pub guarded: u64,
}

/// The simulated accelerator.
#[derive(Debug, Clone)]
pub struct Accelerator {
    /// βᵀ in Q8.24, row per node.
    beta: Vec<Q8_24>,
    /// P in Q8.24, row-major d×d.
    p: Vec<Q8_24>,
    mu: Q8_24,
    lambda: Q8_24,
    lambda_recip: Q8_24,
    dim: usize,
    num_nodes: usize,
    regularized: bool,
    draw: NegativeDraw,
    cfg: OsElmConfig,
    // Per-walk Δβ accumulators (stage-3/4 BRAM) and the per-context frozen
    // scores read next to them.
    delta_beta: DeltaBeta<Q8_24>,
    // Rows whose β changed since the last `take_dirty` — the DRAM write-back
    // set a host would have to re-fetch to refresh a dequantized view.
    dirty: DirtyRows,
    // The walk's shared negative set, copied out of `draw` once per walk.
    negs: Vec<NodeId>,
    h: Vec<Q8_24>,
    ph: Vec<Q8_24>,
    phn: Vec<Q8_24>,
    /// Statistics.
    pub stats: AccelStats,
}

impl Accelerator {
    /// Builds the accelerator with weights quantized from the same float
    /// init the CPU models use (identical seed ⇒ Fig. 4 comparability).
    /// The paper's accelerator shares negatives per walk (§3.2), so the
    /// negative mode is forced to [`NegativeMode::PerWalk`].
    pub fn new(num_nodes: usize, cfg: OsElmConfig) -> Self {
        let d = cfg.model.dim;
        let mut rng = Rng64::seed_from_u64(cfg.model.seed);
        let beta = (0..num_nodes * d).map(|_| Q8_24::from_f32(init_weight(&mut rng, d))).collect();
        let mut p = vec![Q8_24::ZERO; d * d];
        for i in 0..d {
            p[i * d + i] = Q8_24::from_f32(cfg.p0_scale);
        }
        Accelerator::from_raw_parts(num_nodes, cfg, beta, p)
    }

    /// Rebuilds an accelerator from raw Q8.24 state (β then P, both as
    /// produced by [`Accelerator::beta_bits`] / [`Accelerator::p_bits`]).
    /// The configuration goes through the same [`NegativeMode::PerWalk`]
    /// forcing as [`Accelerator::new`], so a restored accelerator replays
    /// the exact RNG schedule of the one that was saved. Panics on state
    /// [`Accelerator::try_from_raw_parts`] refuses.
    pub fn from_raw_parts(
        num_nodes: usize,
        cfg: OsElmConfig,
        beta: Vec<Q8_24>,
        p: Vec<Q8_24>,
    ) -> Self {
        Accelerator::try_from_raw_parts(num_nodes, cfg, beta, p).expect("invalid accelerator state")
    }

    /// [`Accelerator::from_raw_parts`] for state that arrives from outside
    /// the program (a snapshot file): a configuration that fails validation,
    /// or a β / P length that disagrees with `num_nodes × d` / `d × d`, is an
    /// error.
    pub fn try_from_raw_parts(
        num_nodes: usize,
        cfg: OsElmConfig,
        beta: Vec<Q8_24>,
        p: Vec<Q8_24>,
    ) -> Result<Self, String> {
        cfg.validate()?;
        let cfg = OsElmConfig {
            model: seqge_core::ModelConfig { negative_mode: NegativeMode::PerWalk, ..cfg.model },
            ..cfg
        };
        let d = cfg.model.dim;
        if num_nodes.checked_mul(d) != Some(beta.len()) {
            return Err(format!("beta holds {} words, expected {num_nodes}x{d}", beta.len()));
        }
        if p.len() != d * d {
            return Err(format!("P holds {} words, expected {d}x{d}", p.len()));
        }
        Ok(Accelerator {
            beta,
            p,
            mu: Q8_24::from_f32(cfg.mu),
            lambda: Q8_24::from_f32(cfg.forgetting),
            lambda_recip: Q8_24::from_f32(1.0 / cfg.forgetting),
            dim: d,
            num_nodes,
            regularized: cfg.regularized,
            draw: NegativeDraw::new(&cfg.model),
            delta_beta: DeltaBeta::new(num_nodes, d),
            dirty: DirtyRows::new(num_nodes),
            negs: Vec::new(),
            h: vec![Q8_24::ZERO; d],
            ph: vec![Q8_24::ZERO; d],
            phn: vec![Q8_24::ZERO; d],
            stats: AccelStats::default(),
            cfg,
        })
    }

    /// The (PerWalk-forced) OS-ELM configuration this accelerator runs.
    pub fn config(&self) -> &OsElmConfig {
        &self.cfg
    }

    /// βᵀ raw fixed-point words, row per node (persistence: these bits, not
    /// a float round-trip, are the deterministic-replay state).
    pub fn beta_bits(&self) -> &[Q8_24] {
        &self.beta
    }

    /// P raw fixed-point words, row-major d×d.
    pub fn p_bits(&self) -> &[Q8_24] {
        &self.p
    }

    /// Drains the set of rows whose β changed since the last call, sorted.
    /// A host mirroring the accelerator's DRAM into a float serving view
    /// only needs to re-dequantize these rows.
    pub fn take_dirty(&mut self) -> Vec<NodeId> {
        self.dirty.take()
    }

    /// Dequantizes one embedding row (μ·β) into `out`; bit-identical to the
    /// corresponding row of [`EmbeddingModel::embedding`].
    pub fn embed_row(&self, node: NodeId, out: &mut [f32]) {
        let d = self.dim;
        let mu = self.mu.to_f32();
        let base = node as usize * d;
        for (o, b) in out.iter_mut().zip(&self.beta[base..base + d]) {
            *o = mu * b.to_f32();
        }
    }

    /// βᵀ dequantized (row per node).
    pub fn beta_f32(&self) -> Mat<f32> {
        Mat::from_fn(self.num_nodes, self.dim, |r, c| self.beta[r * self.dim + c].to_f32())
    }

    /// P dequantized.
    pub fn p_f32(&self) -> Mat<f32> {
        Mat::from_fn(self.dim, self.dim, |r, c| self.p[r * self.dim + c].to_f32())
    }

    /// One context in the fixed-point datapath (Stages 1–4 of Algorithm 2)
    /// against `positives` × (itself + the walk's shared negatives).
    #[inline(always)]
    fn context_fixed(&mut self, center: NodeId, positives: &[NodeId]) {
        let d = self.dim;
        // Stage 1: H = μ·β[center].
        for i in 0..d {
            self.h[i] = self.mu.sat_mul(self.beta[center as usize * d + i]);
        }
        // Every dot product of this context has H as one operand, so one
        // range check on H decides for all of them whether the wide
        // accumulation can run as independent lanes (always, at the paper's
        // μ and d) or must keep the saturating chain.
        let wide = dot_headroom(&self.h);
        // Stage 2: Pʜ = P·Hᵀ, HPHᵀ.
        for r in 0..d {
            self.ph[r] = gated_dot(wide, &self.p[r * d..(r + 1) * d], &self.h);
        }
        let hph = gated_dot(wide, &self.h, &self.ph);
        let denom = if self.regularized { self.lambda.sat_add(hph) } else { hph };
        // Positivity guard (comparator): float drift / quantization can dent
        // P's definiteness; a near-zero or negative denominator would flip
        // the downdate into an explosive update. Skip the P update and train
        // β with gain Pʜ for this context.
        let guard_threshold = self.lambda.sat_mul(Q8_24::from_f32(0.5));
        let healthy = !self.regularized || denom > guard_threshold;
        let inv = denom.recip();
        // Stage 4a: the P downdate. The ΔP accumulator is forwarded with
        // pipeline-register staleness (see `seqge_core::oselm::PVisibility`
        // — whole-walk freezing diverges), so the on-chip running P absorbs
        // each context's downdate immediately; DRAM write-back still happens
        // once per walk (the timing model prices exactly one P round-trip).
        if healthy {
            vector::rank1_downdate(&mut self.p, d, &self.ph, &self.ph, inv);
        } else {
            self.stats.guarded += 1;
        }
        if healthy && self.lambda_recip > Q8_24::ONE {
            // (Triangular P storage in hardware makes asymmetry impossible;
            // the flat model mirrors after the update below.)
            // EW-RLS inflation (forgetting < 1) with trace normalization
            // against covariance wind-up (PSD-preserving, unlike entrywise
            // clamping; one extra multiplier pass in hardware).
            vector::scale(self.lambda_recip, &mut self.p);
            let mut tr = MacAccumulator::new();
            for i in 0..d {
                tr.mac(self.p[i * d + i], Q8_24::ONE);
            }
            let trace: Q8_24 = tr.finish();
            let cap = Q8_24::from_f32(self.cfg.p0_scale * d as f32);
            if trace > cap {
                let factor = cap.sat_div(trace);
                vector::scale(factor, &mut self.p);
            }
            for r in 0..d {
                for c in (r + 1)..d {
                    // Mirror the upper triangle (triangular-storage model).
                    self.p[c * d + r] = self.p[r * d + c];
                }
            }
        }
        // PʜΝ = Pʜ·(1 − HPHᵀ·inv); under the guard P is unchanged, so the
        // gain is Pʜ itself.
        let scale = if healthy { Q8_24::ONE.sat_sub(hph.sat_mul(inv)) } else { Q8_24::ONE };
        for i in 0..d {
            self.phn[i] = self.ph[i].sat_mul(scale);
        }
        let phn_max = max_abs_bits(&self.phn);
        // Stage 3 + 4b: per-sample error and Δβ accumulation. As in the
        // float model, the error reads the effective column β + Δβ (the Δβ
        // accumulator lives in the same BRAM the sample stage reads); only
        // the P chain is frozen for the dataflow optimization. β itself is
        // written once per walk (`commit_walk`) and H is fixed inside the
        // context, so the frozen score H·β[s] is computed once per column
        // and context — §3.2's reason for sharing negatives: each recurs
        // under every positive.
        self.delta_beta.begin_context();
        for &pos in positives {
            let negs = self.negs.iter().map(|&neg| (neg, Q8_24::ZERO));
            for (sample, y) in once((pos, Q8_24::ONE)).chain(negs) {
                let slot = self.delta_beta.slot(sample);
                let frozen = self.delta_beta.frozen_score(slot, || {
                    gated_dot(wide, &self.h, &self.beta[sample as usize * d..][..d])
                });
                let column = self.delta_beta.column_mut(slot);
                let e = y.sat_sub(frozen.sat_add(gated_dot(wide, &self.h, column)));
                mul_add(e, &self.phn, phn_max, column);
            }
        }
    }

    /// Applies the per-walk Δβ (Algorithm 2 line 20) and counts saturation
    /// events (the running P was updated in place; line 19's commit is the
    /// DRAM write-back, priced by the timing model).
    #[inline(always)]
    fn commit_walk(&mut self) {
        let d = self.dim;
        for i in 0..d * d {
            if self.p[i].is_saturated() {
                self.stats.saturations += 1;
            }
        }
        self.delta_beta.commit(|node, delta| {
            self.dirty.mark(node);
            let base = node as usize * d;
            for (b, &dv) in self.beta[base..base + d].iter_mut().zip(delta) {
                *b = b.sat_add(dv);
                if b.is_saturated() {
                    self.stats.saturations += 1;
                }
            }
        });
    }

    /// One walk of Algorithm 2 — the only source of the kernel. It is
    /// `#[inline(always)]`, as are `context_fixed` and `commit_walk` under
    /// it, so that each caller compiles its own copy with its own target
    /// features: [`EmbeddingModel::train_walk`] at the build's baseline, and
    /// [`Self::train_walk_avx2`] with the 64-bit vector lanes the Q8.24
    /// `i32×i32→i64` products want.
    #[inline(always)]
    fn train_walk_body(&mut self, walk: &[NodeId], negatives: &NegativeTable, rng: &mut Rng64) {
        let windows = context_windows(walk, self.cfg.model.window);
        let n_ctx = windows.len();
        if n_ctx == 0 {
            return;
        }
        self.draw.begin_walk(walk, negatives, rng);
        // PerWalk mode (forced by the constructors): `begin_walk` drew the
        // walk's one negative set and `for_positive` hands it out for any
        // positive without touching the RNG.
        self.negs.clear();
        self.negs.extend_from_slice(self.draw.for_positive(walk[0], negatives, rng));
        let mut max_samples = 0usize;
        for (center, positives) in windows {
            max_samples = max_samples.max(positives.len() * (1 + self.negs.len()));
            self.context_fixed(center, positives);
        }
        self.commit_walk();
        self.stats.walks += 1;
        self.stats.cycles += TimingModel::default().walk_cycles(self.dim, n_ctx, max_samples);
    }

    /// [`Self::train_walk_body`] instantiated with AVX2: baseline x86-64
    /// (SSE2) has no signed 32×32→64 vector multiply, so without this every
    /// MAC of the lane kernels is a scalar `imul`. Same integer arithmetic,
    /// same bits — lane sums are associative and every clamp sits behind its
    /// range check.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn train_walk_avx2(&mut self, walk: &[NodeId], negatives: &NegativeTable, rng: &mut Rng64) {
        self.train_walk_body(walk, negatives, rng);
    }
}

/// Whether [`EmbeddingModel::train_walk`] takes the AVX2 instantiation on
/// this CPU (detected once by `std`, then a cached load).
fn has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// Which instantiation of the Q8.24 kernel [`Accelerator`] runs on this
/// host: `"avx2"` or `"baseline"`. Both train the same bits; this is for
/// boot logs and benchmark records, where it explains a throughput.
pub fn kernel_isa() -> &'static str {
    if has_avx2() {
        "avx2"
    } else {
        "baseline"
    }
}

impl EmbeddingModel for Accelerator {
    fn train_walk(&mut self, walk: &[NodeId], negatives: &NegativeTable, rng: &mut Rng64) {
        #[cfg(target_arch = "x86_64")]
        if has_avx2() {
            // SAFETY: `has_avx2` on the line above is `is_x86_feature_detected!("avx2")`,
            // the one requirement of a `#[target_feature(enable = "avx2")]` function.
            return unsafe { self.train_walk_avx2(walk, negatives, rng) };
        }
        self.train_walk_body(walk, negatives, rng);
    }

    fn embedding(&self) -> Mat<f32> {
        let mu = self.mu.to_f32();
        Mat::from_fn(self.num_nodes, self.dim, |r, c| mu * self.beta[r * self.dim + c].to_f32())
    }

    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn model_bytes(&self) -> usize {
        self.beta.len() * 4 + self.p.len() * 4
    }

    fn name(&self) -> &'static str {
        "fpga-accelerator"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqge_core::{full_corpus, DataflowOsElm, ModelConfig, TrainConfig};
    use seqge_fixed::ops::{lane_fits, mac_dot};
    use seqge_graph::generators::classic::erdos_renyi;
    use seqge_sampling::{Node2VecParams, UpdatePolicy, WalkCorpus};

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
            mu: 0.05,
            p0_scale: 10.0,
            regularized: true,
            forgetting: 1.0,
        }
    }

    #[test]
    fn init_matches_float_model_after_quantization() {
        let acc = Accelerator::new(20, cfg(8));
        let float_model = DataflowOsElm::new(20, cfg(8));
        let diff = acc.beta_f32().max_abs_diff(float_model.beta_t());
        assert!(diff < 1e-6, "quantized init should match float init: {diff}");
        assert_eq!(acc.p_f32()[(0, 0)], 10.0);
    }

    #[test]
    fn tracks_float_dataflow_model_closely() {
        // One walk: the fixed-point trajectory must stay near the float
        // Algorithm 2 trajectory (quantization error ≪ weight scale).
        let table = ready_table(30);
        let mut acc = Accelerator::new(30, cfg(8));
        let mut float_model = DataflowOsElm::new(30, cfg(8));
        let walk: Vec<NodeId> = (0..20u32).collect();
        // Same rng seed ⇒ same shared negative draws.
        let mut r1 = Rng64::seed_from_u64(3);
        let mut r2 = Rng64::seed_from_u64(3);
        acc.train_walk(&walk, &table, &mut r1);
        float_model.train_walk(&walk, &table, &mut r2);
        let diff = acc.beta_f32().max_abs_diff(float_model.beta_t());
        assert!(diff < 1e-3, "fixed-point drift too large after one walk: {diff}");
    }

    #[test]
    fn cycles_accumulate_per_walk() {
        let table = ready_table(20);
        let mut acc = Accelerator::new(20, cfg(8));
        let mut rng = Rng64::seed_from_u64(1);
        let walk: Vec<NodeId> = (0..12u32).collect();
        acc.train_walk(&walk, &table, &mut rng);
        let after_one = acc.stats.cycles;
        assert!(after_one > 0);
        acc.train_walk(&walk, &table, &mut rng);
        assert_eq!(acc.stats.cycles, 2 * after_one, "same walk shape, same cycles");
        assert_eq!(acc.stats.walks, 2);
    }

    #[test]
    fn paper_walk_latency_matches_table3() {
        // A full-protocol walk (l=80, w=8, ns=10) must cost what Table 3
        // reports for its dimension.
        let n = 200;
        let mut c = cfg(32);
        c.model.window = 8;
        c.model.negative_samples = 10;
        let table = ready_table(n);
        let mut acc = Accelerator::new(n, c);
        let mut rng = Rng64::seed_from_u64(5);
        let walk: Vec<NodeId> = (0..80).map(|i| i % n as u32).collect();
        acc.train_walk(&walk, &table, &mut rng);
        let ms = crate::cycles_to_millis(acc.stats.cycles);
        assert!((ms - 0.777).abs() / 0.777 < 0.02, "walk latency {ms:.3} ms");
    }

    #[test]
    fn long_training_stays_in_range() {
        let table = ready_table(40);
        let mut acc = Accelerator::new(40, cfg(16));
        let mut rng = Rng64::seed_from_u64(9);
        let walk: Vec<NodeId> = (0..40u32).collect();
        for _ in 0..50 {
            acc.train_walk(&walk, &table, &mut rng);
        }
        assert_eq!(acc.stats.saturations, 0, "healthy training must not saturate");
        let emb = acc.embedding();
        assert!(emb.all_finite());
    }

    #[test]
    fn dirty_rows_cover_all_beta_changes() {
        let table = ready_table(30);
        let mut acc = Accelerator::new(30, cfg(8));
        let mut rng = Rng64::seed_from_u64(7);
        // Two overlapping walks with a drain in between: the second drain
        // must report the second walk's rows only, re-dirtied ones included.
        for walk in [(0..16u32).collect::<Vec<NodeId>>(), (8..24u32).collect()] {
            let before = acc.clone();
            acc.train_walk(&walk, &table, &mut rng);
            let dirty = acc.take_dirty();
            assert!(!dirty.is_empty());
            assert!(dirty.windows(2).all(|w| w[0] < w[1]), "sorted, no duplicates: {dirty:?}");
            for node in 0..30u32 {
                let changed = acc.beta_bits()[node as usize * 8..(node as usize + 1) * 8]
                    != before.beta_bits()[node as usize * 8..(node as usize + 1) * 8];
                assert_eq!(changed, dirty.contains(&node), "node {node} dirty mismatch");
            }
            assert!(acc.take_dirty().is_empty(), "take_dirty drains");
        }
    }

    /// β uniform in ±120 under P = 100·I at μ = 1, so that `H = β[center]`:
    /// the state `tests/stream_pin.rs` pins as its rail regime.
    fn rail_state(n: usize, cfg: OsElmConfig) -> Accelerator {
        let d = cfg.model.dim;
        let mut rng = Rng64::seed_from_u64(9);
        let beta = (0..n * d).map(|_| Q8_24::from_f64((rng.next_f64() - 0.5) * 240.0)).collect();
        let mut p = vec![Q8_24::ZERO; d * d];
        for i in 0..d {
            p[i * d + i] = Q8_24::from_f64(100.0);
        }
        Accelerator::from_raw_parts(n, OsElmConfig { mu: 1.0, ..cfg }, beta, p)
    }

    #[test]
    fn rail_state_fails_both_headroom_checks() {
        // The state `tests/stream_pin.rs` pins as its rail regime: β in
        // ±120, P = 100·I, μ = 1. That pin covers the scalar reference
        // arithmetic only if the range checks really fail there.
        let d = 32usize;
        let mut acc = rail_state(40, cfg(d));
        acc.negs = vec![1, 2, 3];
        // First context, P still definite: the downdate runs, on railed Pʜ.
        acc.context_fixed(0, &[4, 5, 6]);
        assert_eq!(acc.stats.guarded, 0);
        assert!(!dot_headroom(&acc.h), "H = β[center] is far above 2³²/d");
        let inv = acc.lambda.sat_add(mac_dot(&acc.h, &acc.ph)).recip();
        let ph_max = max_abs_bits(&acc.ph);
        let clamped_rows = acc.ph.iter().filter(|g| !lane_fits(g.sat_mul(inv), ph_max)).count();
        assert!(clamped_rows > d / 2, "{clamped_rows} of {d} downdate rows need the clamp");
        // A few contexts later P is indefinite, the guard fires and the gain
        // is the railed Pʜ itself: even a unit error times it needs the clamp.
        let mut center = 7;
        while acc.stats.guarded == 0 {
            acc.context_fixed(center, &[8, 9]);
            center += 1;
        }
        assert!(!dot_headroom(&acc.h));
        assert!(!lane_fits(Q8_24::ONE, max_abs_bits(&acc.phn)));
    }

    /// Trains `accel` through `train_walk_body` as this build compiled it and
    /// a clone through `train_walk` (the selector) over the same walks and
    /// RNG stream — the corpus construction of `tests/stream_pin.rs` — and
    /// asserts that nothing observable differs.
    fn assert_selector_matches_baseline(accel: Accelerator, l: usize, walks: usize, seed: u64) {
        let n = accel.num_nodes();
        let g = erdos_renyi(n, 6.0 / n as f64, seed);
        let cfg = TrainConfig {
            walk: Node2VecParams { walk_length: l, walks_per_node: 1, ..Default::default() },
            model: accel.config().model,
        };
        let (_, corpus, table, rng) = full_corpus(&g, &cfg, seed);
        let corpus: Vec<_> = corpus.iter().filter(|w| w.len() > 1).take(walks).collect();
        assert_eq!(corpus.len(), walks, "graph too sparse for the requested walk count");
        let (mut selected, mut baseline) = (accel.clone(), accel);
        let (mut rng_s, mut rng_b) = (rng.clone(), rng);
        for (i, walk) in corpus.iter().enumerate() {
            selected.train_walk(walk, &table, &mut rng_s);
            baseline.train_walk_body(walk, &table, &mut rng_b);
            if i % 16 == 15 {
                assert_eq!(selected.take_dirty(), baseline.take_dirty(), "dirty rows, walk {i}");
            }
        }
        assert_eq!(selected.beta_bits(), baseline.beta_bits());
        assert_eq!(selected.p_bits(), baseline.p_bits());
        assert_eq!(selected.stats, baseline.stats);
        assert_eq!(selected.take_dirty(), baseline.take_dirty());
        assert_eq!(rng_s.next_u64(), rng_b.next_u64());
    }

    #[test]
    fn avx2_instantiation_matches_the_baseline_body() {
        // Every CI host has AVX2, so `tests/stream_pin.rs` only ever pins
        // that instantiation; this is what holds the other one to the same
        // bits, in each of the pin's four arithmetic regimes.
        if !has_avx2() {
            println!("skipped: no avx2, the selector runs the baseline body");
            return;
        }
        let paper = OsElmConfig::paper_defaults;
        // (a) The benchmark's geometry.
        assert_selector_matches_baseline(Accelerator::new(1000, paper(32)), 80, 48, 3);
        // (b) Lane tails: d a multiple of no vector width.
        assert_selector_matches_baseline(Accelerator::new(300, paper(12)), 40, 96, 5);
        assert_selector_matches_baseline(Accelerator::new(300, paper(20)), 40, 96, 6);
        // (c) forgetting < 1: healthy, and inflating onto the rails.
        for forgetting in [0.9995, 0.98] {
            let cfg = OsElmConfig { forgetting, ..paper(16) };
            assert_selector_matches_baseline(Accelerator::new(300, cfg), 40, 96, 7);
        }
        // (d) A state on the saturation rails: no headroom check passes.
        assert_selector_matches_baseline(rail_state(200, paper(32)), 40, 64, 8);
    }

    #[test]
    fn raw_parts_roundtrip_is_bit_identical() {
        let table = ready_table(30);
        let mut acc = Accelerator::new(30, cfg(8));
        let mut rng = Rng64::seed_from_u64(4);
        let walk: Vec<NodeId> = (0..16u32).collect();
        acc.train_walk(&walk, &table, &mut rng);
        let mut restored = Accelerator::from_raw_parts(
            30,
            *acc.config(),
            acc.beta_bits().to_vec(),
            acc.p_bits().to_vec(),
        );
        // Same state ⇒ identical continuation on the same RNG stream.
        let mut r1 = rng.clone();
        acc.train_walk(&walk, &table, &mut r1);
        restored.train_walk(&walk, &table, &mut rng);
        assert_eq!(acc.beta_bits(), restored.beta_bits());
        assert_eq!(acc.p_bits(), restored.p_bits());
    }

    #[test]
    fn raw_parts_from_outside_are_checked() {
        let acc = Accelerator::new(30, cfg(8));
        let (c, beta, p) = (*acc.config(), acc.beta_bits().to_vec(), acc.p_bits().to_vec());
        let try_parts = |n, c, beta: &[Q8_24], p: &[Q8_24]| {
            Accelerator::try_from_raw_parts(n, c, beta.to_vec(), p.to_vec())
        };
        assert!(try_parts(30, c, &beta, &p).is_ok());
        assert!(try_parts(30, OsElmConfig { forgetting: 0.0, ..c }, &beta, &p).is_err());
        assert!(try_parts(30, OsElmConfig { mu: 0.0, ..c }, &beta, &p).is_err());
        assert!(try_parts(31, c, &beta, &p).unwrap_err().contains("beta"));
        assert!(try_parts(usize::MAX, c, &beta, &p).unwrap_err().contains("beta"));
        assert!(try_parts(30, c, &beta, &p[1..]).unwrap_err().contains("P holds"));
    }

    #[test]
    fn model_bytes_match_proposed_accounting() {
        let acc = Accelerator::new(100, cfg(16));
        assert_eq!(acc.model_bytes(), 100 * 16 * 4 + 16 * 16 * 4);
    }
}
