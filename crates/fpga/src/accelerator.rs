//! The functional accelerator: Algorithm 2 in Q8.24 fixed point, counting
//! what it did.
//!
//! The walk is `seqge_core`'s one [`DataflowKernel`], instantiated here on
//! the `Q824` datapath: same deferred `ΔP`/`Δβ` schedule, guard rule,
//! seeds and initial weights as the float `seqge_core::DataflowOsElm`, but
//! every arithmetic operation goes through the `seqge-fixed` datapath
//! (saturating Q8.24, DSP-style wide accumulation). The difference between
//! the two embeddings *is* the quantization effect the paper's Fig. 4
//! measures. [`Accelerator`] adds what only the hardware has: `stats.cycles`
//! prices each walk with its [`Build::walk_cycles`], and
//! [`EmbeddingModel::train_walk`] picks an AVX2 instantiation of the walk on
//! a CPU that has it. The kernel only trains and counts: the BRAM tile
//! traffic of its access stream is replayed outside it
//! ([`crate::bram::TileManager::replay`]).

use crate::build::Build;
use seqge_core::model::EmbeddingModel;
use seqge_core::oselm::{DataflowKernel, Datapath, Forget};
use seqge_core::{NegativeMode, OsElmConfig};
use seqge_fixed::ops::{dot_headroom, gated_dot, max_abs_bits, mul_add, MacAccumulator};
use seqge_fixed::{vector, Q8_24};
use seqge_graph::NodeId;
use seqge_linalg::Mat;
use seqge_sampling::{NegativeTable, Rng64};

/// The Q8.24 datapath. Every method is `#[inline(always)]`, so that the
/// walk's AVX2 instantiation compiles all of it under its own features.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Q824;

impl Datapath for Q824 {
    type Word = Q8_24;
    /// Whether the wide accumulation can run as independent lanes (always,
    /// at the paper's μ and d) or must keep the saturating chain.
    type Gate = bool;
    type Max = u32;
    const ONE: Q8_24 = Q8_24::ONE;
    const NAME: &'static str = "fpga-accelerator";
    #[inline(always)]
    fn from_f32(x: f32) -> Q8_24 {
        Q8_24::from_f32(x)
    }
    #[inline(always)]
    fn to_f32(x: Q8_24) -> f32 {
        x.to_f32()
    }
    #[inline(always)]
    fn gate(h: &[Q8_24]) -> bool {
        dot_headroom(h)
    }
    #[inline(always)]
    fn dot(wide: bool, x: &[Q8_24], y: &[Q8_24]) -> Q8_24 {
        gated_dot(wide, x, y)
    }
    #[inline(always)]
    fn gemv(wide: bool, p: &Mat<Q8_24>, h: &[Q8_24], ph: &mut [Q8_24]) {
        for (g, row) in ph.iter_mut().zip(p.as_slice().chunks_exact(h.len())) {
            *g = gated_dot(wide, row, h);
        }
    }
    #[inline(always)]
    fn healthy(denom: Q8_24, threshold: Q8_24) -> bool {
        denom > threshold
    }
    #[inline(always)]
    fn recip(denom: Q8_24) -> Q8_24 {
        denom.recip()
    }
    /// `rank1_downdate`, then for λ < 1 the inflation, the trace cap
    /// (PSD-preserving, unlike entrywise clamping; one extra multiplier
    /// pass in hardware) and the mirror of the upper triangle (triangular
    /// `P` storage in hardware makes asymmetry impossible).
    #[inline(always)]
    fn downdate(p: &mut Mat<Q8_24>, ph: &[Q8_24], inv: Q8_24, forget: Forget<Self>) {
        let (d, p) = (ph.len(), p.as_mut_slice());
        vector::rank1_downdate(p, d, ph, ph, inv);
        let Some((lambda_recip, cap)) = forget else { return };
        vector::scale(lambda_recip, p);
        let mut tr = MacAccumulator::new();
        for i in 0..d {
            tr.mac(p[i * d + i], Q8_24::ONE);
        }
        let trace: Q8_24 = tr.finish();
        if trace > cap {
            vector::scale(cap.sat_div(trace), p);
        }
        for r in 0..d {
            for c in (r + 1)..d {
                p[c * d + r] = p[r * d + c];
            }
        }
    }
    #[inline(always)]
    fn gain_scale(hph: Q8_24, inv: Q8_24) -> Q8_24 {
        Q8_24::ONE - hph * inv
    }
    #[inline(always)]
    fn max(x: &[Q8_24]) -> u32 {
        max_abs_bits(x)
    }
    #[inline(always)]
    fn mul_add(a: Q8_24, x: &[Q8_24], x_max: u32, y: &mut [Q8_24]) {
        mul_add(a, x, x_max, y);
    }
    #[inline(always)]
    fn saturated(x: Q8_24) -> bool {
        x.is_saturated()
    }
}

/// Run statistics accumulated across walks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccelStats {
    /// Walks trained.
    pub walks: u64,
    /// Modeled PL cycles: [`Build::walk_cycles`] summed over walks.
    pub cycles: u64,
    /// Saturation events observed on write-back (overflow telemetry).
    pub saturations: u64,
    /// Contexts the positivity guard dropped.
    pub guarded: u64,
}

/// The simulated accelerator.
#[derive(Debug, Clone)]
pub struct Accelerator {
    kernel: DataflowKernel<Q824>,
    /// The build that prices each walk.
    build: Build,
    /// Statistics.
    pub stats: AccelStats,
}

impl Accelerator {
    /// Builds the accelerator with weights quantized from the same float
    /// init the CPU models use (identical seed ⇒ Fig. 4 comparability).
    /// The paper's accelerator shares negatives per walk (§3.2), so the
    /// negative mode is forced to [`NegativeMode::PerWalk`]. Panics on a
    /// dimension [`Build::for_dim`] has no build for.
    pub fn new(num_nodes: usize, cfg: OsElmConfig) -> Self {
        let kernel = DataflowKernel::new(num_nodes, per_walk(cfg));
        let build = Build::for_dim(kernel.dim()).expect("no accelerator build");
        Accelerator { kernel, build, stats: AccelStats::default() }
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
    /// a dimension without a build, or a β / P length that disagrees with
    /// `num_nodes × d` / `d × d`, is an error.
    pub fn try_from_raw_parts(
        num_nodes: usize,
        cfg: OsElmConfig,
        beta: Vec<Q8_24>,
        p: Vec<Q8_24>,
    ) -> Result<Self, String> {
        let kernel = DataflowKernel::try_from_parts(num_nodes, per_walk(cfg), beta, p)?;
        let build = Build::for_dim(kernel.dim())?;
        Ok(Accelerator { kernel, build, stats: AccelStats::default() })
    }

    /// The (PerWalk-forced) OS-ELM configuration this accelerator runs.
    pub fn config(&self) -> &OsElmConfig {
        self.kernel.config()
    }

    /// βᵀ raw fixed-point words, row per node (persistence: these bits, not
    /// a float round-trip, are the deterministic-replay state).
    pub fn beta_bits(&self) -> &[Q8_24] {
        self.kernel.beta_t().as_slice()
    }

    /// P raw fixed-point words, row-major d×d.
    pub fn p_bits(&self) -> &[Q8_24] {
        self.kernel.p().as_slice()
    }

    /// Drains the set of rows whose β changed since the last call, sorted.
    /// A host mirroring the accelerator's DRAM into a float serving view
    /// only needs to re-dequantize these rows.
    pub fn take_dirty(&mut self) -> Vec<NodeId> {
        self.kernel.take_dirty()
    }

    /// Dequantizes one embedding row (μ·β) into `out`; bit-identical to the
    /// corresponding row of [`EmbeddingModel::embedding`].
    pub fn embed_row(&self, node: NodeId, out: &mut [f32]) {
        self.kernel.embed_row(node, out);
    }

    /// βᵀ dequantized (row per node).
    pub fn beta_f32(&self) -> Mat<f32> {
        dequantize(self.kernel.beta_t())
    }

    /// P dequantized.
    pub fn p_f32(&self) -> Mat<f32> {
        dequantize(self.kernel.p())
    }

    /// One walk through the kernel, priced in cycles. It is
    /// `#[inline(always)]`, as is the kernel's walk under it, so that each
    /// caller compiles its own copy with its own target features:
    /// [`EmbeddingModel::train_walk`] at the build's baseline, and
    /// [`Self::train_walk_avx2`] with the 64-bit vector lanes the Q8.24
    /// `i32×i32→i64` products want.
    #[inline(always)]
    fn train_walk_body(&mut self, walk: &[NodeId], negatives: &NegativeTable, rng: &mut Rng64) {
        let (contexts, max_samples) = self.kernel.train(walk, negatives, rng);
        if contexts > 0 {
            self.stats.walks += 1;
            self.stats.cycles += self.build.walk_cycles(contexts, max_samples);
        }
        self.stats.saturations = self.kernel.saturations();
        self.stats.guarded = self.kernel.guarded_updates();
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

/// `cfg` with the accelerator's shared-per-walk negatives.
fn per_walk(cfg: OsElmConfig) -> OsElmConfig {
    OsElmConfig {
        model: seqge_core::ModelConfig { negative_mode: NegativeMode::PerWalk, ..cfg.model },
        ..cfg
    }
}

fn dequantize(m: &Mat<Q8_24>) -> Mat<f32> {
    Mat::from_vec(m.rows(), m.cols(), m.as_slice().iter().map(|w| w.to_f32()).collect())
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
        self.kernel.embedding()
    }

    fn num_nodes(&self) -> usize {
        self.kernel.num_nodes()
    }

    fn dim(&self) -> usize {
        self.kernel.dim()
    }

    fn model_bytes(&self) -> usize {
        self.kernel.model_bytes()
    }

    fn name(&self) -> &'static str {
        self.kernel.name()
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
        let acc = rail_state(40, cfg(d));
        // The first context's stages 1–2, from the state it reads:
        // H = β[center], Pʜ = P·Hᵀ on the saturating chain.
        let h = &acc.beta_bits()[..d];
        assert!(!dot_headroom(h), "H = β[center] is far above 2³²/d");
        let ph: Vec<Q8_24> = acc.p_bits().chunks_exact(d).map(|row| mac_dot(row, h)).collect();
        // P is still definite: the guard passes and the downdate runs, on
        // railed Pʜ.
        let lambda = Q8_24::from_f32(acc.config().forgetting);
        let denom = lambda.sat_add(mac_dot(h, &ph));
        assert!(Q824::healthy(denom, lambda.sat_mul(Q8_24::from_f32(0.5))));
        let (inv, ph_max) = (denom.recip(), max_abs_bits(&ph));
        let clamped_rows = ph.iter().filter(|g| !lane_fits(g.sat_mul(inv), ph_max)).count();
        assert!(clamped_rows > d / 2, "{clamped_rows} of {d} downdate rows need the clamp");
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
