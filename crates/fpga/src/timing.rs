//! The price of a walk, calibrated to the paper's Table 3 FPGA row: the
//! four-stage dataflow kernel, its β-port column traffic and its DMA, in one
//! function ([`TimingModel::walk_cycles`]).
//!
//! Algorithm 2 splits one context into four stages (the `STAGES` table):
//!
//! 1. fetch `β[center]`, scale by `μ` → `H`
//! 2. `P·Hᵀ`, `H·P·Hᵀ` (matrix–vector + reduction)
//! 3. per-sample errors `y − H·β[sample]` (77 dot products at paper params)
//! 4. `hpht_inv`, `ΔP`, `Δβ` accumulation
//!
//! With the dataflow pragma the stages overlap across contexts, so the
//! steady-state interval is the *slowest* stage's, and filling the pipeline
//! costs every stage once. §4.5: the base lane count is 32, raised to 48/64
//! for parts of the d = 64/96 builds "so that execution times of pipeline
//! stages are equalized".
//!
//! Observation driving the model: at the paper's parameters one context
//! touches 78 weight columns (1 center + 7 positives × (1 + 10 negatives)),
//! and every touched column crosses the shared β port (BRAM tile ↔ compute
//! lanes) once per context. At 0.777 ms / 73 contexts / 200 MHz the hardware
//! spends ≈ 2 100 cycles per context — an order of magnitude more than the
//! MAC work — so the kernel is *column-traffic bound*, consistent with the
//! paper's emphasis on reducing DRAM↔BRAM transfers (§3.2, negative-sample
//! reuse). A walk is therefore priced as
//!
//! ```text
//! column(ctx) = ⌈n_cols · 4d / port_bytes⌉ + n_cols · column_overhead
//! cycles(walk) = contexts · max(column(ctx), slowest stage)
//!              + Σ stages (fill) + 2 · DMA(P)
//! ```
//!
//! The tile port is 288 bits wide (four BRAM36 ports of 72 b) ⇒ 36 B/cycle.
//! Sample upload and Δ write-back are double-buffered behind the previous
//! walk's compute; only the `P` round-trip over the AXI HP port is serial.
//! With a 23.7-cycle column overhead the model lands within ~1 % of all three
//! Table 3 FPGA entries.

/// The PL clock in MHz every modeled cycle count is turned into time at: the
/// paper's 200.
pub const CLOCK_MHZ: u32 = 200;

/// Modeled cycles in milliseconds at [`CLOCK_MHZ`].
pub fn cycles_to_millis(cycles: u64) -> f64 {
    cycles as f64 / (CLOCK_MHZ as f64 * 1e3)
}

/// One stage of the kernel.
struct Stage {
    /// Lane width at d ≤ 32, d ≤ 64 and d > 64.
    lanes: [u64; 3],
    /// Initiation interval (cycles per context) from `(d, lanes, samples)`.
    ii: fn(u64, u64, u64) -> u64,
}

/// The four stages, in Algorithm 2's order.
const STAGES: [Stage; 4] = [
    // Read and scale the d values of β[center], lanes-wide.
    Stage { lanes: [32, 32, 32], ii: |d, l, _| d.div_ceil(l) + 2 },
    // P·Hᵀ as d pipelined rows, then the HPHᵀ reduction.
    Stage { lanes: [32, 48, 64], ii: |d, l, _| rows(d, l) + d.div_ceil(l) + REDUCTION_LATENCY },
    // One dot product per sample, lanes-wide reduction.
    Stage { lanes: [32, 48, 48], ii: |d, l, s| s * d.div_ceil(l) + REDUCTION_LATENCY },
    // The reciprocal, the rank-1 ΔP rows and the Δβ columns.
    Stage { lanes: [32, 48, 64], ii: |d, l, s| DIVIDER_LATENCY + rows(d, l) + s * d.div_ceil(l) },
];

const DIVIDER_LATENCY: u64 = 28; // 32-bit fixed reciprocal
const REDUCTION_LATENCY: u64 = 6; // adder tree depth at 32–64 lanes

/// d rows of a d-wide MAC on `lanes` lanes, rows pipelined.
fn rows(d: u64, lanes: u64) -> u64 {
    d * d.div_ceil(lanes) / d.min(lanes).max(1)
}

/// Each stage's II for a `dim`-wide build training `samples` columns per
/// context beyond the center.
fn stage_intervals(dim: usize, samples: usize) -> [u64; 4] {
    let class = match dim {
        d if d <= 32 => 0,
        d if d <= 64 => 1,
        _ => 2,
    };
    STAGES.map(|s| (s.ii)(dim as u64, s.lanes[class], samples as u64))
}

/// Per-column β-port overhead in tenths of a cycle (arbitration + address +
/// pipeline restart, amortized); calibrated to Table 3.
const COLUMN_OVERHEAD_TENTHS: u64 = 237;

/// AXI HP burst transfers: payload bytes per cycle once a burst streams
/// (128-bit AXI4 at the PL clock is 16 B; the HP ports run wider bursts with
/// outstanding transactions, so 32 B effective), cycles to open one burst
/// (address phase + DRAM latency), and the largest burst (256 beats).
const DMA_BYTES_PER_CYCLE: u64 = 32;
const DMA_BURST_LATENCY: u64 = 40;
const DMA_MAX_BURST_BYTES: u64 = 4096;

/// Cycles to move `bytes` between DRAM and the PL as one contiguous transfer
/// (§3.2's DMA controller), split into bursts.
pub fn transfer_cycles(bytes: u64) -> u64 {
    bytes.div_ceil(DMA_MAX_BURST_BYTES) * DMA_BURST_LATENCY + bytes.div_ceil(DMA_BYTES_PER_CYCLE)
}

/// The calibrated timing model. Its one setting is the β-port width, which
/// [`crate::explore`] sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingModel {
    /// β-port payload bytes per cycle (288-bit tile port = 36 B).
    pub port_bytes: u32,
}

impl Default for TimingModel {
    fn default() -> Self {
        TimingModel { port_bytes: 36 }
    }
}

impl TimingModel {
    /// Cycles to train one walk of `contexts` contexts on a `dim`-wide build,
    /// each context touching `samples` β columns beyond its center.
    pub fn walk_cycles(&self, dim: usize, contexts: usize, samples: usize) -> u64 {
        let ii = stage_intervals(dim, samples);
        let slowest = ii.into_iter().max().unwrap_or(0);
        let per_ctx = self.column_cycles(dim, samples).max(slowest);
        let p_bytes = (dim * dim * 4) as u64;
        contexts as u64 * per_ctx + ii.iter().sum::<u64>() + 2 * transfer_cycles(p_bytes)
    }

    /// β-port cycles per context: the center plus `samples` columns.
    fn column_cycles(&self, dim: usize, samples: usize) -> u64 {
        let cols = samples as u64 + 1;
        (cols * 4 * dim as u64).div_ceil(self.port_bytes as u64)
            + (cols * COLUMN_OVERHEAD_TENTHS).div_ceil(10)
    }

    /// Paper-protocol walk latency in ms: 73 contexts × 77 samples.
    pub fn paper_walk_millis(&self, dim: usize) -> f64 {
        cycles_to_millis(self.walk_cycles(dim, 73, 77))
    }
}

/// Paper Table 3 FPGA row: (dim, ms per walk).
pub const PAPER_FPGA_MS: [(usize, f64); 3] = [(32, 0.777), (64, 0.878), (96, 0.985)];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_table3_fpga_row_within_2_percent() {
        let model = TimingModel::default();
        for &(dim, paper_ms) in &PAPER_FPGA_MS {
            let ms = model.paper_walk_millis(dim);
            let err = (ms - paper_ms).abs() / paper_ms;
            assert!(
                err < 0.015,
                "d={dim}: model {ms:.3} ms vs paper {paper_ms:.3} ms ({:.1}% off)",
                err * 100.0
            );
        }
    }

    #[test]
    fn column_traffic_dominates_compute() {
        // Why `explore`'s lane sweep moves only DSP: no stage binds.
        let model = TimingModel::default();
        for dim in [32usize, 64, 96] {
            let traffic = model.column_cycles(dim, 77);
            let ii = stage_intervals(dim, 77);
            assert!(ii.iter().all(|&s| traffic > s), "d={dim}: traffic {traffic} vs {ii:?}");
        }
    }

    #[test]
    fn latency_grows_sublinearly_with_dim() {
        // Paper: 0.777 → 0.985 ms for 3× the dimension (1.27×).
        let model = TimingModel::default();
        let a = model.paper_walk_millis(32);
        let c = model.paper_walk_millis(96);
        assert!(c > a);
        assert!(c / a < 1.4, "growth {:.2}× too steep", c / a);
    }

    #[test]
    fn fewer_negatives_cut_latency() {
        // The negative-share ablation leans on this: fewer sample columns →
        // proportionally fewer cycles.
        let model = TimingModel::default();
        let light = model.walk_cycles(32, 73, 14); // ns=1
        assert!(light < model.walk_cycles(32, 73, 77) / 3);
    }

    #[test]
    fn dma_is_minor_fraction() {
        let dma = 2 * transfer_cycles(64 * 64 * 4);
        let total = TimingModel::default().walk_cycles(64, 73, 77);
        assert!(dma * 10 < total, "DMA must not dominate: {dma} of {total}");
    }

    #[test]
    fn millis_conversion() {
        assert!((cycles_to_millis(200_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lane_config_matches_paper() {
        let lanes = |class: usize| STAGES.map(|s| s.lanes[class]);
        assert_eq!(lanes(0), [32; 4]);
        assert_eq!(lanes(1), [32, 48, 48, 48], "d=64 uses partial 48 lanes");
        assert_eq!(lanes(2), [32, 64, 48, 64], "d=96 uses partial 64 lanes");
    }

    #[test]
    fn intervals_grow_with_dim_sublinearly() {
        // Lane widening is exactly what keeps stage times near-equal across
        // dims (§4.5) — check II growth is well below 3× from d=32→96.
        let slowest = |dim| stage_intervals(dim, 77).into_iter().max().unwrap();
        let (i32_, i96) = (slowest(32), slowest(96));
        assert!(i96 > i32_, "more work at higher dim");
        assert!((i96 as f64) < 3.0 * i32_ as f64, "lane widening must damp growth: {i32_} → {i96}");
    }

    #[test]
    fn stage3_dominates_compute_at_paper_params() {
        // 77 samples per context make the sample stages the slowest in
        // every build.
        for dim in [32usize, 64, 96] {
            let [s1, s2, s3, s4] = stage_intervals(dim, 77);
            assert!(s3.max(s4) > s1.max(s2), "d={dim}: {:?}", [s1, s2, s3, s4]);
        }
    }

    #[test]
    fn fill_exceeds_bottleneck() {
        let ii = stage_intervals(64, 77);
        assert!(ii.iter().sum::<u64>() > ii.into_iter().max().unwrap());
    }

    #[test]
    fn fewer_samples_shrink_stage3() {
        assert!(stage_intervals(32, 11)[2] < stage_intervals(32, 77)[2]);
    }

    #[test]
    fn zero_bytes_is_free() {
        assert_eq!(transfer_cycles(0), 0);
    }

    #[test]
    fn transfer_scales_linearly_in_payload() {
        assert_eq!(transfer_cycles(4 * 4096), 4 * transfer_cycles(4096));
    }
}
