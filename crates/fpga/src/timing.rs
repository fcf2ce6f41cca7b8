//! Walk-level latency model, calibrated to the paper's Table 3 FPGA row.
//!
//! Observation driving the model: at the paper's parameters one context
//! touches 78 weight columns (1 center + 7 positives × (1 + 10 negatives)),
//! and every touched column crosses the shared β port (BRAM tile ↔ compute
//! lanes) once per context. At 0.777 ms / 73 contexts / 200 MHz the hardware
//! spends ≈ 2 100 cycles per context — an order of magnitude more than the
//! MAC work — so the kernel is *column-traffic bound*, consistent with the
//! paper's emphasis on reducing DRAM↔BRAM transfers (§3.2, negative-sample
//! reuse). The model therefore prices a context as
//!
//! ```text
//! cycles(ctx) = ⌈n_cols · 4d / port_bytes⌉ + n_cols · column_overhead
//! ```
//!
//! overlapped with the compute-stage IIs ([`crate::pipeline`]). The tile
//! port is 288 bits wide (four BRAM36 ports of 72 b) ⇒ 36 B/cycle. Sample
//! upload and Δ write-back are double-buffered behind the previous walk's
//! compute; only the `P` round-trip is serial ([`crate::dma`]). With a
//! 23.7-cycle column overhead the model lands within ~1 % of all three
//! Table 3 FPGA entries.

use crate::dma::DmaModel;
use crate::pipeline::{stage_intervals, StageIntervals};
use crate::resources::AcceleratorDesign;

/// The PL clock in MHz every modeled cycle count is turned into time at: the
/// paper's 200.
pub const CLOCK_MHZ: u32 = 200;

/// The calibrated timing model.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TimingModel {
    /// β-port payload bytes per cycle (288-bit tile port = 36 B).
    pub port_bytes: u32,
    /// Per-column access overhead in tenths of a cycle (arbitration +
    /// address + pipeline restart, amortized). Calibrated: 237 (23.7 cyc).
    pub column_overhead_tenths: u32,
    /// DRAM DMA model for per-walk transfers.
    pub dma: DmaModel,
}

impl Default for TimingModel {
    fn default() -> Self {
        TimingModel { port_bytes: 36, column_overhead_tenths: 237, dma: DmaModel::default() }
    }
}

/// Cycle breakdown for training one random walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WalkTiming {
    /// Contexts in the walk.
    pub contexts: u64,
    /// Column-traffic cycles per context.
    pub column_cycles_per_context: u64,
    /// Compute bottleneck II per context.
    pub compute_ii: u64,
    /// Serial per-walk DMA cycles (the P round-trip; sample upload and Δ
    /// write-back overlap the previous walk's compute).
    pub dma_cycles: u64,
    /// Overlapped DMA cycles (reported for the traffic accounting; not on
    /// the critical path).
    pub overlapped_dma_cycles: u64,
    /// Pipeline fill cycles.
    pub fill_cycles: u64,
    /// Total cycles.
    pub total_cycles: u64,
    /// Per-stage initiation intervals behind `compute_ii` (Table 4's
    /// breakdown; occupancy = stage II / bottleneck).
    pub stages: StageIntervals,
}

impl WalkTiming {
    /// Milliseconds at [`CLOCK_MHZ`].
    pub fn millis(&self) -> f64 {
        self.total_cycles as f64 / (CLOCK_MHZ as f64 * 1e3)
    }
}

impl TimingModel {
    /// Prices one walk: `contexts` outer iterations, `samples_per_context`
    /// β-column touches beyond the center node.
    pub fn walk_timing(
        &self,
        design: &AcceleratorDesign,
        contexts: usize,
        samples_per_context: usize,
    ) -> WalkTiming {
        let d = design.dim as u64;
        let cols = samples_per_context as u64 + 1; // + center column
        let col_cycles = (cols * 4 * d).div_ceil(self.port_bytes as u64)
            + (cols * self.column_overhead_tenths as u64).div_ceil(10);
        let ii: StageIntervals = stage_intervals(design.dim, samples_per_context);
        let per_ctx = col_cycles.max(ii.bottleneck());
        // Serial transfer: P both ways. Samples and Δβ double-buffer behind
        // the previous walk's compute.
        let p_bytes = d * d * 4;
        let dma_cycles = 2 * self.dma.transfer_cycles(p_bytes);
        let sample_bytes = (contexts as u64 * cols) * 4;
        let delta_bytes = cols * d * 4;
        let overlapped =
            self.dma.transfer_cycles(sample_bytes) + self.dma.transfer_cycles(delta_bytes);
        let total = contexts as u64 * per_ctx + ii.fill() + dma_cycles;
        WalkTiming {
            contexts: contexts as u64,
            column_cycles_per_context: col_cycles,
            compute_ii: ii.bottleneck(),
            dma_cycles,
            overlapped_dma_cycles: overlapped,
            fill_cycles: ii.fill(),
            total_cycles: total,
            stages: ii,
        }
    }

    /// Paper-protocol walk latency in ms: 73 contexts × 77 samples.
    pub fn paper_walk_millis(&self, dim: usize) -> f64 {
        let design = AcceleratorDesign::for_dim(dim);
        self.walk_timing(&design, 73, 77).millis()
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
        let model = TimingModel::default();
        for dim in [32usize, 64, 96] {
            let t = model.walk_timing(&AcceleratorDesign::for_dim(dim), 73, 77);
            assert!(
                t.column_cycles_per_context > t.compute_ii,
                "d={dim}: traffic {} vs compute {}",
                t.column_cycles_per_context,
                t.compute_ii
            );
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
        let design = AcceleratorDesign::for_dim(32);
        let full = model.walk_timing(&design, 73, 77);
        let light = model.walk_timing(&design, 73, 14); // ns=1
        assert!(light.total_cycles < full.total_cycles / 3);
    }

    #[test]
    fn dma_is_minor_fraction() {
        let model = TimingModel::default();
        let t = model.walk_timing(&AcceleratorDesign::for_dim(64), 73, 77);
        assert!(t.dma_cycles * 10 < t.total_cycles, "DMA must not dominate: {t:?}");
    }

    #[test]
    fn millis_conversion() {
        let t = WalkTiming {
            contexts: 1,
            column_cycles_per_context: 0,
            compute_ii: 0,
            dma_cycles: 0,
            overlapped_dma_cycles: 0,
            fill_cycles: 0,
            total_cycles: 200_000,
            stages: StageIntervals { s1: 0, s2: 0, s3: 0, s4: 0 },
        };
        assert!((t.millis() - 1.0).abs() < 1e-12);
    }
}
