//! Component-level resource estimator, calibrated to the paper's Table 6.
//!
//! The paper reports post-implementation utilization for three builds but
//! not the per-stage HLS unrolling, so this estimator is *semi-empirical*:
//! component unit costs are physically motivated (3 DSP48E2 per 32-bit MAC
//! lane, ⌈lanes/2⌉ BRAM36 per lanes-wide 32-bit read port, …), and a
//! [`Build`]'s calibration is what they leave of Table 6's totals
//! (`calibrate`). The point of the model is (a) to regenerate Table 6 and
//! (b) to show which component saturates first — DSP, matching §4.5's
//! observation that higher parallelism is gated on DSP/BRAM availability.

use crate::build::{Build, PAPER_BUILDS, PORT_BYTES};
use crate::device::{FpgaDevice, Utilization};

/// Estimated utilization, with a component breakdown.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ResourceEstimate {
    /// BRAM36 blocks.
    pub bram36: u32,
    /// DSP slices.
    pub dsp: u32,
    /// Flip-flops.
    pub ff: u32,
    /// LUTs.
    pub lut: u32,
    /// BRAM breakdown: (P banks, β bandwidth banks, weight cache, FIFO/DMA).
    pub bram_parts: (u32, u32, u32, u32),
    /// DSP breakdown: (MAC lanes ×3, divider, control).
    pub dsp_parts: (u32, u32, u32),
    /// True when the build is one of the paper's calibrated points.
    pub calibrated: bool,
}

impl ResourceEstimate {
    /// Utilization percentages on `device`.
    pub fn utilization(&self, device: &FpgaDevice) -> Utilization {
        device.utilization(self.bram36, self.dsp, self.ff, self.lut)
    }
}

/// Unit costs (physically motivated, see module docs).
const DSP_PER_MAC: u32 = 3; // 32×32-bit signed multiply on DSP48E2
const DSP_DIVIDER: u32 = 8; // pipelined reciprocal (hpht_inv)
const FF_PER_MAC: u32 = 96; // operand/pipeline registers per lane
const LUT_PER_MAC: u32 = 78; // alignment + saturation logic per lane
const FF_PER_DIM: u32 = 180; // stage buffers widen with d
const LUT_PER_DIM: u32 = 420; // stream splitters/mergers widen with d
const LUT_BASE: u32 = 4000; // AXI/DMA + controller floor
const FIFO_BANKS: u32 = 8; // DMA FIFOs + sample queues

/// Estimates resources for a build. Exact on the calibrated points.
pub fn estimate_resources(build: &Build) -> ResourceEstimate {
    let (d, [_, stage2, stage3, _]) = (build.dim as u32, build.lanes);
    // P banked for stage 2's lanes: one BRAM36 feeds two 32-bit words/cycle,
    // so a 32/48/64-lane stage needs 16/24/32 banks.
    let p_banks = stage2.div_ceil(2);
    // β bandwidth banks: the double-buffered sample-column tile at stage 3's
    // width, plus 16 per port group beyond the paper's 36 B.
    let beta_banks =
        2 * stage3.div_ceil(2) + 16 * (build.port_bytes / PORT_BYTES).saturating_sub(1);
    let mac_dsp = DSP_PER_MAC * build.mac_lanes;
    // FF / LUT: affine in lanes and dim, plus the build's residual.
    let [ff_residual, lut_residual] = build.residual.map(i64::from);
    let ff = (FF_PER_MAC * build.mac_lanes + FF_PER_DIM * d) as i64 + ff_residual;
    let lut = (LUT_BASE + LUT_PER_MAC * build.mac_lanes + LUT_PER_DIM * d) as i64 + lut_residual;
    ResourceEstimate {
        bram36: p_banks + beta_banks + build.cache_banks + FIFO_BANKS,
        dsp: mac_dsp + DSP_DIVIDER + build.control_dsp,
        ff: ff.max(0) as u32,
        lut: lut.max(0) as u32,
        bram_parts: (p_banks, beta_banks, build.cache_banks, FIFO_BANKS),
        dsp_parts: (mac_dsp, DSP_DIVIDER, build.control_dsp),
        calibrated: PAPER_BUILDS.iter().any(|b| b.0 == build.dim),
    }
}

/// A paper build from its [`PAPER_BUILDS`] row: the MAC lanes and control
/// DSP split the DSP left after the divider, 3 to a lane, and the cache banks
/// and FF/LUT residuals are what the component model leaves of Table 6.
pub(crate) fn calibrate((dim, lanes, [bram, dsp, ff, lut]): (usize, [u32; 4], [u32; 4])) -> Build {
    let (mac_dsp, port_bytes) = (dsp - DSP_DIVIDER, PORT_BYTES);
    let (mac_lanes, control_dsp) = (mac_dsp / DSP_PER_MAC, mac_dsp % DSP_PER_MAC);
    let bare =
        Build { dim, lanes, port_bytes, mac_lanes, cache_banks: 0, control_dsp, residual: [0; 2] };
    let e = estimate_resources(&bare);
    let residual = [ff as i32 - e.ff as i32, lut as i32 - e.lut as i32];
    Build { cache_banks: bram - e.bram36, residual, ..bare }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(dim: usize) -> Build {
        Build::for_dim(dim).unwrap()
    }

    #[test]
    fn calibrated_points_match_table6_exactly() {
        for &(dim, _, [bram, dsp, ff, lut]) in &PAPER_BUILDS {
            let est = estimate_resources(&build(dim));
            assert!(est.calibrated);
            assert_eq!(est.dsp, dsp, "d={dim} dsp");
            assert_eq!(est.bram36, bram, "d={dim} bram");
            assert_eq!(est.ff, ff, "d={dim} ff");
            assert_eq!(est.lut, lut, "d={dim} lut");
        }
    }

    #[test]
    fn every_paper_point_fits_the_device() {
        let dev = FpgaDevice::XCZU7EV;
        for &(dim, ..) in &PAPER_BUILDS {
            let est = estimate_resources(&build(dim));
            assert!(dev.fits(est.bram36, est.dsp, est.ff, est.lut), "d={dim} must fit");
        }
    }

    #[test]
    fn dsp_is_the_binding_resource() {
        // §4.5: parallelism is gated on DSP (79.8–91.0 % used) with BRAM
        // second — the estimator must reproduce that ordering.
        let dev = FpgaDevice::XCZU7EV;
        for &(dim, ..) in &PAPER_BUILDS {
            let u = estimate_resources(&build(dim)).utilization(&dev);
            assert!(
                u.dsp_pct > u.bram_pct || dim == 64,
                "d={dim}: dsp {} bram {}",
                u.dsp_pct,
                u.bram_pct
            );
            assert!(u.dsp_pct > u.ff_pct && u.dsp_pct > u.lut_pct, "d={dim}");
        }
    }

    #[test]
    fn interpolated_points_are_monotone_and_fit() {
        let dev = FpgaDevice::XCZU7EV;
        let mut prev_dsp = 0;
        for dim in [16usize, 40, 48, 80] {
            let est = estimate_resources(&build(dim));
            assert!(!est.calibrated);
            assert!(est.dsp >= prev_dsp, "dsp should not shrink with dim");
            prev_dsp = est.dsp;
            assert!(dev.fits(est.bram36, est.dsp, est.ff, est.lut), "d={dim} must fit");
        }
    }

    #[test]
    fn breakdowns_sum_to_totals() {
        for dim in [32usize, 64, 96, 48] {
            let est = estimate_resources(&build(dim));
            let (p, b, c, f) = est.bram_parts;
            assert_eq!(p + b + c + f, est.bram36, "d={dim} bram parts");
            let (m, dv, ct) = est.dsp_parts;
            assert_eq!(m + dv + ct, est.dsp, "d={dim} dsp parts");
        }
    }

    #[test]
    fn utilization_matches_paper_percentages() {
        let dev = FpgaDevice::XCZU7EV;
        let u = estimate_resources(&build(64)).utilization(&dev);
        assert!((u.bram_pct - 86.86).abs() < 0.05);
        assert!((u.dsp_pct - 89.81).abs() < 0.05);
    }
}
