//! One accelerator build, described once: §4.5's four-stage kernel (32 base
//! lanes, partly 48/64 at d = 64/96) behind a 288-bit β tile port, with its
//! Table 6 calibration. A [`Build`] is the one input of the walk price
//! ([`Build::walk_cycles`]), the resource estimate
//! ([`crate::resources::estimate_resources`]), the weight tile
//! ([`crate::bram::TileManager::for_build`]), [`crate::explore`] and
//! [`crate::energy`].

use crate::resources::calibrate;

/// β-port payload bytes per cycle of the paper's builds: four BRAM36 ports of
/// 72 bits.
pub(crate) const PORT_BYTES: u32 = 36;

/// The widest build the model covers: `P`, d² 32-bit words, must fit the 32
/// banks a 64-lane stage 2 reads it from (32 × 4 KiB ⇒ d ≤ 181).
const MAX_DIM: usize = 181;

/// The paper's three builds: d, the four stage lane widths (§4.5) and
/// Table 6's totals verbatim (BRAM36, DSP, FF, LUT).
pub const PAPER_BUILDS: [(usize, [u32; 4], [u32; 4]); 3] = [
    (32, [32, 32, 32, 32], [183, 1379, 48_609, 53_330]),
    (64, [32, 48, 48, 48], [271, 1552, 77_584, 87_901]),
    (96, [32, 64, 48, 64], [272, 1573, 86_081, 108_639]),
];

/// One accelerator build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct Build {
    /// Embedding dimension the build is specialized for.
    pub dim: usize,
    /// Lane width of each pipeline stage, in Algorithm 2's order.
    pub lanes: [u32; 4],
    /// β-port payload bytes per cycle.
    pub port_bytes: u32,
    /// Calibration: fixed-point MAC lanes, 3 DSP48E2 each.
    pub mac_lanes: u32,
    /// Calibration: BRAM36 banks of the β weight cache.
    pub cache_banks: u32,
    /// Calibration: DSP slices beyond the MAC lanes and the divider.
    pub control_dsp: u32,
    /// Calibration: the FF and LUT the component model cannot attribute
    /// (interconnect, control FSMs, AXI glue).
    pub residual: [i32; 2],
}

impl Build {
    /// The `dim`-wide build: a paper build, calibrated to Table 6, or else the
    /// lanes of the narrowest paper build at least as wide (or the widest)
    /// with MAC lanes and cache banks interpolated between two paper builds.
    /// An error outside `1..=181`.
    pub fn for_dim(dim: usize) -> Result<Build, String> {
        if !(1..=MAX_DIM).contains(&dim) {
            return Err(format!("no accelerator build for d = {dim} (covered: 1..={MAX_DIM})"));
        }
        let hi = PAPER_BUILDS.iter().position(|b| b.0 >= dim).unwrap_or(PAPER_BUILDS.len() - 1);
        if PAPER_BUILDS[hi].0 == dim {
            return Ok(calibrate(PAPER_BUILDS[hi]));
        }
        let (a, b) = (calibrate(PAPER_BUILDS[hi.max(1) - 1]), calibrate(PAPER_BUILDS[hi.max(1)]));
        let t = (dim.max(8) as f64 - a.dim as f64) / (b.dim - a.dim) as f64;
        let lerp = |x: u32, y: u32| (x as f64 + (y as f64 - x as f64) * t).round() as u32;
        Ok(Build {
            dim,
            lanes: PAPER_BUILDS[hi].1,
            mac_lanes: lerp(a.mac_lanes, b.mac_lanes),
            cache_banks: lerp(a.cache_banks, b.cache_banks),
            // Vivado's glue is known only at the paper builds: a nominal one.
            control_dsp: 1,
            residual: [2000, 3000],
            ..a
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimensions_outside_the_model_are_errors() {
        for dim in [0, MAX_DIM + 1, usize::MAX] {
            let err = Build::for_dim(dim).unwrap_err();
            assert!(err.contains(&format!("d = {dim}")), "{err}");
        }
        assert!(Build::for_dim(1).is_ok() && Build::for_dim(MAX_DIM).is_ok());
    }

    #[test]
    fn paper_builds_derive_table6_calibration() {
        // MAC lanes = (DSP − divider − control) / 3, cache = BRAM − P − β − FIFO.
        let row = |dim| Build::for_dim(dim).unwrap();
        let cal = |b: Build| (b.mac_lanes, b.control_dsp, b.cache_banks);
        assert_eq!(
            [32, 64, 96].map(|d| cal(row(d))),
            [(457, 0, 127), (514, 2, 191), (521, 2, 184)]
        );
    }

    #[test]
    fn calibration_is_a_large_per_build_fudge() {
        // DESIGN.md's "Per-build calibration": MAC lanes 2.5–3.6× the sum of
        // the stage lanes, FF/LUT residuals up to about 22 % of the total.
        for (dim, _, [_, _, ff, lut]) in PAPER_BUILDS {
            let b = Build::for_dim(dim).unwrap();
            let ratio = b.mac_lanes as f64 / b.lanes.iter().sum::<u32>() as f64;
            assert!((2.5..3.6).contains(&ratio), "d={dim}: {ratio}");
            let shares = [b.residual[0] as f64 / ff as f64, b.residual[1] as f64 / lut as f64];
            assert!(shares.iter().all(|s| s.abs() < 0.22), "d={dim}: {shares:?}");
        }
    }
}
