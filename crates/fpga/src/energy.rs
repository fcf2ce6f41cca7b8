//! Energy-efficiency model — the paper's stated future work (§5: "Our
//! future plans include comparisons to the original and proposed models on
//! embedded GPU devices to demonstrate the energy efficiency of the proposed
//! FPGA accelerator").
//!
//! Energy per walk = platform power × walk latency. Power figures are
//! documented nominal operating points (board/TDP-class numbers, not
//! measurements): they set the *scale* of the comparison, which is dominated
//! by the orders-of-magnitude latency differences anyway.

use crate::build::Build;

/// A compute platform with a nominal training-load power draw.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Platform {
    /// Name for reports.
    pub name: &'static str,
    /// Nominal power draw under the training load, in watts.
    pub watts: f64,
}

/// ZCU104 programmable logic running the accelerator (PL dynamic + static
/// at ~80 % DSP activity; board-level reports put comparable designs near
/// this figure).
pub const FPGA_PL: Platform = Platform { name: "ZCU104 PL (accelerator)", watts: 4.5 };
/// The ZCU104's embedded Cortex-A53 cluster under full single-core load.
pub const CORTEX_A53: Platform = Platform { name: "Cortex-A53 @1.2GHz", watts: 1.5 };
/// Desktop Core i7-11700 under single-core AVX load (package power share).
pub const CORE_I7: Platform = Platform { name: "Core i7-11700", watts: 35.0 };
/// Jetson-class embedded GPU (the comparison the paper defers).
pub const EMBEDDED_GPU: Platform = Platform { name: "embedded GPU (Jetson-class)", watts: 10.0 };

/// Energy in millijoules to process one walk taking `ms` milliseconds.
pub fn energy_mj(platform: &Platform, ms: f64) -> f64 {
    platform.watts * ms
}

/// One row of the energy comparison.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct EnergyRow {
    /// Platform name.
    pub platform: &'static str,
    /// Walk latency in ms.
    pub walk_ms: f64,
    /// Energy per walk in mJ.
    pub energy_mj: f64,
    /// Energy ratio vs the FPGA accelerator.
    pub vs_fpga: f64,
}

/// Builds the energy comparison for `build`, given measured/modelled
/// per-walk latencies of the software platforms.
///
/// `a53_ms` and `i7_ms` are the proposed model's walk latencies on those
/// CPUs (paper Tables 3/4 or host-derived projections); the GPU row is
/// modelled as 4× faster than the A53 (a conservative embedded-GPU speedup
/// for this memory-bound kernel — documented assumption).
pub fn energy_comparison(build: &Build, a53_ms: f64, i7_ms: f64) -> Vec<EnergyRow> {
    let fpga_ms = build.paper_walk_millis();
    let gpu_ms = a53_ms / 4.0;
    let fpga_mj = energy_mj(&FPGA_PL, fpga_ms);
    let make = |p: &Platform, ms: f64| EnergyRow {
        platform: p.name,
        walk_ms: ms,
        energy_mj: energy_mj(p, ms),
        vs_fpga: energy_mj(p, ms) / fpga_mj,
    };
    vec![
        make(&FPGA_PL, fpga_ms),
        make(&CORTEX_A53, a53_ms),
        make(&EMBEDDED_GPU, gpu_ms),
        make(&CORE_I7, i7_ms),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_is_power_times_time() {
        assert_eq!(energy_mj(&Platform { name: "x", watts: 2.0 }, 3.0), 6.0);
    }

    #[test]
    fn fpga_wins_the_paper_operating_points() {
        // Paper Table 3 (A53) and Table 4 (i7), proposed model, d = 32/96.
        for (dim, a53, i7) in [(32usize, 18.753, 0.787), (96, 72.612, 2.396)] {
            let rows = energy_comparison(&Build::for_dim(dim).unwrap(), a53, i7);
            let fpga = &rows[0];
            for other in &rows[1..] {
                assert!(
                    other.energy_mj > fpga.energy_mj,
                    "d={dim}: {} ({} mJ) should cost more energy than the FPGA ({} mJ)",
                    other.platform,
                    other.energy_mj,
                    fpga.energy_mj
                );
            }
        }
    }

    #[test]
    fn ratios_are_relative_to_fpga() {
        let rows = energy_comparison(&Build::for_dim(32).unwrap(), 18.753, 0.787);
        assert!((rows[0].vs_fpga - 1.0).abs() < 1e-12);
        assert!(rows[1].vs_fpga > 1.0);
    }

    #[test]
    fn gpu_row_is_modelled_from_a53() {
        let rows = energy_comparison(&Build::for_dim(64).unwrap(), 40.0, 1.5);
        let gpu = rows.iter().find(|r| r.platform.contains("GPU")).unwrap();
        assert!((gpu.walk_ms - 10.0).abs() < 1e-12);
    }
}
