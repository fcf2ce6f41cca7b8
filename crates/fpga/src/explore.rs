//! Design-space exploration (extension).
//!
//! §4.5 closes with: "A further speedup by higher parallelism would be
//! possible if more BRAM and DSP resources are available." This module makes
//! that quantitative: vary the paper's build row (MAC-lane counts, β-port
//! widths, weight-cache sizes), price each with the calibrated resource
//! estimator and timing model, and report the best build that fits a given
//! device — the XCZU7EV, or a larger part.

use crate::build::Build;
use crate::device::FpgaDevice;
use crate::resources::{estimate_resources, ResourceEstimate};

/// One explored design point.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct DesignPoint {
    /// The build priced.
    pub build: Build,
    /// Modeled paper-protocol walk latency (ms).
    pub walk_ms: f64,
    /// Whether the build fits the device.
    pub fits: bool,
    /// The build's resource estimate.
    pub est: ResourceEstimate,
}

/// Larger UltraScale+ parts for the "what if" sweep.
pub const XCZU9EG: FpgaDevice =
    FpgaDevice { name: "XCZU9EG", bram36: 912, dsp: 2520, ff: 548_160, lut: 274_080 };
/// The biggest common ZU+ MPSoC.
pub const XCZU15EG: FpgaDevice =
    FpgaDevice { name: "XCZU15EG", bram36: 744, dsp: 3528, ff: 682_560, lut: 341_280 };

/// Enumerates variants of `base` on `device`: lane counts from the build's
/// upward, and β ports 1×/2×/4× as wide (BRAM port groups; a wider port
/// interleaves the cache over proportionally more banks, and the estimator
/// adds the β-bandwidth banks it needs).
pub fn explore(base: &Build, device: &FpgaDevice) -> Vec<DesignPoint> {
    let mut points = Vec::new();
    for lane_mult in [1.0f64, 1.5, 2.0, 3.0] {
        for port_mult in [1, 2, 4] {
            let build = Build {
                mac_lanes: (base.mac_lanes as f64 * lane_mult).round() as u32,
                cache_banks: base.cache_banks * port_mult,
                port_bytes: base.port_bytes * port_mult,
                ..*base
            };
            let est = estimate_resources(&build);
            // Column traffic bounds every point explored (the timing model's
            // `column_traffic_dominates_compute`), so only the port width
            // moves the walk latency; more lanes cost DSP and buy nothing.
            points.push(DesignPoint {
                build,
                walk_ms: build.paper_walk_millis(),
                fits: device.fits(est.bram36, est.dsp, est.ff, est.lut),
                est,
            });
        }
    }
    points
}

/// The fastest feasible variant of `base` on `device`, if any fits.
pub fn best_feasible(base: &Build, device: &FpgaDevice) -> Option<DesignPoint> {
    explore(base, device)
        .into_iter()
        .filter(|p| p.fits)
        .min_by(|a, b| a.walk_ms.total_cmp(&b.walk_ms))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(dim: usize) -> Build {
        Build::for_dim(dim).unwrap()
    }

    #[test]
    fn paper_build_is_feasible_on_zcu104() {
        let best = best_feasible(&build(32), &FpgaDevice::XCZU7EV).expect("some build fits");
        assert!(best.fits);
        // The paper's own build (1× lanes, 36 B port) must be in the set.
        let points = explore(&build(32), &FpgaDevice::XCZU7EV);
        assert!(points
            .iter()
            .any(|p| p.build.port_bytes == 36 && p.build.mac_lanes == 457 && p.fits));
    }

    #[test]
    fn bigger_device_unlocks_faster_designs() {
        // §4.5's claim, quantified: on a larger part, the best feasible
        // build is strictly faster than on the XCZU7EV.
        for dim in [32usize, 96] {
            let small = best_feasible(&build(dim), &FpgaDevice::XCZU7EV).unwrap();
            let large = best_feasible(&build(dim), &XCZU15EG).unwrap();
            assert!(
                large.walk_ms < small.walk_ms,
                "d={dim}: {} ms on ZU15 vs {} ms on ZU7",
                large.walk_ms,
                small.walk_ms
            );
        }
    }

    #[test]
    fn lane_tripling_alone_does_not_fit_zcu7ev() {
        // DSP is the binding resource (Table 6: 80–91 % used), so 3× lanes
        // must be infeasible on the paper's device.
        let points = explore(&build(64), &FpgaDevice::XCZU7EV);
        let tripled: Vec<_> = points.iter().filter(|p| p.build.mac_lanes > 1500).collect();
        assert!(!tripled.is_empty());
        assert!(tripled.iter().all(|p| !p.fits), "3x lanes should blow the DSP budget");
    }

    #[test]
    fn wider_port_helps_when_traffic_bound() {
        // The kernel is column-traffic bound; the payload share of the
        // traffic grows with d, so the port-width lever bites hardest at
        // d = 96 (at d = 32 the per-column overhead dominates and widening
        // buys only a few percent).
        let at = |dim: usize, port: u32| {
            explore(&build(dim), &XCZU15EG)
                .into_iter()
                .find(|p| p.build.port_bytes == port && p.build.mac_lanes == build(dim).mac_lanes)
                .unwrap()
        };
        let narrow96 = at(96, 36);
        let wide96 = at(96, 72);
        assert!(
            wide96.walk_ms < narrow96.walk_ms * 0.92,
            "{} vs {}",
            wide96.walk_ms,
            narrow96.walk_ms
        );
        // And monotone at d=32 too, just with a smaller margin.
        assert!(at(32, 72).walk_ms < at(32, 36).walk_ms);
    }
}
