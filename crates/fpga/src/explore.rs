//! Design-space exploration (extension).
//!
//! §4.5 closes with: "A further speedup by higher parallelism would be
//! possible if more BRAM and DSP resources are available." This module makes
//! that quantitative: enumerate architectural variants (MAC-lane counts,
//! β-port widths, weight-cache sizes), price each with the calibrated
//! resource estimator and timing model, and report the best build that fits
//! a given device — the XCZU7EV, or a larger part.

use crate::device::FpgaDevice;
use crate::resources::{estimate_resources, AcceleratorDesign};
use crate::timing::TimingModel;

/// One explored design point.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct DesignPoint {
    /// The architectural parameters.
    pub design: AcceleratorDesign,
    /// β-port width in bytes/cycle (the timing model's bandwidth knob).
    pub port_bytes: u32,
    /// Modeled paper-protocol walk latency (ms).
    pub walk_ms: f64,
    /// Whether the build fits the device.
    pub fits: bool,
    /// DSP slices used.
    pub dsp: u32,
    /// BRAM36 used.
    pub bram: u32,
}

/// Larger UltraScale+ parts for the "what if" sweep.
pub const XCZU9EG: FpgaDevice =
    FpgaDevice { name: "XCZU9EG", bram36: 912, dsp: 2520, ff: 548_160, lut: 274_080 };
/// The biggest common ZU+ MPSoC.
pub const XCZU15EG: FpgaDevice =
    FpgaDevice { name: "XCZU15EG", bram36: 744, dsp: 3528, ff: 682_560, lut: 341_280 };

/// Enumerates design variants for `dim` on `device`: lane counts from the
/// paper's build upward, and β-port widths 36/72/144 B (1×/2×/4× BRAM port
/// groups; widening the port needs proportionally more β-bandwidth banks).
pub fn explore(dim: usize, device: &FpgaDevice) -> Vec<DesignPoint> {
    let base = AcceleratorDesign::for_dim(dim);
    let mut points = Vec::new();
    for lane_mult in [1.0f64, 1.5, 2.0, 3.0] {
        for (port_mult, port_bytes) in [(1u32, 36u32), (2, 72), (4, 144)] {
            let design = AcceleratorDesign {
                mac_lanes: (base.mac_lanes as f64 * lane_mult).round() as u32,
                // Wider ports need more interleaved banks for bandwidth.
                weight_cache_banks: base.weight_cache_banks * port_mult,
                ..base
            };
            let mut est = estimate_resources(&design);
            // Port widening adds β-bandwidth banks beyond the cache growth.
            est.bram36 += 16 * (port_mult - 1);
            // Column traffic bounds every point explored (the timing model's
            // `column_traffic_dominates_compute`), so only the port width
            // moves the walk latency; more lanes cost DSP and buy nothing.
            points.push(DesignPoint {
                design,
                port_bytes,
                walk_ms: TimingModel { port_bytes }.paper_walk_millis(dim),
                fits: device.fits(est.bram36, est.dsp, est.ff, est.lut),
                dsp: est.dsp,
                bram: est.bram36,
            });
        }
    }
    points
}

/// The fastest feasible design for `dim` on `device`, if any fits.
pub fn best_feasible(dim: usize, device: &FpgaDevice) -> Option<DesignPoint> {
    explore(dim, device)
        .into_iter()
        .filter(|p| p.fits)
        .min_by(|a, b| a.walk_ms.total_cmp(&b.walk_ms))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_build_is_feasible_on_zcu104() {
        let best = best_feasible(32, &FpgaDevice::XCZU7EV).expect("some build fits");
        assert!(best.fits);
        // The paper's own build (1× lanes, 36 B port) must be in the set.
        let points = explore(32, &FpgaDevice::XCZU7EV);
        assert!(points.iter().any(|p| p.port_bytes == 36 && p.design.mac_lanes == 457 && p.fits));
    }

    #[test]
    fn bigger_device_unlocks_faster_designs() {
        // §4.5's claim, quantified: on a larger part, the best feasible
        // build is strictly faster than on the XCZU7EV.
        for dim in [32usize, 96] {
            let small = best_feasible(dim, &FpgaDevice::XCZU7EV).unwrap();
            let large = best_feasible(dim, &XCZU15EG).unwrap();
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
        let points = explore(64, &FpgaDevice::XCZU7EV);
        let tripled: Vec<_> = points.iter().filter(|p| p.design.mac_lanes > 1500).collect();
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
            explore(dim, &XCZU15EG)
                .into_iter()
                .find(|p| {
                    p.port_bytes == port
                        && p.design.mac_lanes == AcceleratorDesign::for_dim(dim).mac_lanes
                })
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
