//! Energy-efficiency comparison — the paper's §5 future work, realized with
//! the documented power model in `seqge_fpga::energy`.
//!
//! Latencies: FPGA from the calibrated cycle model; Cortex-A53 and Core i7
//! from the paper's own Tables 3/4 (proposed model), so the energy numbers
//! sit on the paper's axis.

use super::Setting;
use crate::report::{int, num, text, Report};
use seqge_fpga::energy::energy_comparison;
use seqge_fpga::Build;

/// Paper (dim, proposed-on-A53 ms, proposed-on-i7 ms).
const PAPER_LATENCIES: [(usize, f64, f64); 3] =
    [(32, 18.753, 0.787), (64, 35.941, 1.426), (96, 72.612, 2.396)];

pub fn run(s: &Setting) -> Report {
    let mut r = Report::new(["d", "platform", "walk ms", "energy mJ", "vs FPGA (x)"]);
    for &(dim, a53_ms, i7_ms) in PAPER_LATENCIES.iter().filter(|p| s.dims.contains(&p.0)) {
        for e in energy_comparison(&Build::for_dim(dim).expect("a paper build"), a53_ms, i7_ms) {
            r.row(vec![
                int(dim),
                text(e.platform),
                num(e.walk_ms, 3),
                num(e.energy_mj, 3),
                num(e.vs_fpga, 1),
            ]);
        }
    }
    r.note("(power figures are documented nominal operating points — DESIGN.md §3;");
    r.note(" the ordering is set by the latency gaps, which are measured/modelled)");
    r
}
