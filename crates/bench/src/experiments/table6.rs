//! Table 6 — FPGA resource utilization on the XCZU7EV.
//!
//! Regenerated from the component-level estimator (`seqge_fpga::resources`),
//! which is calibrated to reproduce the paper's Vivado reports exactly at
//! d ∈ {32, 64, 96} — the rows of the paper's table, the dimensions run here.

use super::Setting;
use crate::report::{int, num, text, Report};
use seqge_fpga::build::PAPER_BUILDS;
use seqge_fpga::{estimate_resources, Build, FpgaDevice};

pub fn run(s: &Setting) -> Report {
    let mut r = Report::new([
        "d",
        "BRAM",
        "BRAM %",
        "DSP",
        "DSP %",
        "FF",
        "FF %",
        "LUT",
        "LUT %",
        "paper BRAM/DSP/FF/LUT",
        "BRAM: P+β-port+cache+FIFO",
        "DSP: MAC+div+ctrl",
    ]);
    for &(dim, _, [bram, dsp, ff, lut]) in PAPER_BUILDS.iter().filter(|p| s.dims.contains(&p.0)) {
        let est = estimate_resources(&Build::for_dim(dim).expect("a paper build"));
        let u = est.utilization(&FpgaDevice::XCZU7EV);
        let (bp, bb, bc, bf) = est.bram_parts;
        let (dm, dd, dc) = est.dsp_parts;
        let mut row = vec![int(dim)];
        for (used, pct) in [
            (est.bram36, u.bram_pct),
            (est.dsp, u.dsp_pct),
            (est.ff, u.ff_pct),
            (est.lut, u.lut_pct),
        ] {
            row.extend([int(used), num(pct, 2)]);
        }
        let parts = [
            format!("{bram}/{dsp}/{ff}/{lut}"),
            format!("{bp}+{bb}+{bc}+{bf}"),
            format!("{dm}+{dd}+{dc}"),
        ];
        row.extend(parts.map(text));
        r.row(row);
    }
    r
}
