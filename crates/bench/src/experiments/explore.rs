//! Design-space exploration report — quantifies §4.5's closing remark
//! ("a further speedup by higher parallelism would be possible if more BRAM
//! and DSP resources are available") using the calibrated resource and
//! timing models.

use super::Setting;
use crate::report::{int, num, text, Report};
use seqge_fpga::explore::{best_feasible, explore, XCZU15EG, XCZU9EG};
use seqge_fpga::{Build, FpgaDevice};

pub fn run(s: &Setting) -> Report {
    let mut r = Report::new([
        "d",
        "device",
        "best lanes",
        "port B/cyc",
        "DSP",
        "BRAM",
        "walk ms",
        "vs paper build (x)",
        "variants",
    ]);
    for &dim in s.dims {
        let build = Build::for_dim(dim).expect("a paper build");
        let paper_ms = build.paper_walk_millis();
        for dev in [FpgaDevice::XCZU7EV, XCZU9EG, XCZU15EG] {
            let p = best_feasible(&build, &dev).expect("the paper's build fits every part swept");
            let mut row = vec![int(dim), text(dev.name)];
            row.extend([p.build.mac_lanes, p.build.port_bytes, p.est.dsp, p.est.bram36].map(int));
            row.extend([num(p.walk_ms, 3), num(paper_ms / p.walk_ms, 2)]);
            row.push(int(explore(&build, &dev).len()));
            r.row(row);
        }
    }
    r.note("(the paper's own build is the XCZU7EV baseline row; larger parts admit");
    r.note(" wider β ports, cutting the traffic-bound walk latency; column traffic");
    r.note(" bounds every explored point, so more MAC lanes only cost DSP)");
    r
}
