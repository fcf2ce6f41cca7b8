//! Figure 4 — impact of the dataflow optimization on accuracy.
//!
//! Compares the proposed model on "CPU" (Algorithm 1, float) against the
//! "FPGA" implementation (Algorithm 2 with deferred ΔP/Δβ, Q8.24 fixed
//! point) in the "all" scenario. Paper: ≤1.09 % F1 drop on cora, no drop on
//! the two larger datasets.

use super::{micro_f1, train_prepared, Setting, SEED};
use crate::prepared_walks;
use crate::report::{int, num, text, Report};
use seqge_core::{OsElmConfig, OsElmSkipGram, TrainConfig};
use seqge_fpga::Accelerator;

pub fn run(s: &Setting) -> Report {
    let mut r = Report::new(["dataset", "d", "CPU F1", "FPGA F1", "delta", "saturations"]);
    for &ds in s.datasets {
        for &dim in s.dims {
            let prep = prepared_walks(ds, s.scale, &TrainConfig::paper_defaults(dim), SEED);
            let n = prep.graph.num_nodes();
            let mut cpu = OsElmSkipGram::new(n, OsElmConfig::paper_defaults(dim));
            train_prepared(&mut cpu, &prep);
            let f_cpu = micro_f1(&prep.graph, &cpu);
            let mut fpga = Accelerator::new(n, OsElmConfig::paper_defaults(dim));
            train_prepared(&mut fpga, &prep);
            let f_fpga = micro_f1(&prep.graph, &fpga);
            r.row(vec![
                text(ds.short_name()),
                int(dim),
                num(f_cpu, 4),
                num(f_fpga, 4),
                num(f_fpga - f_cpu, 4),
                int(fpga.stats.saturations),
            ]);
        }
    }
    r.note("(paper: FPGA loses up to 1.09% F1 on cora, none on ampt/amcp)");
    r
}
