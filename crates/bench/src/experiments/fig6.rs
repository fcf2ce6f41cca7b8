//! Figure 6 — impact of the scale factor μ on accuracy.
//!
//! Sweeps μ over the paper's range and adds the "alpha" baseline (classic
//! OS-ELM with a fixed random input matrix). Paper shape: collapse at
//! μ = 0.001, high plateau for 0.005–0.1, gradual decay above 0.1, and the
//! alpha baseline below the plateau.

use super::{micro_f1, train_prepared, Setting, SEED};
use crate::prepared_walks;
use crate::report::{num, text, Report};
use seqge_core::{AlphaOsElm, OsElmConfig, OsElmSkipGram, TrainConfig};

const MUS: [f32; 7] = [0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0];

pub fn run(s: &Setting) -> Report {
    let dim = s.dim();
    let mut header = vec!["dataset".to_string()];
    header.extend(MUS.iter().map(|mu| format!("mu={mu}")));
    header.push("alpha".into());
    let mut r = Report::new(header);
    for &ds in s.datasets {
        let prep = prepared_walks(ds, s.scale, &TrainConfig::paper_defaults(dim), SEED);
        let n = prep.graph.num_nodes();
        let mut row = vec![text(ds.short_name())];
        for mu in MUS {
            let mut m =
                OsElmSkipGram::new(n, OsElmConfig { mu, ..OsElmConfig::paper_defaults(dim) });
            train_prepared(&mut m, &prep);
            row.push(num(micro_f1(&prep.graph, &m), 4));
        }
        // Alpha baseline (no μ; fixed random input weights, embedding read
        // from the trained output weights β).
        let mut alpha = AlphaOsElm::new(n, OsElmConfig::paper_defaults(dim));
        train_prepared(&mut alpha, &prep);
        row.push(num(micro_f1(&prep.graph, &alpha), 4));
        r.row(row);
    }
    r.note("(paper: collapse at mu=0.001; high plateau 0.005–0.1; gradual decay >0.1;");
    r.note(" alpha baseline below the plateau)");
    r
}
