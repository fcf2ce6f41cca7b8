//! Figure 7 — impact of the sampling-table update frequency.
//!
//! In the "seq" scenario the Walker-alias negative table can be rebuilt
//! every k inserted edges. Paper shape: k = 1 ≈ k = 100 ≫ k = 10 000 ≈
//! never, with the penalty growing on larger graphs.

use super::{micro_f1, Setting, SEED, SEQ_FORGETTING};
use crate::report::{int, num, text, Report};
use seqge_core::{train_seq_scenario, OsElmConfig, OsElmSkipGram, TrainConfig};
use seqge_sampling::UpdatePolicy;

/// The paper's sweep.
const POLICIES: [(&str, UpdatePolicy); 4] = [
    ("every 1", UpdatePolicy::EveryEdges(1)),
    ("every 100", UpdatePolicy::EveryEdges(100)),
    ("every 10000", UpdatePolicy::EveryEdges(10_000)),
    ("no_update", UpdatePolicy::Never),
];

pub fn run(s: &Setting) -> Report {
    let dim = s.dim();
    let cfg = TrainConfig::paper_defaults(dim);
    // The seq scenario needs a live learning gain (see Fig. 5).
    let ocfg = OsElmConfig { forgetting: SEQ_FORGETTING, ..OsElmConfig::paper_defaults(dim) };
    let mut header = vec!["dataset".to_string()];
    for (name, _) in POLICIES {
        header.extend([name.to_string(), format!("{name} rebuilds")]);
    }
    let mut r = Report::new(header);
    for &ds in s.datasets {
        let g = ds.generate_scaled(s.scale, SEED);
        let mut row = vec![text(ds.short_name())];
        for (_, policy) in POLICIES {
            let mut m = OsElmSkipGram::new(g.num_nodes(), ocfg);
            let (_, outcome) = train_seq_scenario(&g, &mut m, &cfg, policy, SEED, 1.0);
            row.extend([num(micro_f1(&g, &m), 4), int(outcome.table_rebuilds)]);
        }
        r.row(row);
    }
    r.note("(paper: every 1 ≈ every 100 ≫ every 10000 ≈ no_update; worse on larger graphs)");
    r
}
