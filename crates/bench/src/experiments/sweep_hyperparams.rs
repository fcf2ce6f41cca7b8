//! Hyper-parameter sweep (extension): the paper fixes `l = 80, w = 8,
//! ns = 10` (Table 2) without justification. This sweeps each knob around
//! the paper's point and reports both downstream F1 and the modeled FPGA
//! walk latency, exposing the cost/accuracy surface the choice sits on
//! (walk latency scales with contexts × samples; accuracy saturates).

use super::{micro_f1, Setting, SEED};
use crate::report::{int, num, text, Report};
use seqge_core::{train_all_scenario, OsElmConfig, OsElmSkipGram, TrainConfig};
use seqge_fpga::{cycles_to_millis, Build};

/// Table 2's (l, w, ns).
const PAPER: (usize, usize, usize) = (80, 8, 10);

pub fn run(s: &Setting) -> Report {
    let dim = s.dim();
    let g = s.dataset().generate_scaled(s.scale, SEED);
    let build = Build::for_dim(dim).expect("a paper build");

    // One axis varies at a time around Table 2's point.
    let mut grid = vec![PAPER];
    grid.extend([20, 40, 160].map(|l| (l, PAPER.1, PAPER.2)));
    grid.extend([4, 16].map(|w| (PAPER.0, w, PAPER.2)));
    grid.extend([2, 5, 20].map(|ns| (PAPER.0, PAPER.1, ns)));

    let mut r = Report::new(["l", "w", "ns", "F1", "FPGA ms/walk", "note"]);
    for (l, w, ns) in grid {
        let mut cfg = TrainConfig::paper_defaults(dim);
        cfg.walk.walk_length = l;
        cfg.model.window = w.min(l);
        cfg.model.negative_samples = ns;
        let ocfg = OsElmConfig { model: cfg.model, ..OsElmConfig::paper_defaults(dim) };
        let mut m = OsElmSkipGram::new(g.num_nodes(), ocfg);
        train_all_scenario(&g, &mut m, &cfg, SEED);
        // Modeled FPGA cost of one walk at these knobs.
        let contexts = l.saturating_sub(cfg.model.window) + 1;
        let samples = (cfg.model.window - 1) * (ns + 1);
        let walk_ms = cycles_to_millis(build.walk_cycles(contexts, samples));
        r.row(vec![
            int(l),
            int(w),
            int(ns),
            num(micro_f1(&g, &m), 4),
            num(walk_ms, 3),
            text(if (l, w, ns) == PAPER { "Table 2" } else { "" }),
        ]);
    }
    r.note("(expectation: accuracy saturates near the paper's point while FPGA cost");
    r.note(" keeps scaling with l·w·ns — Table 2 sits at a sensible knee)");
    r
}
