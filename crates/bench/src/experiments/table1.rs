//! Table 1 (dataset statistics) and Table 2 (hyper-parameters): the
//! synthetic stand-in graphs against the published statistics, and the
//! node2vec configuration every other experiment uses.

use super::{Setting, SEED};
use crate::report::{int, num, text, Report};
use seqge_core::TrainConfig;
use seqge_graph::stats::{degree_stats, label_homophily};

pub fn run(s: &Setting) -> Report {
    let mut r =
        Report::new(["dataset", "nodes", "edges", "classes", "avg deg", "max deg", "homophily"]);
    for &ds in s.datasets {
        let g = ds.generate_scaled(s.scale, SEED);
        let degs = degree_stats(&g);
        let mut row = vec![text(ds.full_name())];
        row.extend([g.num_nodes(), g.num_edges(), g.num_classes()].map(int));
        row.extend([num(degs.mean, 2), int(degs.max)]);
        row.push(num(label_homophily(&g).unwrap_or(0.0), 3));
        r.row(row);
    }
    r.note("(paper Table 1: cora 2708/5429/7, ampt 7650/143663/8, amcp 13752/287209/10)");
    let cfg = TrainConfig::paper_defaults(s.dim());
    r.note(format!(
        "Table 2 — node2vec p/q/r/l/w/ns: {}/{}/{}/{}/{}/{} (paper: 0.5/1.0/10/80/8/10)",
        cfg.walk.p,
        cfg.walk.q,
        cfg.walk.walks_per_node,
        cfg.walk.walk_length,
        cfg.model.window,
        cfg.model.negative_samples,
    ));
    r
}
