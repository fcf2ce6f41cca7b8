//! Ablation — edge-arrival order and the forgetting factor (extension).
//!
//! The paper's "seq" protocol replays removed edges in an arbitrary order.
//! Real dynamic graphs are *bursty*: regions densify at different times, so
//! the training distribution drifts. This ablation drives the proposed
//! model with a community-phased arrival schedule
//! ([`seqge_graph::generators::TimestampedGraph`]) and compares:
//!
//! * uniform random arrival vs community-phased (drifting) arrival,
//! * plain OS-ELM (λ = 1) vs the forgetting factor (λ = 0.9995),
//!
//! expectation: drift hurts, and the forgetting factor recovers most of the
//! loss — the mechanism the Fig. 5 reproduction leans on, isolated.

use super::{micro_f1, Setting, SEED, SEQ_FORGETTING};
use crate::report::{int, num, text, Report};
use seqge_core::{train_stream_scenario, OsElmConfig, OsElmSkipGram, TrainConfig};
use seqge_graph::generators::{SbmParams, TimestampedGraph};
use seqge_graph::EdgeStream;
use seqge_sampling::UpdatePolicy;

pub fn run(s: &Setting) -> Report {
    let dim = s.dim();
    let params = SbmParams::new((1200.0 * s.scale) as usize, (4800.0 * s.scale) as usize, 6);
    let tg = TimestampedGraph::generate(params, 0.1, SEED); // strongly phased
    let n = tg.graph.num_nodes();
    let drift = tg.arrival_order();
    let uniform = EdgeStream::from_edges(drift.clone(), SEED ^ 0x5451);
    let cfg = TrainConfig::paper_defaults(dim);

    let mut r = Report::new(["arrival order", "λ", "F1", "walks trained"]);
    for (order_name, order) in [("uniform", uniform.edges()), ("drift", &drift[..])] {
        for forgetting in [1.0, SEQ_FORGETTING] {
            let ocfg = OsElmConfig { forgetting, ..OsElmConfig::paper_defaults(dim) };
            let mut m = OsElmSkipGram::new(n, ocfg);
            let (_, outcome) =
                train_stream_scenario(n, order, &mut m, &cfg, UpdatePolicy::every_edge(), SEED);
            r.row(vec![
                text(order_name),
                num(forgetting.into(), 4),
                num(micro_f1(&tg.graph, &m), 4),
                int(outcome.walks_trained),
            ]);
        }
    }
    r.note(format!(
        "graph: {n} nodes, {} edges, phase concentration {:.2}",
        tg.graph.num_edges(),
        tg.phase_concentration()
    ));
    r.note("(expectation: drift hurts λ=1 most; forgetting recovers most of the gap)");
    r
}
