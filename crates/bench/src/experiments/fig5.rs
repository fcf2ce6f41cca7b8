//! Figure 5 — impact of sequential training on accuracy.
//!
//! Four bars per (dataset, dimension): {Original, Proposed} × {all, seq}.
//! Paper claims: in "all" the original wins; in "seq" the original drops
//! (catastrophic forgetting under backprop) while the proposed model *gains*
//! (it sees strictly more training walks and OS-ELM folds them in without
//! forgetting).

use super::{micro_f1, Setting, SEED, SEQ_FORGETTING};
use crate::report::{int, num, text, Report};
use seqge_core::{
    train_all_scenario, train_seq_scenario, EmbeddingModel, OsElmConfig, OsElmSkipGram, SkipGram,
    TrainConfig,
};
use seqge_graph::Graph;
use seqge_sampling::UpdatePolicy;

/// F1 after the "all" scenario and after "seq" (every removed edge replayed,
/// walks from both endpoints), each from a fresh `model()`.
fn all_and_seq<M: EmbeddingModel>(g: &Graph, cfg: &TrainConfig, model: impl Fn() -> M) -> [f64; 2] {
    let mut all = model();
    train_all_scenario(g, &mut all, cfg, SEED);
    let mut seq = model();
    train_seq_scenario(g, &mut seq, cfg, UpdatePolicy::every_edge(), SEED, 1.0);
    [micro_f1(g, &all), micro_f1(g, &seq)]
}

pub fn run(s: &Setting) -> Report {
    let mut r = Report::new([
        "dataset",
        "d",
        "Original all",
        "Original seq",
        "Proposed all",
        "Proposed seq",
        "orig seq − all",
        "prop seq − all",
    ]);
    for &ds in s.datasets {
        for &dim in s.dims {
            let cfg = TrainConfig::paper_defaults(dim);
            let g = ds.generate_scaled(s.scale, SEED);
            let n = g.num_nodes();
            let ocfg =
                OsElmConfig { forgetting: SEQ_FORGETTING, ..OsElmConfig::paper_defaults(dim) };
            let [oa, os] = all_and_seq(&g, &cfg, || SkipGram::new(n, cfg.model));
            let [pa, ps] = all_and_seq(&g, &cfg, || OsElmSkipGram::new(n, ocfg));
            let mut row = vec![text(ds.short_name()), int(dim)];
            row.extend([oa, os, pa, ps, os - oa, ps - pa].map(|f| num(f, 4)));
            r.row(row);
        }
    }
    r.note("(paper: original drops in seq — catastrophic forgetting; proposed seq ≥ all)");
    r.note(format!(
        "(proposed model runs with RLS forgetting λ={SEQ_FORGETTING}; λ=1 is paper-literal"
    ));
    r.note(" but its learning gain decays to zero over the seq phase — see DESIGN.md)");
    r
}
