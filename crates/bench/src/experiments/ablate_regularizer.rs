//! Ablation — the OS-ELM update denominator and the ΔP visibility model.
//!
//! Algorithm 1 line 5 literally reads `hpht_inv ← 1/(H·P·Hᵀ)`; the standard
//! OS-ELM (Liang et al. \[5\]) uses `1/(1 + H·P·Hᵀ)` (Sherman–Morrison with
//! the identity regularizer). The bare form makes the rank-1 downdate
//! project `P` to singularity along `H` and training collapses — this is
//! why the reproduction defaults to the regularized form (DESIGN.md §1
//! "Faithfulness notes").
//!
//! The second pair of rows ablates the Algorithm-2 `ΔP` visibility model
//! ([`seqge_core::PVisibility`]): whole-walk freezing (the literal reading)
//! vs pipeline-register forwarding (the stable reading this repo defaults
//! to).

use super::{micro_f1, train_prepared, Setting, SEED};
use crate::prepared_walks;
use crate::report::{int, num, text, Report};
use seqge_core::model::EmbeddingModel;
use seqge_core::{DataflowOsElm, OsElmConfig, OsElmSkipGram, PVisibility, TrainConfig};
use seqge_graph::Graph;

/// One row: F1 ("diverged" when the trained weights are not `finite`) and the
/// model's count of clamped / guarded updates.
fn variant<M: EmbeddingModel>(r: &mut Report, g: &Graph, name: &str, m: &M, finite: bool, n: u64) {
    let f1 = if finite { num(micro_f1(g, m), 4) } else { text("diverged") };
    r.row(vec![text(name), f1, text(finite.to_string()), int(n)]);
}

pub fn run(s: &Setting) -> Report {
    let dim = s.dim();
    let prep = prepared_walks(s.dataset(), s.scale, &TrainConfig::paper_defaults(dim), SEED);
    let (g, n) = (&prep.graph, prep.graph.num_nodes());
    let mut r = Report::new(["variant", "F1", "finite", "clamped / guarded updates"]);

    for (name, regularized) in
        [("denominator 1 + HPH^T (standard)", true), ("denominator HPH^T (paper-literal)", false)]
    {
        let ocfg = OsElmConfig { regularized, ..OsElmConfig::paper_defaults(dim) };
        let mut m = OsElmSkipGram::new(n, ocfg);
        train_prepared(&mut m, &prep);
        let finite = m.beta_t().all_finite() && m.p().all_finite();
        variant(&mut r, g, name, &m, finite, m.clamped_updates());
    }
    for (name, vis) in [
        ("dP visibility: pipeline-register (default)", PVisibility::Running),
        ("dP visibility: whole-walk freeze (literal)", PVisibility::PerWalk),
    ] {
        let mut m = DataflowOsElm::new(n, OsElmConfig::paper_defaults(dim)).with_p_visibility(vis);
        train_prepared(&mut m, &prep);
        let finite = m.beta_t().all_finite() && m.p().all_finite();
        variant(&mut r, g, name, &m, finite, m.guarded_updates());
    }
    r.note("(expectation: the standard denominator and pipeline-register visibility are");
    r.note(" required for stable sequential training; the literal readings degrade)");
    r
}
