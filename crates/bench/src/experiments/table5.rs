//! Table 5 — model sizes (MB) of the original and proposed models.
//!
//! Analytic (see `seqge_core::model_size` for the formulas and their ~4 %
//! agreement with the paper), cross-checked against the live structs'
//! actual heap footprints.

use super::Setting;
use crate::report::{int, num, text, Report};
use seqge_core::model::EmbeddingModel;
use seqge_core::model_size::{alias_table_bytes, table5_rows, to_mb, SizeRow};
use seqge_core::{ModelConfig, OsElmConfig, OsElmSkipGram, SkipGram};
use seqge_graph::Dataset;

pub fn run(s: &Setting) -> Report {
    let mut r = Report::new([
        "dataset",
        "d",
        "original MB",
        "paper original MB",
        "proposed MB",
        "paper proposed MB",
        "reduction (x)",
    ]);
    let recorded = |row: &&SizeRow| {
        s.dims.contains(&row.dim) && s.datasets.iter().any(|d| d.short_name() == row.dataset)
    };
    for row in table5_rows().iter().filter(recorded) {
        let mut cells = vec![text(row.dataset), int(row.dim)];
        let sizes =
            [row.original_mb, row.paper_original_mb, row.proposed_mb, row.paper_proposed_mb];
        cells.extend(sizes.map(|mb| num(mb, 3)));
        cells.push(num(row.original_mb / row.proposed_mb, 2));
        r.row(cells);
    }
    r.note("(paper: proposed up to 3.82x smaller)");
    // Live-struct cross-check at one point.
    let n = Dataset::Cora.spec().num_nodes;
    let sg = SkipGram::new(n, ModelConfig::paper_defaults(32));
    let os = OsElmSkipGram::new(n, OsElmConfig::paper_defaults(32));
    r.note(format!(
        "live structs (cora, d=32): original {:.3} MB, proposed {:.3} MB (+{:.3} MB alias table)",
        to_mb(sg.model_bytes()),
        to_mb(os.model_bytes()),
        to_mb(alias_table_bytes(n)),
    ));
    r
}
