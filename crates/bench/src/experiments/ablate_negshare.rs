//! Ablation — shared-per-walk negatives (§3.2's BRAM-traffic trick, after
//! Ji et al. \[10\]) vs fresh negatives per positive.
//!
//! Measures three things:
//! * accuracy (does the reuse hurt the embedding?),
//! * modeled DRAM column traffic through the accelerator's weight tile,
//! * host-side training time of the proposed model under both modes.
//!
//! Recorded on amcp (13 752 nodes at full scale) because the weight tile has
//! to overflow for the traffic to differ: a scaled cora fits entirely in the
//! 127-bank cache.

use super::{micro_f1, train_prepared, Setting, SEED};
use crate::report::{int, num, text, Report};
use crate::{prepared_walks, time_walk_training};
use seqge_core::{NegativeMode, OsElmConfig, OsElmSkipGram, TrainConfig};
use seqge_fpga::bram::TileManager;
use seqge_fpga::Build;
use seqge_sampling::Rng64;

pub fn run(s: &Setting) -> Report {
    let dim = s.dim();
    let cfg = TrainConfig::paper_defaults(dim);
    let prep = prepared_walks(s.dataset(), s.scale, &cfg, SEED);
    let n = prep.graph.num_nodes();
    let traffic_walks = &prep.walks[..prep.walks.len().min(2000)];
    let timed_walks = &prep.walks[..prep.walks.len().min(300)];

    let mut r = Report::new(["negative mode", "F1", "tile hit rate", "dram fetches"])
        .timed(&["walk time ms"]);
    for (name, mode) in [
        ("fresh per positive", NegativeMode::PerPosition),
        ("shared per walk", NegativeMode::PerWalk),
    ] {
        let mut ocfg = OsElmConfig::paper_defaults(dim);
        ocfg.model.negative_mode = mode;

        let mut m = OsElmSkipGram::new(n, ocfg);
        train_prepared(&mut m, &prep);
        let f1 = micro_f1(&prep.graph, &m);

        let mut timed = OsElmSkipGram::new(n, ocfg);
        let mut rng = Rng64::seed_from_u64(SEED);
        let t_walk = time_walk_training(&mut timed, timed_walks, &prep.table, &mut rng, 0.5) * 1e3;

        // Tile traffic: the kernel's access stream (centre, then each
        // positive and its negatives, drawn in this mode) through the
        // accelerator's weight tile.
        let mut tile = TileManager::for_build(&Build::for_dim(dim).expect("a paper build"));
        tile.replay(traffic_walks, &ocfg.model, &prep.table, &mut Rng64::seed_from_u64(SEED));
        let (hit_rate, fetches) = (tile.hit_rate(), tile.misses);
        r.row(vec![text(name), num(f1, 4), num(hit_rate, 3), int(fetches), num(t_walk, 3)]);
    }
    r.note("(expectation: shared negatives keep F1 within noise while cutting DRAM traffic)");
    r
}
