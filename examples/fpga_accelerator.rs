//! Drive the simulated ZCU104 accelerator end to end: host-side walk
//! pre-sampling, DMA-fed fixed-point training, cycle accounting, and
//! resource utilization — §3.2's system in one program.
//!
//! ```bash
//! cargo run --release --example fpga_accelerator
//! ```

use seqge::core::{full_corpus, train_all_scenario, EmbeddingModel, OsElmConfig, TrainConfig};
use seqge::eval::{evaluate_embedding, EvalConfig, LogRegConfig};
use seqge::fpga::bram::TileManager;
use seqge::fpga::{cycles_to_millis, estimate_resources, Accelerator, Build};
use seqge::fpga::{FpgaDevice, CLOCK_MHZ};
use seqge::graph::Dataset;

fn main() {
    let dim = 32;
    let g = Dataset::Cora.generate_scaled(0.3, 5);
    let labels = g.labels().expect("labelled").to_vec();
    println!("graph: {} nodes, {} edges", g.num_nodes(), g.num_edges());

    // The bitstream this run models.
    let build = Build::for_dim(dim).expect("a paper build");
    let est = estimate_resources(&build);
    let util = est.utilization(&FpgaDevice::XCZU7EV);
    println!(
        "design d={dim}: {} MAC lanes @ {CLOCK_MHZ} MHz — BRAM {} ({:.1}%), DSP {} ({:.1}%)",
        build.mac_lanes, est.bram36, util.bram_pct, est.dsp, util.dsp_pct
    );

    // The host side is the ordinary "all"-scenario driver: it pre-samples
    // every walk and its negatives, the accelerator trains them one by one.
    let mut cfg = TrainConfig::paper_defaults(dim);
    cfg.walk.walks_per_node = 5;
    let ocfg = OsElmConfig { model: cfg.model, ..OsElmConfig::paper_defaults(dim) };
    let mut accel = Accelerator::new(g.num_nodes(), ocfg);
    train_all_scenario(&g, &mut accel, &cfg, 17);
    let stats = accel.stats;
    let accel_ms = cycles_to_millis(stats.cycles);
    println!(
        "trained {} walks: modeled PL time {:.1} ms \
         ({:.3} ms/walk — paper Table 3: 0.777 ms/walk at d=32)",
        stats.walks,
        accel_ms,
        accel_ms / stats.walks as f64
    );
    // The same walks and negative draws, replayed through the weight tile.
    let (_, walks, table, mut rng) = full_corpus(&g, &cfg, 17);
    let mut tile = TileManager::for_build(&build);
    tile.replay(&walks, &accel.config().model, &table, &mut rng);
    println!(
        "tile traffic: {} DRAM column fetches, {} on-chip hits ({:.1}% hit rate), {} saturations",
        tile.misses,
        tile.hits,
        100.0 * tile.hit_rate(),
        stats.saturations
    );

    // The fixed-point embedding still classifies.
    let eval_cfg = EvalConfig {
        trials: 2,
        logreg: LogRegConfig { epochs: 40, ..Default::default() },
        ..Default::default()
    };
    let f1 = evaluate_embedding(&accel.embedding(), &labels, g.num_classes(), &eval_cfg, 1);
    println!("downstream F1 of the fixed-point embedding: {:.3}", f1.micro_f1);
}
