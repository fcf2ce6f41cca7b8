//! Integration tests pinning the paper's qualitative claims at CI scale
//! (DESIGN.md §4 lists the expectations; EXPERIMENTS.md records full-scale
//! runs).

use seqge::core::model_size::{original_model_bytes, proposed_model_bytes};
use seqge::core::{train_all_scenario, EmbeddingModel, OsElmConfig, OsElmSkipGram, TrainConfig};
use seqge::eval::{evaluate_embedding, EvalConfig, LogRegConfig};
use seqge::fpga::{estimate_resources, AcceleratorDesign, FpgaDevice, TimingModel};
use seqge::graph::Dataset;

fn eval_cfg() -> EvalConfig {
    EvalConfig {
        trials: 2,
        logreg: LogRegConfig { epochs: 40, ..Default::default() },
        ..Default::default()
    }
}

/// Expectation 3: the proposed model is ~3–4× smaller at every Table 5 point.
#[test]
fn model_size_reduction_band() {
    for ds in Dataset::ALL {
        let n = ds.spec().num_nodes;
        for dim in [32usize, 64, 96] {
            let ratio = original_model_bytes(n, dim) as f64 / proposed_model_bytes(n, dim) as f64;
            assert!((3.0..4.2).contains(&ratio), "{ds} d={dim}: ratio {ratio}");
        }
    }
}

/// Expectation 4: the resource estimator reproduces Table 6 and everything
/// fits the device.
#[test]
fn resource_estimates_match_paper() {
    let dev = FpgaDevice::XCZU7EV;
    for (dim, bram, dsp) in [(32usize, 183, 1379), (64, 271, 1552), (96, 272, 1573)] {
        let est = estimate_resources(&AcceleratorDesign::for_dim(dim));
        assert_eq!((est.bram36, est.dsp), (bram, dsp), "d={dim}");
        assert!(dev.fits(est.bram36, est.dsp, est.ff, est.lut));
    }
}

/// Expectation: the timing model reproduces the paper's FPGA latencies.
#[test]
fn fpga_latency_matches_table3() {
    let t = TimingModel::default();
    for (dim, paper_ms) in [(32usize, 0.777), (64, 0.878), (96, 0.985)] {
        let ms = t.paper_walk_millis(dim);
        assert!((ms - paper_ms).abs() / paper_ms < 0.015, "d={dim}: {ms:.3} vs {paper_ms}");
    }
}

/// Expectation 7 (Fig. 6 shape): μ = 0.001 collapses, the plateau works,
/// and they are far apart.
#[test]
fn mu_collapse_and_plateau() {
    let g = Dataset::Cora.generate_scaled(0.15, 3);
    let labels = g.labels().unwrap().to_vec();
    let mut cfg = TrainConfig::paper_defaults(32);
    cfg.walk.walks_per_node = 5;
    let f1_of = |mu: f32| {
        let ocfg = OsElmConfig { model: cfg.model, mu, ..OsElmConfig::paper_defaults(32) };
        let mut m = OsElmSkipGram::new(g.num_nodes(), ocfg);
        train_all_scenario(&g, &mut m, &cfg, 3);
        evaluate_embedding(&m.embedding(), &labels, g.num_classes(), &eval_cfg(), 1).micro_f1
    };
    let tiny = f1_of(0.001);
    let plateau = f1_of(0.05);
    assert!(plateau > tiny + 0.25, "plateau {plateau:.3} should clearly beat collapsed {tiny:.3}");
    assert!(plateau > 0.4, "plateau must recover communities: {plateau:.3}");
}

/// The fixed-point accelerator's embedding classifies about as well as the
/// float model's (Fig. 4 shape at CI scale).
#[test]
fn fixed_point_embedding_close_to_float() {
    use seqge::fpga::Accelerator;
    let g = Dataset::Cora.generate_scaled(0.12, 9);
    let labels = g.labels().unwrap().to_vec();
    let mut cfg = TrainConfig::paper_defaults(32);
    cfg.walk.walks_per_node = 5;
    let ocfg = OsElmConfig { model: cfg.model, ..OsElmConfig::paper_defaults(32) };

    let mut float_model = OsElmSkipGram::new(g.num_nodes(), ocfg);
    train_all_scenario(&g, &mut float_model, &cfg, 5);
    let f_float =
        evaluate_embedding(&float_model.embedding(), &labels, g.num_classes(), &eval_cfg(), 2)
            .micro_f1;

    // Same driver, same seed: both models see the identical walk stream.
    let mut accel = Accelerator::new(g.num_nodes(), ocfg);
    train_all_scenario(&g, &mut accel, &cfg, 5);
    let f_fixed =
        evaluate_embedding(&accel.embedding(), &labels, g.num_classes(), &eval_cfg(), 2).micro_f1;

    assert_eq!(accel.stats.saturations, 0, "healthy training must not saturate");
    assert!(
        (f_float - f_fixed).abs() < 0.15,
        "fixed-point F1 {f_fixed:.3} should track float F1 {f_float:.3}"
    );
    assert!(f_fixed > 0.4, "fixed-point embedding must still classify: {f_fixed:.3}");
}
