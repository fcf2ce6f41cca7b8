//! Pins the fixed-point accelerator's "all"-scenario stream: the raw Q8.24
//! β and P words and the modeled cycle count after one run driven by
//! `seqge_core::train_all_scenario`. The walk and negative draws come off one
//! RNG stream in a fixed order; a value that moves here means that order —
//! and every checked-in `results/*.json` trained through it — moved.

use seqge_core::{train_all_scenario, ModelConfig, OsElmConfig, TrainConfig};
use seqge_fixed::Q8_24;
use seqge_fpga::Accelerator;
use seqge_graph::generators::classic::erdos_renyi;
use seqge_sampling::Node2VecParams;

/// FNV-1a over raw Q8.24 words.
fn bit_hash(words: &[Q8_24]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

#[test]
fn all_scenario_through_the_accelerator_is_pinned() {
    let g = erdos_renyi(48, 0.12, 5);
    let model =
        ModelConfig { dim: 8, window: 4, negative_samples: 3, ..ModelConfig::paper_defaults(8) };
    let cfg = TrainConfig {
        walk: Node2VecParams { walk_length: 12, walks_per_node: 2, ..Default::default() },
        model,
    };
    let mut accel = Accelerator::new(48, OsElmConfig { model, ..OsElmConfig::paper_defaults(8) });
    train_all_scenario(&g, &mut accel, &cfg, 21);
    assert_eq!(
        (
            bit_hash(accel.beta_bits()),
            bit_hash(accel.p_bits()),
            accel.stats.cycles,
            accel.stats.walks
        ),
        (0x443f_465f_48cf_bc0b, 0xe0fa_c861_e2ea_a2e6, 287_170, 94),
    );
}
