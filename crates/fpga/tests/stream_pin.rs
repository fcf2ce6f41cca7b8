//! Pins the fixed-point accelerator's "all"-scenario stream: the raw Q8.24
//! β and P words and the modeled cycle count after one run driven by
//! `seqge_core::train_all_scenario`. The walk and negative draws come off one
//! RNG stream in a fixed order; a value that moves here means that order —
//! and every checked-in `results/*.json` trained through it — moved.
//!
//! The regime pins below it hold the kernel itself still: each hashes every
//! observable of an [`Accelerator`] (β words, P words, every `AccelStats`
//! field, the RNG position, the concatenated `take_dirty` lists) after a few
//! hundred walks in one arithmetic regime — paper geometry, lane tails,
//! forgetting, and a state driven onto the saturation rails. The paper
//! geometry also pins the β-column traffic of the kernel's access stream
//! through the BRAM weight tile.

use seqge_core::model::EmbeddingModel;
use seqge_core::{full_corpus, train_all_scenario, ModelConfig, OsElmConfig, TrainConfig};
use seqge_fixed::Q8_24;
use seqge_fpga::bram::TileManager;
use seqge_fpga::{AccelStats, Accelerator, Build};
use seqge_graph::generators::classic::erdos_renyi;
use seqge_graph::NodeId;
use seqge_sampling::{NegativeTable, Node2VecParams, Rng64};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// FNV-1a over raw Q8.24 words.
fn bit_hash(words: &[Q8_24]) -> u64 {
    fnv(FNV_OFFSET, words.iter().flat_map(|w| w.to_bits().to_le_bytes()))
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

/// What one regime pins: β hash, P hash, a hash over every `AccelStats`
/// field, the RNG position and the `take_dirty` lists (drained every 16 walks
/// and at the end), plus the two rail counters in the clear.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    beta: u64,
    p: u64,
    stats_and_dirty: u64,
    saturations: u64,
    guarded: u64,
}

/// The first `walks` walks of the graph's `l`-step corpus for `model`, with
/// the negative table and the RNG stream positioned after the walk draws (as
/// in the "all" scenario, negatives come off the same stream).
fn regime_corpus(
    n: usize,
    model: ModelConfig,
    l: usize,
    walks: usize,
    seed: u64,
) -> (Vec<Vec<NodeId>>, NegativeTable, Rng64) {
    let g = erdos_renyi(n, 6.0 / n as f64, seed);
    let cfg = TrainConfig {
        walk: Node2VecParams { walk_length: l, walks_per_node: 1, ..Default::default() },
        model,
    };
    let (_, corpus, table, rng) = full_corpus(&g, &cfg, seed);
    let corpus: Vec<Vec<NodeId>> = corpus.into_iter().filter(|w| w.len() > 1).take(walks).collect();
    assert_eq!(corpus.len(), walks, "graph too sparse for the requested walk count");
    (corpus, table, rng)
}

/// Trains the [`regime_corpus`] through `accel` and folds everything
/// observable into a [`Pin`].
fn run_regime(mut accel: Accelerator, l: usize, walks: usize, seed: u64) -> Pin {
    let (corpus, table, mut rng) =
        regime_corpus(accel.num_nodes(), accel.config().model, l, walks, seed);
    let mut dirty: Vec<NodeId> = Vec::new();
    for (i, walk) in corpus.iter().enumerate() {
        accel.train_walk(walk, &table, &mut rng);
        if i % 16 == 15 {
            dirty.extend(accel.take_dirty());
            dirty.push(NodeId::MAX); // list boundary
        }
    }
    dirty.extend(accel.take_dirty());
    // Destructured so that a new field cannot be left out of the pin.
    let AccelStats { walks, cycles, saturations, guarded } = accel.stats;
    let stats = [
        walks,
        cycles,
        saturations,
        guarded,
        rng.next_u64(), // the RNG position after the last walk
    ];
    let h = fnv(FNV_OFFSET, stats.iter().flat_map(|v| v.to_le_bytes()));
    Pin {
        beta: bit_hash(accel.beta_bits()),
        p: bit_hash(accel.p_bits()),
        stats_and_dirty: fnv(h, dirty.iter().flat_map(|v| v.to_le_bytes())),
        saturations,
        guarded,
    }
}

/// (a) The benchmark's geometry: n = 1 000, d = 32, l = 80, w = 8, ns = 10.
#[test]
fn paper_geometry_is_pinned() {
    let pin = run_regime(Accelerator::new(1000, OsElmConfig::paper_defaults(32)), 80, 208, 3);
    assert_eq!(
        pin,
        Pin {
            beta: 0xc747_7082_da59_5776,
            p: 0x68a2_3f1e_c8aa_156b,
            stats_and_dirty: 0xf46d_cf70_5e8e_3b86,
            saturations: 0,
            guarded: 0,
        },
        "{pin:#x?}"
    );
}

/// (a') The paper geometry's β-column traffic through the BRAM weight tile:
/// per context the centre, then each positive followed by the walk's shared
/// negatives, drawn off the same RNG stream as the kernel draws them.
#[test]
fn paper_geometry_tile_traffic_is_pinned() {
    let model = Accelerator::new(1000, OsElmConfig::paper_defaults(32)).config().model;
    let (corpus, table, mut rng) = regime_corpus(1000, model, 80, 208, 3);
    let mut tile = TileManager::for_build(&Build::for_dim(32).unwrap());
    tile.replay(&corpus, &model, &table, &mut rng);
    assert_eq!((tile.hits, tile.misses), (1_183_358, 994));
}

/// (b) Dimensions that are not a multiple of any unroll width.
#[test]
fn lane_tails_are_pinned() {
    let d12 = run_regime(Accelerator::new(300, OsElmConfig::paper_defaults(12)), 40, 96, 5);
    let d20 = run_regime(Accelerator::new(300, OsElmConfig::paper_defaults(20)), 40, 96, 6);
    assert_eq!(
        (&d12, &d20),
        (
            &Pin {
                beta: 0x1eda_25a7_8d49_18cf,
                p: 0x4d41_07ca_5429_e823,
                stats_and_dirty: 0x5532_d94e_71ba_a837,
                saturations: 0,
                guarded: 0,
            },
            &Pin {
                beta: 0xca38_5d2f_48cd_b10f,
                p: 0xd58e_afcf_d305_a6ab,
                stats_and_dirty: 0xa471_6d6f_5080_e30b,
                saturations: 0,
                guarded: 0,
            },
        ),
        "{d12:#x?} {d20:#x?}"
    );
}

/// (c) `forgetting < 1`: the inflate / trace-cap / mirror branch — at
/// fig5's λ = 0.9995, where training stays healthy, and at λ = 0.98, where
/// the inflation outruns the downdates, P hits the rails and the guard takes
/// over after some four hundred contexts.
#[test]
fn forgetting_branch_is_pinned() {
    let run = |forgetting| {
        let cfg = OsElmConfig { forgetting, ..OsElmConfig::paper_defaults(16) };
        run_regime(Accelerator::new(300, cfg), 40, 96, 7)
    };
    let (mild, harsh) = (run(0.9995), run(0.98));
    assert_eq!(
        (&mild, &harsh),
        (
            &Pin {
                beta: 0xa0dd_672d_2749_6cce,
                p: 0x2741_0b04_aa6d_f3a8,
                stats_and_dirty: 0xe239_235d_89ad_88eb,
                saturations: 0,
                guarded: 0,
            },
            &Pin {
                beta: 0x84ea_82a0_5e79_db12,
                p: 0xd032_4b7c_0a70_9f25,
                stats_and_dirty: 0xa3a6_5b75_239e_e0e6,
                saturations: 28_186,
                guarded: 2634,
            },
        ),
        "{mild:#x?} {harsh:#x?}"
    );
}

/// (d) States on or near the rails, built with `from_raw_parts` at μ = 1 so
/// that `H = β[center]`: random β in `±amp`, `P = p0·I`. `H` is far above
/// the range in which a wide accumulation provably cannot saturate, so these
/// are the regimes in which only the scalar saturating reference arithmetic
/// is correct.
fn hot_regime(amp: f64, p0: f64) -> Pin {
    let (n, d) = (200usize, 32usize);
    let cfg = OsElmConfig { mu: 1.0, ..OsElmConfig::paper_defaults(d) };
    let mut rng = Rng64::seed_from_u64(9);
    let beta = (0..n * d).map(|_| Q8_24::from_f64((rng.next_f64() - 0.5) * 2.0 * amp)).collect();
    let mut p = vec![Q8_24::ZERO; d * d];
    for i in 0..d {
        p[i * d + i] = Q8_24::from_f64(p0);
    }
    run_regime(Accelerator::from_raw_parts(n, cfg, beta, p), 40, 64, 8)
}

#[test]
fn rail_regimes_are_pinned() {
    // β in ±120 under P = 100·I: Pʜ, HPHᵀ and every write-back saturate, P
    // loses definiteness inside the first walk and the guard fires from
    // then on.
    let rails = hot_regime(120.0, 100.0);
    // β in ±40 under P = 0.01·I: some forty healthy downdates before the
    // same breakdown.
    let breaking = hot_regime(40.0, 0.01);
    // β in ±40 under P = 0.005·I: `H` just as hot, nothing saturates, every
    // context healthy.
    let hot = hot_regime(40.0, 0.005);
    assert!(rails.saturations > 0 && rails.guarded > 0, "{rails:#x?}");
    assert!(breaking.guarded > 0 && breaking.guarded < rails.guarded, "{breaking:#x?}");
    assert_eq!((hot.saturations, hot.guarded), (0, 0), "{hot:#x?}");
    assert_eq!(
        (&rails, &breaking, &hot),
        (
            &Pin {
                beta: 0xc0c3_4d18_7e50_637d,
                p: 0x7b20_0b67_1fb0_8325,
                stats_and_dirty: 0x3fae_6cf1_8f00_166d,
                saturations: 62_605,
                guarded: 2086,
            },
            &Pin {
                beta: 0x38fc_7ec3_04b9_5810,
                p: 0x5f65_9d36_36b8_242d,
                stats_and_dirty: 0x212c_830e_cd5a_f765,
                saturations: 57_382,
                guarded: 2070,
            },
            &Pin {
                beta: 0x0484_d327_306e_981a,
                p: 0xa473_e4b5_053b_2bae,
                stats_and_dirty: 0x9b9b_7707_8147_4481,
                saturations: 0,
                guarded: 0,
            },
        ),
        "{rails:#x?} {breaking:#x?} {hot:#x?}"
    );
}
