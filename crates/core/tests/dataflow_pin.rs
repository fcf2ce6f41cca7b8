//! Pins the float Algorithm 2 kernel (`DataflowOsElm::train_walk`) by the
//! `to_bits` hash of β and P after a few hundred walks at the paper's
//! geometry, for every negative-sharing mode × ΔP visibility. The kernel's
//! arithmetic order is what the fpga-sim deviation probe and every
//! dataflow-trained `results/*.json` rest on; a value that moves here moved
//! them.

use seqge_core::model::EmbeddingModel;
use seqge_core::{
    full_corpus, DataflowOsElm, ModelConfig, NegativeMode, OsElmConfig, PVisibility, TrainConfig,
};
use seqge_graph::generators::classic::erdos_renyi;
use seqge_sampling::Node2VecParams;

/// FNV-1a over `f32` bit patterns.
fn bit_hash(words: &[f32]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// β hash, P hash, guarded contexts and the next RNG word after `walks`
/// `l`-step walks over an `n`-node graph of mean degree `deg` at dimension
/// `d` (w = 8, ns = 10).
fn run(
    (n, deg, d, l, walks): (usize, f64, usize, usize, usize),
    negative_mode: NegativeMode,
    visibility: PVisibility,
) -> (u64, u64, u64, u64) {
    let g = erdos_renyi(n, deg / n as f64, 3);
    let model = ModelConfig { negative_mode, ..ModelConfig::paper_defaults(d) };
    let cfg = TrainConfig {
        walk: Node2VecParams {
            walk_length: l,
            walks_per_node: walks.div_ceil(n),
            ..Default::default()
        },
        model,
    };
    let (_, corpus, table, mut rng) = full_corpus(&g, &cfg, 3);
    let mut m = DataflowOsElm::new(n, OsElmConfig { model, ..OsElmConfig::paper_defaults(d) })
        .with_p_visibility(visibility);
    let mut trained = 0;
    for walk in corpus.iter().filter(|w| w.len() > 1).take(walks) {
        m.train_walk(walk, &table, &mut rng);
        trained += 1;
    }
    assert_eq!(trained, walks, "graph too sparse for the requested walk count");
    (
        bit_hash(m.beta_t().as_slice()),
        bit_hash(m.p().as_slice()),
        m.guarded_updates(),
        rng.next_u64(),
    )
}

/// The paper's geometry: n = 1 000, d = 32, l = 80.
const PAPER: (usize, f64, usize, usize, usize) = (1000, 6.0, 32, 80, 208);
/// A small dense graph whose walks keep repeating directions — the case in
/// which the whole-walk `P` freeze overshoots and the guard drops contexts
/// (and, per position, their negative draws).
const DENSE: (usize, f64, usize, usize, usize) = (24, 8.0, 8, 40, 192);

#[test]
fn dataflow_kernel_is_pinned() {
    let got = [
        run(PAPER, NegativeMode::PerWalk, PVisibility::Running),
        run(PAPER, NegativeMode::PerWalk, PVisibility::PerWalk),
        run(PAPER, NegativeMode::PerPosition, PVisibility::Running),
        run(PAPER, NegativeMode::PerPosition, PVisibility::PerWalk),
        run(DENSE, NegativeMode::PerWalk, PVisibility::PerWalk),
        run(DENSE, NegativeMode::PerPosition, PVisibility::PerWalk),
    ];
    assert!(got[4].2 > 0 && got[5].2 > 0, "the dense regime must reach the guard");
    let want = [
        (0x9b24_bddd_15d3_3522, 0xac4d_e48f_b358_561d, 0, 0x1ad7_d320_d134_bda7),
        (0xbc1e_dbca_4f64_3a8d, 0xfdb8_a10e_4919_13ae, 0, 0x1ad7_d320_d134_bda7),
        (0x7318_f7f4_6c66_850e, 0x6f7f_7d38_b7e0_d0c2, 0, 0x5422_fd43_8918_8d8a),
        (0x6259_2a0d_6f7f_e828, 0xb8eb_ac28_2029_d934, 0, 0x5422_fd43_8918_8d8a),
        (0xc319_a3ec_6cd7_088d, 0x2503_c2a5_89b6_1d51, 6170, 0x0fcb_ee35_72cd_5a1f),
        (0xf02a_3d6a_0bab_1e1d, 0x5be8_38be_6b7b_e7ee, 6178, 0x1ca4_083c_d99a_185d),
    ];
    assert_eq!(got, want, "{got:#x?}");
}
