//! Property tests for the persistence layer.
//!
//! The serving daemon restores models from disk on boot, so the reader must
//! (a) reproduce the saved model bit-for-bit from a clean file and (b) fail
//! with a clean `io::Error` — never a panic or a silently wrong model — on
//! any truncated or corrupted input.

use proptest::prelude::*;
use seqge_core::persist::{
    read_embedding, read_model, read_oselm, write_embedding, write_model, write_oselm, ModelState,
    KIND_FIXED,
};
use seqge_core::{train_all_scenario, OsElmConfig, OsElmSkipGram, TrainConfig};
use seqge_graph::generators::classic::erdos_renyi;

fn trained(dim: usize, nodes: usize, seed: u64) -> OsElmSkipGram {
    let g = erdos_renyi(nodes, 0.15, seed);
    let mut cfg = TrainConfig::paper_defaults(dim);
    cfg.walk.walk_length = 8;
    cfg.walk.walks_per_node = 1;
    let mut m = OsElmSkipGram::new(
        nodes,
        OsElmConfig { model: cfg.model, ..OsElmConfig::paper_defaults(dim) },
    );
    train_all_scenario(&g, &mut m, &cfg, seed);
    m
}

/// `m`'s payload as a kind-3 file. The container does not interpret words, so
/// the f32 bit patterns stand in for the raw Q8.24 bits the fpga-sim backend
/// stores.
fn fixed_bytes(m: &OsElmSkipGram) -> Vec<u8> {
    let words = |xs: &[f32]| xs.iter().map(|x| x.to_bits().to_le_bytes()).collect::<Vec<_>>();
    let (beta, p) = (words(m.beta_t().as_slice()), words(m.p().as_slice()));
    let mut buf = Vec::new();
    write_model(&mut buf, KIND_FIXED, m.config(), m.beta_t().rows(), beta, p).unwrap();
    buf
}

fn read_fixed(buf: &[u8]) -> std::io::Result<ModelState<i32>> {
    read_model(buf, KIND_FIXED, i32::from_le_bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// save → load reproduces the model bit-identically (β, P, config), so
    /// a restored server resumes training from exactly the killed state.
    #[test]
    fn model_roundtrip_is_bit_identical(
        dim in 2usize..10,
        nodes in 6usize..30,
        seed in 0u64..1000,
    ) {
        let m = trained(dim, nodes, seed);
        let mut buf = Vec::new();
        write_oselm(&m, &mut buf).unwrap();
        let back = read_oselm(&buf[..]).unwrap();
        prop_assert_eq!(m.beta_t(), back.beta_t());
        prop_assert_eq!(m.p(), back.p());
        prop_assert_eq!(m.config(), back.config());
        // And the roundtrip is stable: re-serializing gives the same bytes.
        let mut buf2 = Vec::new();
        write_oselm(&back, &mut buf2).unwrap();
        prop_assert_eq!(buf, buf2);

        let fixed = fixed_bytes(&m);
        let back = read_fixed(&fixed).unwrap();
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits() as i32).collect::<Vec<_>>();
        prop_assert_eq!(&back.beta, &bits(m.beta_t().as_slice()));
        prop_assert_eq!(&back.p, &bits(m.p().as_slice()));
        prop_assert_eq!((&back.config, back.num_nodes), (m.config(), nodes));
    }

    /// Truncation at *every possible byte length* fails cleanly.
    #[test]
    fn any_truncation_errors_cleanly(seed in 0u64..200) {
        let m = trained(4, 10, seed);
        let mut buf = Vec::new();
        write_oselm(&m, &mut buf).unwrap();
        for cut in 0..buf.len() {
            prop_assert!(
                read_oselm(&buf[..cut]).is_err(),
                "truncation at {} of {} bytes must error", cut, buf.len()
            );
        }
        let fixed = fixed_bytes(&m);
        for cut in 0..fixed.len() {
            prop_assert!(read_fixed(&fixed[..cut]).is_err(), "kind 3 truncated at {}", cut);
        }
    }

    /// Flipping a byte in the header/config/shape region either errors or
    /// round-trips a structurally valid model — it never panics or hangs on
    /// a giant bogus allocation.
    #[test]
    fn header_corruption_never_panics(
        seed in 0u64..200,
        pos in 0usize..64,
        flip in 1u8..=255,
    ) {
        let m = trained(4, 10, seed);
        let mut buf = Vec::new();
        write_oselm(&m, &mut buf).unwrap();
        prop_assume!(pos < buf.len());
        buf[pos] ^= flip;
        if let Ok(back) = read_oselm(&buf[..]) {
            prop_assert_eq!(back.config().model.dim, back.p().rows());
        }
        let mut fixed = fixed_bytes(&m);
        fixed[pos] ^= flip;
        if let Ok(back) = read_fixed(&fixed) {
            let d = back.config.model.dim;
            prop_assert_eq!((back.beta.len(), back.p.len()), (back.num_nodes * d, d * d));
        }
    }

    /// Embedding files: roundtrip plus every-point truncation.
    #[test]
    fn embedding_roundtrip_and_truncation(seed in 0u64..200) {
        let m = trained(3, 8, seed);
        let emb = seqge_core::model::EmbeddingModel::embedding(&m);
        let mut buf = Vec::new();
        write_embedding(&emb, &mut buf).unwrap();
        prop_assert_eq!(read_embedding(&buf[..]).unwrap(), emb);
        for cut in 0..buf.len() {
            prop_assert!(read_embedding(&buf[..cut]).is_err());
        }
    }
}
