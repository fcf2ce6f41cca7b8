//! Pins what a ranked read returns: seeded matrices (d = 32, plus d = 12
//! and d = 20 so the 8-lane kernels run their tails) carrying duplicated
//! rows (ties break by id), an all-zero row (the cosine `.max(1e-12)`
//! guard) and a row scaled by 1e-20 are queried under every `EdgeOp` ×
//! residue filter × `k` × exact / ANN (probes 0 and 8), and the returned
//! **id lists** plus `AnnTopK::{candidates, fallback}` are folded into a
//! hash compared against a recorded value. The exact values were recorded
//! on the three-pass `EdgeOp::score` + n-element `select_nth_unstable_by`
//! path, the ANN ones on the Hamming-nearest code selection; any rewrite of
//! the scan has to reproduce them. Scores are not pinned by
//! bits — a kernel may re-associate its sums — but every returned score
//! must agree with the scalar three-pass reference below to 1e-12.

use seqge_ann::{AnnBuilder, AnnConfig};
use seqge_eval::EdgeOp;
use seqge_linalg::Mat;
use seqge_serve::EmbeddingSnapshot;
use std::sync::Arc;

const ROWS: usize = 3_000;
const OPS: [EdgeOp; 3] = [EdgeOp::Dot, EdgeOp::NegL2, EdgeOp::Cosine];
const FILTERS: [Option<(u32, u32)>; 3] = [None, Some((3, 1)), Some((4, 0))];
const KS: [usize; 5] = [0, 1, 10, 2_999, 10_000];
/// `None` = exact scan, `Some(probes)` = ANN.
const MODES: [Option<usize>; 3] = [None, Some(0), Some(8)];

const DUP_SOURCE: u32 = 7;
const DUPS: [usize; 3] = [100, 1_501, 2_998];
const ZERO_ROW: u32 = 50;
const TINY_ROW: u32 = 60;
/// The special rows, both ends of the id range and two ordinary rows.
const QUERIES: [u32; 7] = [0, DUP_SOURCE, ZERO_ROW, TINY_ROW, 1_501, 2_222, 2_999];

/// splitmix64 — self-contained so the pin does not depend on `rand`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    fn unit(&mut self) -> f32 {
        ((self.next() >> 40) as f32 / (1u64 << 23) as f32) - 1.0
    }
}

fn fold(h: &mut u64, v: u64) {
    *h = (*h ^ v).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(23);
}

fn snapshot(dim: usize) -> EmbeddingSnapshot {
    let mut rng = Rng(0x5EED_0022 ^ dim as u64);
    let mut emb = Mat::from_fn(ROWS, dim, |_, _| rng.unit());
    let source = emb.row(DUP_SOURCE as usize).to_vec();
    for row in DUPS {
        emb.row_mut(row).copy_from_slice(&source);
    }
    emb.row_mut(ZERO_ROW as usize).fill(0.0);
    for x in emb.row_mut(TINY_ROW as usize) {
        *x *= 1e-20;
    }
    let (index, _) = AnnBuilder::new(AnnConfig::default()).sync(&Arc::new(emb.clone().into()));
    EmbeddingSnapshot {
        version: 1,
        emb: Arc::new(emb.into()),
        num_edges: 0,
        walks_trained: 0,
        edges_inserted: 0,
        edges_removed: 0,
        ann: Some(index),
    }
}

/// The scalar reference: three sequential f64 reductions per pair.
fn score_ref(op: EdgeOp, x: &[f32], y: &[f32]) -> f64 {
    match op {
        EdgeOp::Dot => x.iter().zip(y).map(|(&a, &b)| a as f64 * b as f64).sum(),
        EdgeOp::NegL2 => {
            -x.iter().zip(y).map(|(&a, &b)| ((a - b) as f64).powi(2)).sum::<f64>().sqrt()
        }
        EdgeOp::Cosine => {
            let dot: f64 = x.iter().zip(y).map(|(&a, &b)| a as f64 * b as f64).sum();
            let nx: f64 = x.iter().map(|&a| (a as f64).powi(2)).sum::<f64>().sqrt();
            let ny: f64 = y.iter().map(|&b| (b as f64).powi(2)).sum::<f64>().sqrt();
            dot / (nx * ny).max(1e-12)
        }
    }
}

/// Hash of every id list (and the ANN bookkeeping) one `(op, mode)` cell
/// returns over `QUERIES × FILTERS × KS`.
fn fingerprint(snap: &EmbeddingSnapshot, op: EdgeOp, mode: Option<usize>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for node in QUERIES {
        for filter in FILTERS {
            for k in KS {
                let hits = match mode {
                    None => snap.topk_filtered(node, k, op, filter).expect("node in range"),
                    Some(probes) => {
                        let got = snap.topk_ann(node, k, op, filter, probes).expect("in range");
                        fold(&mut h, got.candidates as u64);
                        fold(&mut h, got.fallback as u64);
                        got.hits
                    }
                };
                fold(&mut h, hits.len() as u64);
                let query = snap.emb.row(node as usize);
                for (v, score) in hits {
                    fold(&mut h, v as u64);
                    let want = score_ref(op, query, snap.emb.row(v as usize));
                    assert!(
                        (score - want).abs() <= 1e-12 * want.abs().max(1.0),
                        "{op:?} score({node}, {v}) = {score:e}, the scalar reference gives {want:e}"
                    );
                }
            }
        }
    }
    h
}

/// `[exact, ann probes 0, ann probes 8]` fingerprints of one matrix, per op
/// in `OPS` order.
fn pinned(dim: usize, want: [[u64; 3]; 3]) {
    let snap = snapshot(dim);
    let seen = OPS.map(|op| MODES.map(|mode| fingerprint(&snap, op, mode)));
    assert_eq!(seen, want, "d = {dim}: id-list fingerprints per (op, mode)");
}

#[test]
fn ranked_reads_are_pinned_at_d32() {
    pinned(
        32,
        [
            [0x67b2_24e3_9320_7451, 0xa5eb_7895_ded1_25b4, 0x889c_39dd_4d97_0daf],
            [0xb2bc_27a4_11a2_747d, 0x523c_750d_6e18_4ca4, 0xf5c5_892f_0170_1999],
            [0x02a7_82ec_c8af_52ef, 0xce02_3e28_073f_bd1e, 0x97da_b82b_e25e_d72a],
        ],
    );
}

/// One full 8-lane chunk and a 4-element tail.
#[test]
fn ranked_reads_are_pinned_at_d12() {
    pinned(
        12,
        [
            [0x978b_45ea_ac0d_3e54, 0x56f7_e8be_8297_59a5, 0xa50f_7516_61fd_7306],
            [0xefad_3f0c_05ee_ddf1, 0x9bd4_445d_f707_c7e1, 0xcbbf_8e28_279a_f7c8],
            [0x4556_e1fb_d0c5_d1b6, 0x4315_602a_3246_81e7, 0x06ab_fbc6_bd06_20d7],
        ],
    );
}

/// Two chunks and a 4-element tail.
#[test]
fn ranked_reads_are_pinned_at_d20() {
    pinned(
        20,
        [
            [0x6350_909f_9653_9d07, 0x96a7_4421_d761_6078, 0x7f11_e5e7_1626_7a65],
            [0x2d72_ec25_2e05_5e1a, 0xa2a5_db69_0591_d3a0, 0x30b0_ff26_49ce_ea07],
            [0x0532_9274_b158_db21, 0x0404_611a_379c_0d9e, 0x5191_6fff_a0f0_f25a],
        ],
    );
}
