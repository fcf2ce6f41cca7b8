//! Bit-identity property tests for the exact topk path.
//!
//! The `select_nth_unstable_by` rewrite of `topk_filtered` (and the exact
//! re-rank inside `topk_ann`) must be *bit-identical* to the obvious
//! reference: score every candidate, full-sort under the protocol total
//! order (score descending, node id ascending), take `k`. These properties
//! drive random matrices built from a tiny value alphabet so equal scores
//! — the tie-break case — occur constantly, and compare `Vec<(u32, f64)>`
//! with `prop_assert_eq!` (exact f64 equality, not approximate).

use proptest::prelude::*;
use seqge_ann::{AnnBuilder, AnnConfig};
use seqge_eval::EdgeOp;
use seqge_linalg::Mat;
use seqge_serve::EmbeddingSnapshot;
use std::sync::Arc;

const MAX_ROWS: usize = 40;
const MAX_COLS: usize = 6;

/// The reference ranking nobody can get wrong: score all candidates, full
/// sort with the protocol total order, truncate to `k`.
fn reference_topk(
    emb: &Mat<f32>,
    node: u32,
    k: usize,
    op: EdgeOp,
    filter: Option<(u32, u32)>,
) -> Vec<(u32, f64)> {
    let mut scored: Vec<(u32, f64)> = (0..emb.rows() as u32)
        .filter(|&v| v != node && filter.is_none_or(|(m, r)| v % m == r))
        .map(|v| (v, op.score(emb, node, v)))
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

fn snap(emb: Mat<f32>) -> EmbeddingSnapshot {
    EmbeddingSnapshot {
        version: 1,
        emb: Arc::new(emb.into()),
        num_edges: 0,
        walks_trained: 0,
        edges_inserted: 0,
        edges_removed: 0,
        ann: None,
    }
}

/// Builds a `rows x cols` matrix from a flat value pool (the pool is always
/// generated at max size; the prefix is used). With a 4-value alphabet,
/// duplicated rows — hence exact score ties — are the common case, not a
/// corner case.
fn matrix(rows: usize, cols: usize, vals: &[f32]) -> Mat<f32> {
    Mat::from_vec(rows, cols, vals[..rows * cols].to_vec())
}

/// One cell value from the tie-heavy alphabet.
fn cell() -> impl Strategy<Value = f32> {
    prop_oneof![Just(-1.0f32), Just(0.0f32), Just(0.5f32), Just(1.0f32)]
}

fn cells() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(cell(), MAX_ROWS * MAX_COLS)
}

fn any_op() -> impl Strategy<Value = EdgeOp> {
    prop_oneof![Just(EdgeOp::Dot), Just(EdgeOp::Cosine), Just(EdgeOp::NegL2)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// `mode:"exact"` (= `topk_filtered`) is bit-identical to the full-sort
    /// reference, ties included: same ids, same f64 scores, same order.
    #[test]
    fn exact_topk_is_bit_identical_to_full_sort(
        rows in 2usize..MAX_ROWS,
        cols in 1usize..MAX_COLS,
        vals in cells(),
        node_pick in 0usize..MAX_ROWS,
        k in 0usize..12,
        op in any_op(),
    ) {
        let emb = matrix(rows, cols, &vals);
        let node = (node_pick % rows) as u32;
        let want = reference_topk(&emb, node, k, op, None);
        let got = snap(emb).topk_filtered(node, k, op, None).expect("node in range");
        prop_assert_eq!(got, want);
    }

    /// The residue-class filter (the cluster's shard restriction) preserves
    /// bit-identity too.
    #[test]
    fn exact_topk_with_residue_filter_is_bit_identical(
        rows in 2usize..MAX_ROWS,
        cols in 1usize..MAX_COLS,
        vals in cells(),
        node_pick in 0usize..MAX_ROWS,
        k in 0usize..12,
        op in any_op(),
        m in 1u32..5,
        r_pick in 0u32..5,
    ) {
        let emb = matrix(rows, cols, &vals);
        let node = (node_pick % rows) as u32;
        let filter = Some((m, r_pick % m));
        let want = reference_topk(&emb, node, k, op, filter);
        let got = snap(emb).topk_filtered(node, k, op, filter).expect("node in range");
        prop_assert_eq!(got, want);
    }

    /// Ties break by ascending node id: on an all-identical-rows matrix the
    /// topk is exactly the first `k` non-query ids, scores all equal.
    #[test]
    fn all_tied_rows_rank_by_ascending_id(
        rows in 3usize..30,
        cols in 1usize..5,
        node_pick in 0usize..30,
        k in 1usize..8,
        op in any_op(),
    ) {
        let node = (node_pick % rows) as u32;
        let s = snap(Mat::from_fn(rows, cols, |_, c| 1.0 + c as f32));
        let got = s.topk_filtered(node, k, op, None).expect("node in range");
        let want_ids: Vec<u32> =
            (0..rows as u32).filter(|&v| v != node).take(k).collect();
        prop_assert_eq!(got.iter().map(|h| h.0).collect::<Vec<_>>(), want_ids);
        prop_assert!(got.windows(2).all(|w| w[0].1 == w[1].1), "scores tie");
    }

    /// The ANN path without an index is the exact scan: bit-identical to
    /// the reference and flagged as a fallback.
    #[test]
    fn ann_mode_without_index_is_bit_identical_fallback(
        rows in 2usize..MAX_ROWS,
        cols in 1usize..MAX_COLS,
        vals in cells(),
        node_pick in 0usize..MAX_ROWS,
        k in 0usize..12,
        op in any_op(),
        probes in 0usize..16,
    ) {
        let emb = matrix(rows, cols, &vals);
        let node = (node_pick % rows) as u32;
        let want = reference_topk(&emb, node, k, op, None);
        let got = snap(emb).topk_ann(node, k, op, None, probes).expect("node in range");
        prop_assert_eq!(got.fallback, k > 0);
        prop_assert_eq!(got.hits, want);
    }

    /// With an index over the same matrix, the ANN hits are an exactly
    /// re-ranked *subset*: every hit carries the exact score, the list obeys
    /// the protocol total order, and a fallback answer is bit-identical to
    /// the reference — approximation may drop candidates but can never
    /// perturb a score or a tie-break.
    #[test]
    fn ann_mode_with_index_reranks_exactly(
        rows in 2usize..MAX_ROWS,
        cols in 1usize..MAX_COLS,
        vals in cells(),
        node_pick in 0usize..MAX_ROWS,
        k in 1usize..8,
        op in any_op(),
        probes in 0usize..16,
    ) {
        let emb = matrix(rows, cols, &vals);
        let node = (node_pick % rows) as u32;
        let (index, _) = AnnBuilder::new(AnnConfig::default()).sync(&Arc::new(emb.clone().into()));
        let s = EmbeddingSnapshot { ann: Some(index), ..snap(emb) };
        let got = s.topk_ann(node, k, op, None, probes).expect("node in range");
        for &(v, score) in &got.hits {
            prop_assert_ne!(v, node);
            prop_assert_eq!(score, op.score(&s.emb, node, v));
        }
        prop_assert!(
            got.hits.windows(2).all(|w| {
                w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0)
            }),
            "protocol total order (score desc, id asc)"
        );
        if got.fallback {
            prop_assert_eq!(got.hits, reference_topk(&s.emb, node, k, op, None));
        } else {
            prop_assert!(got.candidates >= k);
            prop_assert_eq!(got.hits.len(), k);
        }
    }
}
