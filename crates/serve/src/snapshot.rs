//! Read-optimized embedding snapshots and their publication cell.
//!
//! The serving invariant: **queries never block on a training step.** The
//! trainer thread periodically renders its model into an immutable
//! [`EmbeddingSnapshot`] and publishes it through a [`SnapshotCell`] — a
//! versioned `Arc` slot whose swap is a pointer store under a micro-lock
//! (nanoseconds, never held across training). Readers go through a
//! [`SnapshotReader`], which caches the last `Arc` it saw and consults only
//! a lock-free atomic version counter per query; the micro-lock is touched
//! once per *publication*, not once per query.

use seqge_ann::AnnIndex;
use seqge_eval::EdgeOp;
use seqge_graph::NodeId;
use seqge_linalg::Mat;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// An immutable view of the model at one training version: the embedding
/// matrix plus the telemetry the `stats` command reports.
#[derive(Debug, Clone)]
pub struct EmbeddingSnapshot {
    /// Monotonic publication version (0 = boot snapshot).
    pub version: u64,
    /// One embedding row per node — the backend's published view, shared
    /// with every snapshot taken with no training in between.
    pub emb: Arc<Mat<f32>>,
    /// Edges in the graph when the snapshot was taken.
    pub num_edges: usize,
    /// Walks trained since boot.
    pub walks_trained: usize,
    /// Edge insertions applied since boot.
    pub edges_inserted: usize,
    /// Edge retractions applied since boot.
    pub edges_removed: usize,
    /// ANN index over `emb`, built by the trainer *for this exact matrix*
    /// and published inside the same `Arc` — a reader can never pair a
    /// stale index with fresh embeddings or vice versa. `None` on a
    /// replica's snapshots, which publish without an index (queries with
    /// `mode:"ann"` then fall back to the exact scan).
    pub ann: Option<Arc<AnnIndex>>,
}

/// Result of [`EmbeddingSnapshot::topk_ann`]: the hits plus how the
/// candidate set was produced (mirrored into `seqge_ann_*` metrics).
#[derive(Debug, Clone, PartialEq)]
pub struct AnnTopK {
    /// The `k` best candidates, best first — scored and tie-broken exactly
    /// like the brute-force path.
    pub hits: Vec<(NodeId, f64)>,
    /// Candidates scored (after self/filter exclusion). For a fallback
    /// this is the brute-force pool size.
    pub candidates: usize,
    /// `true` when the exact scan answered instead of the index (index
    /// absent, geometry mismatch, or candidate pool smaller than `k`).
    pub fallback: bool,
}

impl EmbeddingSnapshot {
    /// Number of nodes the model covers.
    pub fn num_nodes(&self) -> usize {
        self.emb.rows()
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.emb.cols()
    }

    /// The embedding row for `node`, or `None` if out of range.
    pub fn embedding(&self, node: NodeId) -> Option<&[f32]> {
        if (node as usize) < self.emb.rows() {
            Some(self.emb.row(node as usize))
        } else {
            None
        }
    }

    /// Scores the pair `(u, v)` under `op` (the `score_link` read command,
    /// reusing the link-prediction edge operators). `None` if either node
    /// is out of range.
    pub fn score(&self, u: NodeId, v: NodeId, op: EdgeOp) -> Option<f64> {
        let n = self.emb.rows();
        if (u as usize) < n && (v as usize) < n {
            Some(op.score(&self.emb, u, v))
        } else {
            None
        }
    }

    /// The `k` nearest neighbors of `node` under `op`, best first, the
    /// query node itself excluded. `None` if `node` is out of range.
    pub fn topk(&self, node: NodeId, k: usize, op: EdgeOp) -> Option<Vec<(NodeId, f64)>> {
        self.topk_filtered(node, k, op, None)
    }

    /// [`EmbeddingSnapshot::topk`] restricted to one residue class of the
    /// vertex space: with `filter = Some((m, r))`, only candidates `v` with
    /// `v % m == r` compete. The cluster router fans a query out with each
    /// shard's own `(shards, shard_id)` filter so every candidate is scored
    /// by exactly the shard that owns (and trains) it, then merges the
    /// per-shard lists. Ties break deterministically: equal scores order by
    /// ascending node id.
    pub fn topk_filtered(
        &self,
        node: NodeId,
        k: usize,
        op: EdgeOp,
        filter: Option<(u32, u32)>,
    ) -> Option<Vec<(NodeId, f64)>> {
        if node as usize >= self.emb.rows() {
            return None;
        }
        Some(Self::rank_top_k(&self.emb, node, k, op, self.residue_class(node, filter)).0)
    }

    /// Every vertex but `node`, restricted to `filter`'s residue class
    /// `(m, r)`: walks `r, r + m, …`, so a shard's scan touches only the
    /// ids it owns. A remainder no id can have (`r >= m`) is an empty class.
    fn residue_class(
        &self,
        node: NodeId,
        filter: Option<(u32, u32)>,
    ) -> impl Iterator<Item = NodeId> {
        let n = self.emb.rows() as NodeId;
        let (m, r) = filter.unwrap_or((1, 0));
        let first = if r < m { r } else { n };
        (first..n).step_by(m as usize).filter(move |&v| v != node)
    }

    /// [`EmbeddingSnapshot::topk_filtered`] answered from the published
    /// ANN index: the candidate pool is the union of the query's LSH
    /// buckets (plus `probes` low-margin probes per band) instead of every
    /// vertex, then re-ranked *exactly* — scores and tie-breaks are
    /// identical to the brute-force path; only membership of the pool is
    /// approximate. Falls back to the exact scan (and says so) when no
    /// index is published, the index covers a different matrix geometry,
    /// or fewer than `k` candidates survive the self/filter exclusion.
    /// `None` if `node` is out of range.
    pub fn topk_ann(
        &self,
        node: NodeId,
        k: usize,
        op: EdgeOp,
        filter: Option<(u32, u32)>,
        probes: usize,
    ) -> Option<AnnTopK> {
        if node as usize >= self.emb.rows() {
            return None;
        }
        if k == 0 {
            return Some(AnnTopK { hits: Vec::new(), candidates: 0, fallback: false });
        }
        let geometry = (self.emb.rows(), self.emb.cols());
        if let Some(index) = self.ann.as_ref().filter(|ix| (ix.num_points(), ix.dim()) == geometry)
        {
            let mut cands = index.candidates(self.emb.row(node as usize), probes);
            cands.retain(|&v| v != node && filter.is_none_or(|(m, r)| v % m == r));
            if cands.len() >= k {
                let (hits, candidates) =
                    Self::rank_top_k(&self.emb, node, k, op, cands.into_iter());
                return Some(AnnTopK { hits, candidates, fallback: false });
            }
        }
        let (hits, candidates) =
            Self::rank_top_k(&self.emb, node, k, op, self.residue_class(node, filter));
        Some(AnnTopK { hits, candidates, fallback: true })
    }

    /// Exact ranking of a candidate stream: one [`seqge_eval::Scorer`] for
    /// the query, every candidate row through it once, and a heap of the `k`
    /// best so far whose top is the worst of them — a candidate that does
    /// not beat it costs one comparison, one that does O(log k), and nothing
    /// is allocated per candidate. Returns the hits best first under the
    /// total order of [`Ranked`], so the same snapshot always returns the
    /// same list, and the number of candidates scored.
    ///
    /// It takes the matrix, not the snapshot that holds it behind an `Arc`:
    /// a reference argument cannot change during the call, so the row loop
    /// keeps the matrix's pointer and shape across the out-of-line scorer
    /// calls instead of re-reading them through the `Arc` for every row.
    fn rank_top_k(
        emb: &Mat<f32>,
        node: NodeId,
        k: usize,
        op: EdgeOp,
        candidates: impl Iterator<Item = NodeId>,
    ) -> (Vec<(NodeId, f64)>, usize) {
        if k == 0 {
            return (Vec::new(), 0);
        }
        let scorer = op.scorer(emb.row(node as usize));
        // Candidates are distinct rows, so no more than `rows` are ever kept.
        let mut kept = BinaryHeap::with_capacity(k.min(emb.rows()));
        let mut scored = 0;
        for v in candidates {
            scored += 1;
            let hit = Ranked(v, scorer.score(emb.row(v as usize)));
            if kept.len() < k {
                kept.push(hit);
            } else if let Some(mut worst) = kept.peek_mut().filter(|worst| hit < **worst) {
                *worst = hit;
            }
        }
        (kept.into_sorted_vec().into_iter().map(|Ranked(v, score)| (v, score)).collect(), scored)
    }
}

/// A scored candidate under the protocol's total order: `a < b` when `a`
/// ranks ahead of `b` — higher score first (`total_cmp`, so NaN and the two
/// zeros have a place), equal scores by ascending node id.
#[derive(Debug, Clone, Copy)]
struct Ranked(NodeId, f64);

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.1.total_cmp(&self.1).then(self.0.cmp(&other.0))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Ranked {}

/// The publication point between the trainer and the query plane.
pub struct SnapshotCell {
    version: AtomicU64,
    slot: Mutex<Arc<EmbeddingSnapshot>>,
    /// When the current snapshot went out, for the always-on staleness
    /// readout (`stats.snapshot_staleness_ms` works with `SEQGE_OBS=off`).
    published_at: Mutex<Instant>,
}

impl SnapshotCell {
    /// Creates a cell holding `initial` (stamped as its own version).
    pub fn new(initial: EmbeddingSnapshot) -> Self {
        SnapshotCell {
            version: AtomicU64::new(initial.version),
            slot: Mutex::new(Arc::new(initial)),
            published_at: Mutex::new(Instant::now()),
        }
    }

    /// Stamps the publication time of the current snapshot (called by the
    /// trainer right after [`SnapshotCell::publish`]).
    pub fn mark_published(&self, at: Instant) {
        *self.published_at.lock().expect("publish stamp poisoned") = at;
    }

    /// Milliseconds since the current snapshot was published.
    pub fn staleness_ms(&self) -> u64 {
        self.published_at.lock().expect("publish stamp poisoned").elapsed().as_millis() as u64
    }

    /// Publishes a snapshot: swaps the `Arc` and bumps the version counter.
    /// The lock guards only the pointer store; readers holding the previous
    /// `Arc` keep it alive without any coordination, and when none does it
    /// is freed after the lock is released.
    pub fn publish(&self, snapshot: EmbeddingSnapshot) {
        let v = snapshot.version;
        let replaced = {
            let mut slot = self.slot.lock().expect("snapshot slot poisoned");
            std::mem::replace(&mut *slot, Arc::new(snapshot))
        };
        self.version.store(v, Ordering::Release);
        drop(replaced);
    }

    /// Current published version — a single lock-free atomic load.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Clones the current snapshot `Arc` (brief lock; use a
    /// [`SnapshotReader`] on query paths to avoid even that per query).
    pub fn load(&self) -> Arc<EmbeddingSnapshot> {
        self.slot.lock().expect("snapshot slot poisoned").clone()
    }
}

/// A per-connection cache over a [`SnapshotCell`]: each query costs one
/// atomic version check, and the slot lock is only touched when the trainer
/// actually published something new since the last query.
pub struct SnapshotReader {
    cell: Arc<SnapshotCell>,
    cached: Arc<EmbeddingSnapshot>,
}

impl SnapshotReader {
    /// Creates a reader over `cell`, pre-populating the cache.
    pub fn new(cell: Arc<SnapshotCell>) -> Self {
        let cached = cell.load();
        SnapshotReader { cell, cached }
    }

    /// The freshest published snapshot.
    pub fn current(&mut self) -> &Arc<EmbeddingSnapshot> {
        if self.cell.version() != self.cached.version {
            self.cached = self.cell.load();
        }
        &self.cached
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(version: u64, rows: usize) -> EmbeddingSnapshot {
        EmbeddingSnapshot {
            version,
            emb: Arc::new(Mat::from_fn(rows, 4, |r, c| (r * 4 + c) as f32 / 10.0)),
            num_edges: 0,
            walks_trained: 0,
            edges_inserted: 0,
            edges_removed: 0,
            ann: None,
        }
    }

    #[test]
    fn embedding_and_score_are_range_checked() {
        let s = snap(1, 3);
        assert_eq!(s.embedding(2).unwrap().len(), 4);
        assert!(s.embedding(3).is_none());
        assert!(s.score(0, 2, EdgeOp::Dot).is_some());
        assert!(s.score(0, 3, EdgeOp::Dot).is_none());
        assert!(s.score(9, 0, EdgeOp::Cosine).is_none());
    }

    #[test]
    fn topk_orders_best_first_and_excludes_self() {
        // Rows: e0 = [1,0], e1 = [1,0], e2 = [0.5,0], e3 = [-1,0].
        let emb = Mat::from_vec(4, 2, vec![1.0, 0.0, 1.0, 0.0, 0.5, 0.0, -1.0, 0.0]);
        let s = EmbeddingSnapshot { emb: Arc::new(emb), ..snap(1, 0) };
        let top = s.topk(0, 2, EdgeOp::Dot).unwrap();
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, 1, "identical row is nearest");
        assert_eq!(top[1].0, 2);
        assert!(top[0].1 >= top[1].1);
        // k larger than candidate pool truncates to n-1.
        assert_eq!(s.topk(0, 10, EdgeOp::Dot).unwrap().len(), 3);
        assert!(s.topk(4, 2, EdgeOp::Dot).is_none(), "out-of-range node");
    }

    #[test]
    fn topk_ties_break_by_ascending_node_id() {
        // Nodes 1, 2, 3 are identical: scores tie, ids decide.
        let emb = Mat::from_vec(4, 2, vec![1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
        let s = EmbeddingSnapshot { emb: Arc::new(emb), ..snap(1, 0) };
        let top = s.topk(0, 2, EdgeOp::Dot).unwrap();
        assert_eq!(top.iter().map(|h| h.0).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn topk_filter_restricts_to_residue_class() {
        let emb = Mat::from_fn(10, 2, |r, _| 1.0 - r as f32 / 10.0);
        let s = EmbeddingSnapshot { emb: Arc::new(emb), ..snap(1, 0) };
        // Only v ≡ 1 (mod 3) compete for node 0's neighbors: 1, 4, 7.
        let hits = s.topk_filtered(0, 10, EdgeOp::Dot, Some((3, 1))).unwrap();
        assert_eq!(hits.iter().map(|h| h.0).collect::<Vec<_>>(), vec![1, 4, 7]);
        // The query node is excluded even when it matches the class.
        let hits = s.topk_filtered(3, 10, EdgeOp::Dot, Some((3, 0))).unwrap();
        assert_eq!(hits.iter().map(|h| h.0).collect::<Vec<_>>(), vec![0, 6, 9]);
        // A remainder no id has selects nothing (as `v % 3 == 5` never held).
        assert!(s.topk_filtered(0, 10, EdgeOp::Dot, Some((3, 5))).unwrap().is_empty());
        let ann = s.topk_ann(0, 10, EdgeOp::Dot, Some((3, 5)), 4).unwrap();
        assert!(ann.hits.is_empty() && ann.fallback && ann.candidates == 0);
        // Unfiltered call is the same as filter None.
        assert_eq!(s.topk(2, 4, EdgeOp::Cosine), s.topk_filtered(2, 4, EdgeOp::Cosine, None));
    }

    #[test]
    fn topk_ann_without_index_falls_back_to_exact() {
        let emb = Mat::from_fn(20, 4, |r, c| ((r * 5 + c) % 7) as f32 - 3.0);
        let s = EmbeddingSnapshot { emb: Arc::new(emb), ..snap(1, 0) };
        let got = s.topk_ann(3, 5, EdgeOp::Cosine, None, 4).unwrap();
        assert!(got.fallback);
        assert_eq!(got.candidates, 19);
        assert_eq!(got.hits, s.topk(3, 5, EdgeOp::Cosine).unwrap());
        assert!(s.topk_ann(20, 5, EdgeOp::Dot, None, 4).is_none(), "out of range");
        let empty = s.topk_ann(3, 0, EdgeOp::Dot, None, 4).unwrap();
        assert!(empty.hits.is_empty() && !empty.fallback);
    }

    #[test]
    fn topk_ann_with_index_matches_exact_on_clustered_data() {
        use seqge_ann::{AnnBuilder, AnnConfig};
        // Two tight antipodal clusters: candidate recall is perfect, so
        // ANN and exact must agree bit-for-bit.
        let emb = Arc::new(Mat::from_fn(64, 8, |r, c| {
            let sign = if r % 2 == 0 { 1.0 } else { -1.0 };
            sign * (1.0 + (r * 3 + c) as f32 * 0.003)
        }));
        let (index, _) = AnnBuilder::new(AnnConfig::default()).sync(&emb);
        let s = EmbeddingSnapshot { emb, ann: Some(index), ..snap(1, 0) };
        for node in [0, 7, 31] {
            let ann = s.topk_ann(node, 8, EdgeOp::Cosine, None, 8).unwrap();
            assert!(!ann.fallback, "cluster bucket holds ≥ 8 candidates");
            assert!(ann.candidates < 64, "candidate pool is a strict subset");
            assert_eq!(ann.hits, s.topk(node, 8, EdgeOp::Cosine).unwrap());
        }
        // Residue filter composes: survivors all match the class.
        let ann = s.topk_ann(0, 3, EdgeOp::Dot, Some((4, 2)), 8).unwrap();
        assert!(ann.hits.iter().all(|h| h.0 % 4 == 2));
        assert_eq!(ann.hits, s.topk_filtered(0, 3, EdgeOp::Dot, Some((4, 2))).unwrap());
    }

    #[test]
    fn topk_ann_geometry_mismatch_falls_back() {
        use seqge_ann::{AnnBuilder, AnnConfig};
        let stale = Mat::from_fn(10, 4, |r, c| (r + c) as f32);
        let (index, _) = AnnBuilder::new(AnnConfig::default()).sync(&Arc::new(stale));
        let emb = Mat::from_fn(12, 4, |r, c| (r + c) as f32);
        let s = EmbeddingSnapshot { emb: Arc::new(emb), ann: Some(index), ..snap(1, 0) };
        let got = s.topk_ann(0, 3, EdgeOp::Dot, None, 4).unwrap();
        assert!(got.fallback, "index covers 10 points, snapshot has 12");
        assert_eq!(got.hits, s.topk(0, 3, EdgeOp::Dot).unwrap());
        // Same rows, different columns: the index hashes 4 coordinates,
        // the snapshot's rows have 6.
        let emb = Mat::from_fn(10, 6, |r, c| (r + c) as f32);
        let s = EmbeddingSnapshot { emb: Arc::new(emb), ann: s.ann.clone(), ..snap(1, 0) };
        let got = s.topk_ann(0, 3, EdgeOp::Dot, None, 4).unwrap();
        assert!(got.fallback, "index hashes 4 columns, snapshot has 6");
        assert_eq!(got.hits, s.topk(0, 3, EdgeOp::Dot).unwrap());
    }

    #[test]
    fn cell_publish_bumps_version_and_readers_refresh() {
        let cell = Arc::new(SnapshotCell::new(snap(0, 2)));
        let mut reader = SnapshotReader::new(cell.clone());
        assert_eq!(reader.current().version, 0);
        cell.publish(snap(7, 2));
        assert_eq!(cell.version(), 7);
        assert_eq!(reader.current().version, 7);
        // Old Arcs stay valid after publication.
        let old = cell.load();
        cell.publish(snap(8, 2));
        assert_eq!(old.version, 7);
        assert_eq!(reader.current().version, 8);
    }
}
