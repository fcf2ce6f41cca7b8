//! The published index and its incremental maintainer.

use crate::lsh::{hamming, AnnConfig, Code, Hyperplanes, LANES};
use seqge_linalg::NormedMat;
use std::sync::Arc;
use std::time::Instant;

/// An immutable ANN index over one embedding snapshot: one [`LANES`]-bit
/// code per vertex, the signs of its row under the index's hyperplanes. A
/// query keeps the vertices whose codes are nearest its own in Hamming
/// distance. Queries are lock-free and allocate one byte per vertex they
/// compare.
#[derive(Debug)]
pub struct AnnIndex {
    planes: Arc<Hyperplanes>,
    /// Vertex `v`'s code at `codes[v]`.
    codes: Vec<Code>,
}

impl AnnIndex {
    /// Vertices the index covers.
    pub fn num_points(&self) -> usize {
        self.codes.len()
    }

    /// Embedding dimensionality the index hashes.
    pub fn dim(&self) -> usize {
        self.planes.dim()
    }

    /// Candidates a query with `probes` keeps: `LANES · (probes + 1)`.
    pub fn budget(probes: usize) -> usize {
        LANES.saturating_mul(probes.saturating_add(1))
    }

    /// [`AnnIndex::candidates_filtered`] over every vertex.
    pub fn candidates(&self, x: &[f32], probes: usize) -> Vec<u32> {
        self.candidates_filtered(x, probes, None)
    }

    /// Candidate set for query vector `x` (`dim()` coordinates) among the
    /// vertices `v` with `v % m == r` for `filter = Some((m, r))`, or every
    /// vertex for `None`: the [`AnnIndex::budget`]`(probes)` vertices whose
    /// codes are nearest `x`'s in Hamming distance, equal distances by
    /// ascending id, or the whole class when it is no larger. Returned in
    /// ascending-id order; the caller re-ranks these exactly.
    pub fn candidates_filtered(
        &self,
        x: &[f32],
        probes: usize,
        filter: Option<(u32, u32)>,
    ) -> Vec<u32> {
        let (m, r) = filter.map_or((1, 0), |(m, r)| (m as usize, r as usize));
        // A remainder no id can have (`r >= m`) is an empty class.
        let first = if r < m { r } else { self.codes.len() };
        let id = |i: usize| (first + i * m) as u32;
        let class = self.codes.get(first..).unwrap_or_default();
        let budget = Self::budget(probes);
        if class.len().div_ceil(m) <= budget {
            return (0..class.len().div_ceil(m)).map(id).collect();
        }
        let query = self.planes.code(x, &mut Vec::new());
        // Each class member's distance, and how many sit at each distance.
        let mut at = [0usize; LANES + 1];
        let dist: Vec<u8> = class
            .iter()
            .step_by(m)
            .map(|code| {
                let d = hamming(&query, code) as u8;
                at[d as usize] += 1;
                d
            })
            .collect();
        // The radius at which the budget fills: every code nearer is kept,
        // and the lowest `left` ids of the codes at it.
        let (mut radius, mut left) = (0, budget);
        while at[radius] < left {
            left -= at[radius];
            radius += 1;
        }
        let radius = radius as u8;
        let mut out = Vec::with_capacity(budget);
        for (i, &d) in dist.iter().enumerate() {
            // The one test most codes take: few are within the radius.
            if d <= radius {
                if d == radius {
                    if left == 0 {
                        continue;
                    }
                    left -= 1;
                }
                out.push(id(i));
            }
        }
        out
    }
}

/// What one [`AnnBuilder::sync`] did — the trainer mirrors this into the
/// `seqge_ann_*` metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncReport {
    /// Vertices the index covers after the sync.
    pub total: usize,
    /// Vertices whose embedding bytes changed since the previous sync
    /// (on the first sync: every vertex).
    pub dirty: usize,
    /// Vertices projected through the hyperplanes: the dirty ones whose
    /// margin budget could not prove their codes unchanged (on the first
    /// sync: every vertex). At most `dirty`; a rising share of it means
    /// rows move by more than their margins.
    pub rehashed: usize,
    /// Wall time of the sync (dirty scan + budget checks + re-projection +
    /// the copy of the codes).
    pub build_ns: u64,
}

impl SyncReport {
    /// Dirty vertices as parts-per-million of the total (0 when empty).
    pub fn dirty_ppm(&self) -> u64 {
        if self.total == 0 {
            return 0;
        }
        (self.dirty as u64).saturating_mul(1_000_000) / self.total as u64
    }
}

/// The trainer-side maintainer: keeps the last view it synced, the per-row
/// codes and margin budgets, and the index built from them, and renders an
/// immutable [`AnnIndex`] per snapshot publication.
///
/// Change detection is pointer first, then the backend's row list, then
/// exact. Handed the very `Arc` it synced last, a sync reads no row: views
/// are immutable behind their `Arc`, so the same pointer means the same
/// bits. Handed a view together with the view it replaced and the rows that
/// may differ between the two ([`AnnBuilder::sync_rows`]), and the replaced
/// view is the one synced last, it compares only those rows. Otherwise it
/// compares every row. Either way a row is dirty when its `f32` bit patterns
/// differ from the last view's, which is never wrong.
///
/// A dirty row is projected only when its code might have moved. Each row
/// keeps a budget, set whenever it is projected to its margin
/// (`Hyperplanes::margin`): a distance it can travel without any projection
/// changing sign, rounding included. Every sync that finds the row dirty
/// spends its movement since the last view from the budget; by the triangle
/// inequality the row is then still within budget of where it was last
/// projected, so its stored code is the one a projection would compute.
/// Only a row whose budget runs out is projected, and its budget reset.
#[derive(Debug)]
pub struct AnnBuilder {
    cfg: AnnConfig,
    /// Every row's code, overwritten in place when a projection moves it.
    codes: Vec<Code>,
    /// Per row, what is left of its margin budget (≤ 0: project on its next
    /// change).
    budgets: Vec<f64>,
    /// The last view synced and the index handed out for it; also the record
    /// of the geometry `codes` describes.
    last: Option<(Arc<NormedMat>, Arc<AnnIndex>)>,
}

impl AnnBuilder {
    /// A builder with no points; dimensions are fixed by the first
    /// [`AnnBuilder::sync`].
    pub fn new(cfg: AnnConfig) -> Self {
        AnnBuilder { cfg, codes: Vec::new(), budgets: Vec::new(), last: None }
    }

    /// Brings the index in line with `emb` and returns the immutable
    /// version to publish. The `Arc` synced last returns the previous index
    /// at once. Otherwise the dirty rows spend their budgets, the ones that
    /// run out are projected, and a sync that moved a code publishes a copy
    /// of the codes (16 bytes per row); one where no code changed returns
    /// the previous `Arc`. The first sync (or a geometry change — row or
    /// column count) projects every row.
    pub fn sync(&mut self, emb: &Arc<NormedMat>) -> (Arc<AnnIndex>, SyncReport) {
        self.sync_over(emb, None)
    }

    /// [`AnnBuilder::sync`] told which rows can have changed: `emb` differs
    /// from the view `from` only in `rows` (ascending, no duplicates). When
    /// `from` is the view synced last, only `rows` are compared, with the
    /// same bit compare, budget spend and projection as a full sync, so the
    /// index and the report are the ones [`AnnBuilder::sync`] returns.
    /// Otherwise the row list says nothing about the last view, and this is
    /// [`AnnBuilder::sync`].
    pub fn sync_rows(
        &mut self,
        emb: &Arc<NormedMat>,
        from: &Arc<NormedMat>,
        rows: &[u32],
    ) -> (Arc<AnnIndex>, SyncReport) {
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows ascending, once each");
        self.sync_over(emb, Some((from, rows)))
    }

    /// The one sync loop: every row, or `delta`'s rows when its view is the
    /// one synced last.
    fn sync_over(
        &mut self,
        emb: &Arc<NormedMat>,
        delta: Option<(&Arc<NormedMat>, &[u32])>,
    ) -> (Arc<AnnIndex>, SyncReport) {
        let t0 = Instant::now();
        let n = emb.rows();
        let kept =
            self.last.take().filter(|(seen, _)| (seen.rows(), seen.cols()) == (n, emb.cols()));
        let (mut dirty, mut rehashed) = (0, 0);
        let index = match kept {
            Some((seen, index)) if Arc::ptr_eq(&seen, emb) => index,
            Some((seen, index)) => {
                let (mut acc, mut moved) = (Vec::new(), false);
                let mut visit = |row: usize| {
                    let (was, now) = (seen.row(row), emb.row(row));
                    if same_bits(was, now) {
                        return;
                    }
                    dirty += 1;
                    // Rounded down, so the budget never outlasts the bound.
                    let left = (self.budgets[row] - index.planes.movement(was, now)).next_down();
                    if left > 0.0 {
                        self.budgets[row] = left;
                        return;
                    }
                    rehashed += 1;
                    let code;
                    (code, self.budgets[row]) = index.planes.hash(now, &mut acc);
                    moved |= code != self.codes[row];
                    self.codes[row] = code;
                };
                match delta {
                    Some((from, rows)) if Arc::ptr_eq(from, &seen) => {
                        rows.iter().for_each(|&row| visit(row as usize))
                    }
                    _ => (0..n).for_each(visit),
                }
                if moved {
                    Arc::new(AnnIndex { planes: index.planes.clone(), codes: self.codes.clone() })
                } else {
                    index
                }
            }
            None => {
                let planes = Arc::new(Hyperplanes::generate(emb.cols(), self.cfg.seed));
                let mut acc = Vec::new();
                (self.codes, self.budgets) =
                    (0..n).map(|row| planes.hash(emb.row(row), &mut acc)).unzip();
                (dirty, rehashed) = (n, n);
                Arc::new(AnnIndex { planes, codes: self.codes.clone() })
            }
        };
        self.last = Some((emb.clone(), index.clone()));
        let report = SyncReport {
            total: n,
            dirty,
            rehashed,
            build_ns: t0.elapsed().as_nanos().min(u64::MAX as u128) as u64,
        };
        (index, report)
    }
}

/// Whether two rows hold the same `f32` bit patterns (so `0.0` and `-0.0`
/// differ). Branch-free over the row, so it vectorizes.
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.iter().zip(b).fold(0, |diff, (x, y)| diff | (x.to_bits() ^ y.to_bits())) == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use seqge_linalg::Mat;

    fn clustered(n: usize, dim: usize) -> Mat<f32> {
        // Two antipodal clusters with a small deterministic wobble.
        Mat::from_fn(n, dim, |r, c| {
            let base = if r % 2 == 0 { 1.0 } else { -1.0 };
            base + ((r * 31 + c * 7) % 13) as f32 * 0.01
        })
    }

    #[test]
    fn first_sync_indexes_everything() {
        let emb = Arc::new(clustered(100, 8).into());
        let mut b = AnnBuilder::new(AnnConfig::default());
        let (idx, rep) = b.sync(&emb);
        assert_eq!(rep, SyncReport { total: 100, dirty: 100, rehashed: 100, ..rep });
        assert_eq!(idx.num_points(), 100);
        // Every point is its own candidate at zero probes.
        for r in (0..100).step_by(17) {
            assert!(idx.candidates(emb.row(r), 0).contains(&(r as u32)));
        }
    }

    #[test]
    fn resync_rehashes_only_dirty_rows() {
        let mut emb = clustered(200, 8);
        let mut b = AnnBuilder::new(AnnConfig::default());
        let (idx0, _) = b.sync(&Arc::new(emb.clone().into()));
        // Move one vertex to the other cluster.
        for c in 0..8 {
            emb.row_mut(42)[c] = -1.0 - c as f32 * 0.01;
        }
        let (idx1, rep) = b.sync(&Arc::new(emb.clone().into()));
        assert_eq!((rep.total, rep.dirty, rep.rehashed), (200, 1, 1));
        assert_eq!(rep.dirty_ppm(), 5_000);
        // The new index gives 42 its new code…
        assert!(idx1.candidates(emb.row(42), 0).contains(&42));
        // …while the previously published index is untouched (old home).
        assert!(idx0.candidates(clustered(200, 8).row(42), 0).contains(&42));
        // A no-op sync is free.
        let (_, rep) = b.sync(&Arc::new(emb.into()));
        assert_eq!(rep.dirty, 0);
    }

    #[test]
    fn sync_rows_visits_only_the_listed_rows_of_the_view_synced_last() {
        let cfg = AnnConfig::default();
        let base = clustered(200, 8);
        let mut moved = base.clone();
        for (row, c) in [(7, 0), (42, 3), (150, 5)] {
            moved.row_mut(row)[c] = -moved.row(row)[c];
        }
        let (from, to) = (Arc::new(base.clone().into()), Arc::new(moved.clone().into()));
        let mut full = AnnBuilder::new(cfg);
        full.sync(&from);
        let (want, want_rep) = full.sync(&to);
        assert_eq!((want_rep.dirty, want_rep.rehashed), (3, 3));
        let reports = |rep: SyncReport| (rep.total, rep.dirty, rep.rehashed);

        // The listed rows of the view synced last: the rows outside the list
        // are trusted, so a list missing a changed row misses it.
        let mut delta = AnnBuilder::new(cfg);
        delta.sync(&from);
        let (index, rep) = delta.sync_rows(&to, &from, &[3, 7, 42, 150]);
        assert_eq!(reports(rep), reports(want_rep));
        assert!(same_codes(&index, &want));
        let mut short = AnnBuilder::new(cfg);
        short.sync(&from);
        let (_, rep) = short.sync_rows(&to, &from, &[7, 42]);
        assert_eq!(rep.dirty, 2, "only the listed rows are compared");

        // A `from` that is not the view synced last — another `Arc` with the
        // same bits, or the new view itself — gets the full compare of
        // `sync`, whatever the list says.
        for stale in [Arc::new(base.clone().into()), to.clone()] {
            let mut b = AnnBuilder::new(cfg);
            b.sync(&from);
            let (index, rep) = b.sync_rows(&to, &stale, &[]);
            assert_eq!(reports(rep), reports(want_rep));
            assert!(same_codes(&index, &want));
        }
        // The view synced last again reads nothing, whatever the list says.
        let (again, rep) = delta.sync_rows(&to, &from, &[0, 1, 2]);
        assert!(Arc::ptr_eq(&again, &index));
        assert_eq!((rep.dirty, rep.rehashed), (0, 0));
    }

    #[test]
    fn geometry_change_forces_full_rebuild() {
        let mut b = AnnBuilder::new(AnnConfig::default());
        let (_, rep) = b.sync(&Arc::new(clustered(50, 8).into()));
        assert_eq!(rep.dirty, 50);
        let (_, rep) = b.sync(&Arc::new(clustered(60, 8).into()));
        assert_eq!((rep.total, rep.dirty), (60, 60));
        let (idx, rep) = b.sync(&Arc::new(clustered(60, 4).into()));
        assert_eq!(rep.dirty, 60);
        assert!(idx.candidates(clustered(60, 4).row(3), 0).contains(&3));
    }

    #[test]
    fn candidates_are_sorted_dedup_and_cluster_local() {
        let emb = Arc::new(clustered(300, 16).into());
        let mut b = AnnBuilder::new(AnnConfig { seed: 9 });
        let (idx, _) = b.sync(&emb);
        // A budget of 384 covers all 300 vertices.
        assert_eq!(idx.candidates(emb.row(10), 2), (0..300).collect::<Vec<u32>>());
        // The antipodal cluster should be (almost) absent from 128.
        let tight = idx.candidates(emb.row(10), 0);
        assert!(tight.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
        assert!(tight.contains(&10));
        assert_eq!(tight.len(), 128);
        let wrong = tight.iter().filter(|&&v| v % 2 == 1).count();
        assert!(
            wrong * 5 < tight.len().max(1),
            "opposite cluster dominates the candidates: {wrong}/{}",
            tight.len()
        );
    }

    #[test]
    fn empty_and_tiny_inputs_are_fine() {
        let mut b = AnnBuilder::new(AnnConfig::default());
        let (idx, rep) = b.sync(&Arc::new(Mat::zeros(0, 8).into()));
        assert_eq!((idx.num_points(), rep.total), (0, 0));
        assert_eq!(rep.dirty_ppm(), 0);
        assert!(idx.candidates(&[0.0; 8], 4).is_empty());
        let (idx, _) = b.sync(&Arc::new(Mat::filled(1, 8, 0.5).into()));
        assert_eq!(idx.candidates(&[0.5; 8], 0), vec![0]);
    }

    #[test]
    fn exact_compare_sees_every_single_word_change() {
        for len in [1usize, 3, 4, 5, 8, 31, 32, 33] {
            let base: Vec<f32> = (0..len).map(|i| (i as f32 * 0.37).sin()).collect();
            assert!(same_bits(&base, &base.clone()), "len {len}");
            for i in 0..len {
                for flip in [1u32, 1 << 22, 1 << 31, u32::MAX] {
                    let mut edited = base.clone();
                    edited[i] = f32::from_bits(base[i].to_bits() ^ flip);
                    assert!(!same_bits(&base, &edited), "len {len}, word {i}");
                }
            }
        }
        // Bit patterns, not values: the two zeros differ, and a NaN is itself.
        assert!(!same_bits(&[0.0, 1.0], &[-0.0, 1.0]));
        assert!(same_bits(&[f32::NAN, 1.0], &[f32::NAN, 1.0]));
    }

    /// The index a fresh builder makes of `emb`, for comparison.
    fn fresh(cfg: AnnConfig, emb: &Mat<f32>) -> Arc<AnnIndex> {
        AnnBuilder::new(cfg).sync(&Arc::new(emb.clone().into())).0
    }

    /// Whether two indexes give every row the same code.
    fn same_codes(a: &AnnIndex, b: &AnnIndex) -> bool {
        a.codes == b.codes
    }

    #[test]
    fn one_ulp_nudge_far_from_every_plane_projects_nothing() {
        let mut emb = clustered(200, 8);
        let mut b = AnnBuilder::new(AnnConfig::default());
        let (before, _) = b.sync(&Arc::new(emb.clone().into()));
        let row = (0..200).max_by(|&x, &y| b.budgets[x].total_cmp(&b.budgets[y])).unwrap();
        assert!(b.budgets[row] > 1e-3, "row {row} budget {}", b.budgets[row]);
        emb.row_mut(row)[3] = emb.row(row)[3].next_up();
        let (after, rep) = b.sync(&Arc::new(emb.clone().into()));
        assert_eq!((rep.total, rep.dirty, rep.rehashed), (200, 1, 0));
        assert!(Arc::ptr_eq(&before, &after), "no code moved: the same index");
        assert!(same_codes(&after, &fresh(AnnConfig::default(), &emb)));
    }

    #[test]
    fn a_chain_of_sub_margin_nudges_is_projected_once_a_crossing_is_possible() {
        let cfg = AnnConfig::default();
        let mut emb = clustered(200, 8);
        let mut b = AnnBuilder::new(cfg);
        let (mut index, _) = b.sync(&Arc::new(emb.clone().into()));
        let (row, planes) = (10, index.planes.clone());
        let start = emb.row(row).to_vec();
        // Every plane as a unit normal; the row's signed distance to each.
        let normals: Vec<Vec<f64>> = (0..LANES)
            .map(|lane| {
                let w = planes.plane(lane);
                let norm = w.iter().map(|&v| v as f64 * v as f64).sum::<f64>().sqrt();
                w.iter().map(|&v| v as f64 / norm).collect()
            })
            .collect();
        let side = |x: &[f32], lane: usize| -> f64 {
            normals[lane].iter().zip(x).map(|(&w, &v)| w * v as f64).sum()
        };
        let lane = (0..normals.len())
            .min_by(|&p, &q| side(&start, p).abs().total_cmp(&side(&start, q).abs()))
            .unwrap();
        let distance = side(&start, lane).abs();
        let budget = b.budgets[row];
        assert!(distance / 1.1 < budget && budget < distance, "{budget} vs {distance}");
        // Steps of 0.3 budget towards the nearest plane: three fit in the
        // budget, and the fourth crosses the plane.
        let sign = side(&start, lane).signum();
        for step in 1..=4 {
            let to = step as f64 * 0.3 * budget;
            for (x, (&s, &w)) in emb.row_mut(row).iter_mut().zip(start.iter().zip(&normals[lane])) {
                *x = (s as f64 - sign * to * w) as f32;
            }
            let (next, rep) = b.sync(&Arc::new(emb.clone().into()));
            assert_eq!((rep.dirty, rep.rehashed), (1, usize::from(step == 4)), "step {step}");
            assert_eq!(Arc::ptr_eq(&next, &index), step < 4, "step {step}: moved code");
            assert!(same_codes(&next, &fresh(cfg, &emb)), "step {step}");
            index = next;
        }
        assert_ne!(side(emb.row(row), lane).signum(), sign, "the fourth step crossed");
    }

    #[test]
    fn corner_case_rows_are_always_projected() {
        let tiny = f32::MIN_POSITIVE;
        let corners: [[f32; 4]; 5] = [
            [f32::NAN, 0.5, -0.25, 1.0],
            [0.0; 4],
            [-0.0, 0.0, -0.0, 0.0],
            [tiny / 8.0, -tiny / 1024.0, tiny / 3.0, -tiny / 2.0],
            [1e30, -1e30, 1e30, 5e29],
        ];
        let cfg = AnnConfig::default();
        let mut emb = clustered(50, 4);
        let mut b = AnnBuilder::new(cfg);
        b.sync(&Arc::new(emb.clone().into()));
        for round in 0..8 {
            for (row, corner) in corners.iter().enumerate() {
                let x = emb.row_mut(row);
                if round == 0 {
                    x.copy_from_slice(corner);
                    continue;
                }
                // One ulp, or a zero's sign, at a finite coordinate.
                let c = 1 + round % 3;
                x[c] = match x[c] {
                    0.0 => -x[c],
                    v => v.next_up(),
                };
            }
            let (index, rep) = b.sync(&Arc::new(emb.clone().into()));
            assert_eq!((rep.dirty, rep.rehashed), (5, 5), "round {round}");
            for row in 0..corners.len() {
                assert!(b.budgets[row] <= 0.0, "round {round} row {row}: {}", b.budgets[row]);
            }
            assert!(same_codes(&index, &fresh(cfg, &emb)), "round {round}");
        }
    }

    /// Tie- and sign-heavy alphabet: edits often rewrite the value already
    /// there (not dirty) or flip only the sign of a zero (dirty).
    fn cell() -> impl Strategy<Value = f32> {
        prop_oneof![
            Just(0.0f32),
            Just(-0.0f32),
            Just(0.5f32),
            Just(-0.5f32),
            Just(1.0f32),
            -1.0f32..1.0
        ]
    }

    /// One edit between syncs.
    #[derive(Debug, Clone, Copy)]
    enum Edit {
        /// Overwrite a cell.
        Set(usize, usize, f32),
        /// Step a cell 1–4 ulps up (`true`) or down.
        Nudge(usize, usize, u32, bool),
        /// Take out the row's component along one plane, which leaves the
        /// row a few ulps (the `f32` rounding) from that plane.
        OntoPlane(usize, usize),
    }

    fn edit() -> impl Strategy<Value = Edit> {
        prop_oneof![
            (0usize..48, 0usize..6, cell()).prop_map(|(r, c, v)| Edit::Set(r, c, v)),
            (0usize..48, 0usize..6, 1u32..=4, any::<bool>())
                .prop_map(|(r, c, k, up)| Edit::Nudge(r, c, k, up)),
            (0usize..48, 0usize..6, 1u32..=4, any::<bool>())
                .prop_map(|(r, c, k, up)| Edit::Nudge(r, c, k, up)),
            (0usize..48, 0usize..LANES).prop_map(|(r, lane)| Edit::OntoPlane(r, lane)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// After every sync of any sequence of row edits — overwrites,
        /// 1–4-ulp nudges, rows put a few ulps from a plane and nudged
        /// across it — the incrementally maintained index gives every row
        /// exactly the code a fresh build of the same matrix does. Every
        /// sync finds exactly the rows whose bit patterns changed dirty and
        /// projects at most those, and it returns the previous index `Arc`
        /// exactly when no code moved — in particular when handed the
        /// same view `Arc` again or a new one with equal bits. A second
        /// builder told a random superset of the changed rows
        /// ([`AnnBuilder::sync_rows`]) reports and files the same.
        #[test]
        fn incremental_sync_equals_fresh_build(
            rows in 1usize..48,
            dim in 1usize..7,
            seed in 0u64..4,
            cells in proptest::collection::vec(cell(), 48 * 6),
            rounds in proptest::collection::vec(
                (proptest::collection::vec(edit(), 0usize..10), any::<u64>()),
                1usize..10,
            ),
        ) {
            let cfg = AnnConfig { seed };
            let mut emb = Mat::from_vec(rows, dim, cells[..rows * dim].to_vec());
            let mut builder = AnnBuilder::new(cfg);
            let (mut index, rep) = builder.sync(&Arc::new(emb.clone().into()));
            prop_assert_eq!((rep.total, rep.dirty, rep.rehashed), (rows, rows, rows));
            let mut told = AnnBuilder::new(cfg);
            let mut told_view = Arc::new(emb.clone().into());
            told.sync(&told_view);
            let planes = index.planes.clone();
            for (edits, extra) in rounds {
                let before = emb.clone();
                for edit in edits {
                    match edit {
                        Edit::Set(r, c, v) => emb.row_mut(r % rows)[c % dim] = v,
                        Edit::Nudge(r, c, k, up) => {
                            let x = &mut emb.row_mut(r % rows)[c % dim];
                            for _ in 0..k {
                                *x = if up { x.next_up() } else { x.next_down() };
                            }
                        }
                        Edit::OntoPlane(r, lane) => {
                            let w = planes.plane(lane % LANES);
                            let x = emb.row_mut(r % rows);
                            let dot = |a: &[f32], b: &[f32]| -> f64 {
                                a.iter().zip(b).map(|(&a, &b)| a as f64 * b as f64).sum()
                            };
                            let along = dot(&w, x) / dot(&w, &w);
                            for (x, &w) in x.iter_mut().zip(&w) {
                                *x = (*x as f64 - along * w as f64) as f32;
                            }
                        }
                    }
                }
                let bits_of = |m: &Mat<f32>, r: usize| m.row(r).iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                let differs = |r: usize| bits_of(&before, r) != bits_of(&emb, r);
                let changed = (0..rows).filter(|&r| differs(r)).count();
                let (next, rep) = builder.sync(&Arc::new(emb.clone().into()));
                prop_assert_eq!((rep.total, rep.dirty), (rows, changed));
                prop_assert!(rep.rehashed <= changed, "{} > {}", rep.rehashed, changed);
                prop_assert!(same_codes(&next, &fresh(cfg, &emb)), "differs from a fresh build");
                prop_assert_eq!(Arc::ptr_eq(&next, &index), same_codes(&next, &index));
                // Every changed row, plus the unchanged rows `extra` picks.
                let listed: Vec<u32> = (0..rows)
                    .filter(|&r| differs(r) || extra >> (r % 64) & 1 == 1)
                    .map(|r| r as u32)
                    .collect();
                let view = Arc::new(emb.clone().into());
                let (told_next, told_rep) = told.sync_rows(&view, &told_view, &listed);
                prop_assert_eq!(
                    (told_rep.total, told_rep.dirty, told_rep.rehashed),
                    (rep.total, rep.dirty, rep.rehashed)
                );
                prop_assert!(same_codes(&told_next, &next), "told the rows, files differently");
                told_view = view;
                index = next;
            }
            let view = Arc::new(emb.clone().into());
            let (index, _) = builder.sync(&view);
            let (again, rep) = builder.sync(&view);
            prop_assert!(Arc::ptr_eq(&index, &again));
            prop_assert_eq!((rep.dirty, rep.rehashed), (0, 0));
            let (equal, rep) = builder.sync(&Arc::new(emb.clone().into()));
            prop_assert!(Arc::ptr_eq(&index, &equal));
            prop_assert_eq!((rep.dirty, rep.rehashed), (0, 0));
            let fresh = fresh(cfg, &emb);
            for row in 0..rows {
                for probes in [0usize, 3] {
                    prop_assert_eq!(
                        index.candidates(emb.row(row), probes),
                        fresh.candidates(emb.row(row), probes),
                        "row {} probes {}", row, probes
                    );
                }
            }
        }
    }

    /// `candidates_filtered` by its definition: every vertex of the class
    /// sorted by (Hamming distance, id), the first `budget(probes)` kept,
    /// returned in ascending-id order.
    fn brute_force(
        index: &AnnIndex,
        x: &[f32],
        probes: usize,
        filter: Option<(u32, u32)>,
    ) -> Vec<u32> {
        let query = index.planes.code(x, &mut Vec::new());
        let mut class: Vec<(u32, u32)> = (0..index.num_points() as u32)
            .filter(|&v| filter.is_none_or(|(m, r)| v % m == r))
            .map(|v| (hamming(&query, &index.codes[v as usize]), v))
            .collect();
        class.sort_unstable();
        class.truncate(AnnIndex::budget(probes));
        let mut ids: Vec<u32> = class.into_iter().map(|(_, v)| v).collect();
        ids.sort_unstable();
        ids
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The histogram selection keeps exactly the brute-force candidates
        /// on random matrices: few dimensions and a tie-heavy alphabet give
        /// many equal codes (ties broken by id), residue filters include
        /// remainders no id has, and the budgets of 0–3 probes fall on both
        /// sides of the class size.
        #[test]
        fn candidates_equal_brute_force_reference(
            rows in 1usize..600,
            dim in 1usize..5,
            cells in proptest::collection::vec(cell(), 600 * 4),
            queries in proptest::collection::vec(
                (0usize..600, 0usize..4, 0u32..6, 0u32..7),
                1..8,
            ),
        ) {
            let emb = Mat::from_vec(rows, dim, cells[..rows * dim].to_vec());
            let index = fresh(AnnConfig::default(), &emb);
            for (row, probes, m, r) in queries {
                // A zero modulus stands for no filter.
                let (x, filter) = (emb.row(row % rows), (m > 0).then_some((m, r)));
                let got = index.candidates_filtered(x, probes, filter);
                prop_assert_eq!(&got, &brute_force(&index, x, probes, filter));
                if filter.is_none() {
                    prop_assert_eq!(got, index.candidates(x, probes));
                }
            }
        }
    }
}
