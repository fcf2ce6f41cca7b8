//! The published index and its incremental maintainer.

use crate::lsh::{AnnConfig, Hyperplanes};
use seqge_linalg::Mat;
use std::sync::Arc;
use std::time::Instant;

/// An immutable ANN index over one embedding snapshot: per band, the
/// vertex ids grouped by signature (ascending id inside a group) behind a
/// dense offsets table. Queries are lock-free and allocation is bounded by
/// the candidate-set size.
#[derive(Debug)]
pub struct AnnIndex {
    planes: Arc<Hyperplanes>,
    /// `bands` tables of `2^bits + 1` entries: the bucket of `sig` in
    /// `band` is `ids[band][offsets[band][sig]..offsets[band][sig + 1]]`.
    offsets: Vec<u32>,
    /// `bands` runs of `num_points` vertex ids.
    ids: Vec<u32>,
    num_points: usize,
}

impl AnnIndex {
    /// Groups the vertices by signature, one counting sort per band over
    /// `sigs` (band-major: `num_points` signatures per band).
    fn build(planes: Arc<Hyperplanes>, sigs: &[u32], num_points: usize) -> Self {
        let (n, slots) = (num_points, (1usize << planes.bits()) + 1);
        let mut offsets = vec![0u32; planes.bands() * slots];
        let mut ids = vec![0u32; sigs.len()];
        let mut next: Vec<u32> = Vec::with_capacity(slots);
        for band in 0..planes.bands() {
            let table = &mut offsets[band * slots..][..slots];
            let (sigs, ids) = (&sigs[band * n..][..n], &mut ids[band * n..][..n]);
            for &sig in sigs {
                table[sig as usize + 1] += 1;
            }
            for sig in 1..slots {
                table[sig] += table[sig - 1];
            }
            // Rows are placed in ascending order, so every bucket is sorted.
            next.clear();
            next.extend_from_slice(table);
            for (row, &sig) in sigs.iter().enumerate() {
                ids[next[sig as usize] as usize] = row as u32;
                next[sig as usize] += 1;
            }
        }
        AnnIndex { planes, offsets, ids, num_points }
    }

    /// This index after some rows changed signature: `moved[band]` holds
    /// two [`move_key`]s per row whose signature in `band` changed, one for
    /// the bucket it left and one for the bucket it joined. A band with no
    /// key is copied in one piece. In a band with keys every untouched run
    /// of buckets is copied in one piece, and each touched bucket is one
    /// linear merge of its old rows with its keys' rows, both ascending: a
    /// key's row found among the old rows left, any other joined. Buckets
    /// stay sorted. O(n + m log m) per band with `m` keys.
    fn regroup(&self, moved: Vec<Vec<u64>>) -> Self {
        let (n, slots) = (self.num_points, self.slots());
        let mut offsets = Vec::with_capacity(self.offsets.len());
        let mut ids = Vec::with_capacity(self.ids.len());
        for (band, mut keys) in moved.into_iter().enumerate() {
            keys.sort_unstable();
            let (table, old) = (&self.offsets[band * slots..][..slots], &self.ids[band * n..][..n]);
            let base = ids.len();
            // Copies buckets `from..to` unchanged and writes the offsets of
            // `from..=to`, shifted to where the output is.
            let mut copy = |ids: &mut Vec<u32>, from: usize, to: usize| {
                let (lo, hi) = (table[from] as usize, table[to] as usize);
                let at = (ids.len() - base) as u32;
                offsets.extend(table[from..=to].iter().map(|&o| o - table[from] + at));
                ids.extend_from_slice(&old[lo..hi]);
            };
            let mut next = 0;
            for group in keys.chunk_by(|a, b| a >> 32 == b >> 32) {
                let sig = (group[0] >> 32) as usize;
                copy(&mut ids, next, sig);
                let mut rows = group.iter().map(|&key| key as u32).peekable();
                for &row in &old[table[sig] as usize..table[sig + 1] as usize] {
                    while let Some(joined) = rows.next_if(|&r| r < row) {
                        ids.push(joined);
                    }
                    if rows.next_if_eq(&row).is_none() {
                        ids.push(row);
                    }
                }
                ids.extend(rows);
                next = sig + 1;
            }
            copy(&mut ids, next, slots - 1);
            debug_assert_eq!(ids.len() - base, n, "band {band} files every row once");
        }
        AnnIndex { planes: self.planes.clone(), offsets, ids, num_points: n }
    }

    /// Entries per band's offsets table: one per signature, plus the end.
    fn slots(&self) -> usize {
        (1usize << self.bits()) + 1
    }

    fn bucket(&self, band: usize, sig: u32) -> &[u32] {
        let table = &self.offsets[band * self.slots()..];
        let (lo, hi) = (table[sig as usize] as usize, table[sig as usize + 1] as usize);
        &self.ids[band * self.num_points..][lo..hi]
    }

    /// Vertices the index covers.
    pub fn num_points(&self) -> usize {
        self.num_points
    }

    /// Embedding dimensionality the index hashes.
    pub fn dim(&self) -> usize {
        self.planes.dim()
    }

    /// Number of bands (hash tables).
    pub fn bands(&self) -> usize {
        self.planes.bands()
    }

    /// Signature bits per band.
    pub fn bits(&self) -> usize {
        self.planes.bits()
    }

    /// Candidate set for query vector `x` (`dim()` coordinates): the union
    /// of the matching bucket in every band, plus `probes` low-margin
    /// bit-flip probes per band, deduplicated and in ascending-id order
    /// (deterministic for a given index version). The caller re-ranks
    /// these exactly.
    pub fn candidates(&self, x: &[f32], probes: usize) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::new();
        self.planes.probe_signatures(x, probes, &mut Vec::new(), |band, sig| {
            out.extend_from_slice(self.bucket(band, sig));
        });
        out.sort_unstable();
        out.dedup();
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
    /// margin budget could not prove their signatures unchanged (on the
    /// first sync: every vertex). At most `dirty`; a rising share of it
    /// means rows move by more than their margins.
    pub rehashed: usize,
    /// Wall time of the sync (dirty scan + budget checks + re-projection +
    /// bucket regroup).
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
/// signatures and margin budgets, and the index built from them, and
/// renders an immutable [`AnnIndex`] per snapshot publication.
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
/// A dirty row is projected only when its signatures might have moved.
/// Each row keeps a budget, set whenever it is projected to its margin
/// (`Hyperplanes::margin`): a distance it can travel without any projection
/// changing sign, rounding included. Every sync that finds the row dirty
/// spends its movement since the last view from the budget; by the triangle
/// inequality the row is then still within budget of where it was last
/// projected, so its stored signatures are the ones a projection would
/// compute. Only a row whose budget runs out is projected, and its budget
/// reset.
#[derive(Debug)]
pub struct AnnBuilder {
    cfg: AnnConfig,
    /// Per band, every row's signature (band-major).
    sigs: Vec<u32>,
    /// Per row, what is left of its margin budget (≤ 0: project on its next
    /// change).
    budgets: Vec<f64>,
    /// The last view synced and the index handed out for it; also the record
    /// of the geometry `sigs` describes.
    last: Option<(Arc<Mat<f32>>, Arc<AnnIndex>)>,
}

impl AnnBuilder {
    /// A builder with no points; dimensions are fixed by the first
    /// [`AnnBuilder::sync`].
    pub fn new(cfg: AnnConfig) -> Self {
        AnnBuilder { cfg, sigs: Vec::new(), budgets: Vec::new(), last: None }
    }

    /// Brings the index in line with `emb` and returns the immutable
    /// version to publish. The `Arc` synced last returns the previous index
    /// at once. Otherwise the dirty rows spend their budgets, the ones that
    /// run out are projected, and only the `(band, row)` signatures that
    /// changed are regrouped ([`AnnIndex`]'s merge, O(n + m log m) per band
    /// with `m` moves); a sync where no signature changed returns the
    /// previous `Arc`. The first sync (or a geometry change — row or column
    /// count) projects every row and groups them by a counting sort.
    pub fn sync(&mut self, emb: &Arc<Mat<f32>>) -> (Arc<AnnIndex>, SyncReport) {
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
        emb: &Arc<Mat<f32>>,
        from: &Arc<Mat<f32>>,
        rows: &[u32],
    ) -> (Arc<AnnIndex>, SyncReport) {
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows ascending, once each");
        self.sync_over(emb, Some((from, rows)))
    }

    /// The one sync loop: every row, or `delta`'s rows when its view is the
    /// one synced last.
    fn sync_over(
        &mut self,
        emb: &Arc<Mat<f32>>,
        delta: Option<(&Arc<Mat<f32>>, &[u32])>,
    ) -> (Arc<AnnIndex>, SyncReport) {
        let t0 = Instant::now();
        let n = emb.rows();
        let kept =
            self.last.take().filter(|(seen, _)| (seen.rows(), seen.cols()) == (n, emb.cols()));
        let (mut dirty, mut rehashed) = (0, 0);
        let index = match kept {
            Some((seen, index)) if Arc::ptr_eq(&seen, emb) => index,
            Some((seen, index)) => {
                let (mut acc, mut moved) = (Vec::new(), vec![Vec::new(); index.bands()]);
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
                    self.budgets[row] = index.planes.hash(now, &mut acc, |band, sig| {
                        let slot = &mut self.sigs[band * n + row];
                        if *slot != sig {
                            moved[band].extend([move_key(*slot, row), move_key(sig, row)]);
                            *slot = sig;
                        }
                    });
                };
                match delta {
                    Some((from, rows)) if Arc::ptr_eq(from, &seen) => {
                        rows.iter().for_each(|&row| visit(row as usize))
                    }
                    _ => (0..n).for_each(visit),
                }
                if moved.iter().all(Vec::is_empty) {
                    index
                } else {
                    Arc::new(index.regroup(moved))
                }
            }
            None => {
                let (bands, bits) = (self.cfg.bands.max(1), self.cfg.bits_for(n));
                let planes =
                    Arc::new(Hyperplanes::generate(emb.cols(), bands, bits, self.cfg.seed));
                self.sigs = vec![0; n * bands];
                let mut acc = Vec::new();
                self.budgets = (0..n)
                    .map(|row| {
                        planes.hash(emb.row(row), &mut acc, |band, sig| {
                            self.sigs[band * n + row] = sig;
                        })
                    })
                    .collect();
                (dirty, rehashed) = (n, n);
                Arc::new(AnnIndex::build(planes, &self.sigs, n))
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

/// `sig << 32 | row`: sorting a band's keys groups them by bucket, rows
/// ascending inside.
fn move_key(sig: u32, row: usize) -> u64 {
    (sig as u64) << 32 | row as u64
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

    fn clustered(n: usize, dim: usize) -> Mat<f32> {
        // Two antipodal clusters with a small deterministic wobble.
        Mat::from_fn(n, dim, |r, c| {
            let base = if r % 2 == 0 { 1.0 } else { -1.0 };
            base + ((r * 31 + c * 7) % 13) as f32 * 0.01
        })
    }

    #[test]
    fn first_sync_indexes_everything() {
        let emb = Arc::new(clustered(100, 8));
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
        let (idx0, _) = b.sync(&Arc::new(emb.clone()));
        // Move one vertex to the other cluster.
        for c in 0..8 {
            emb.row_mut(42)[c] = -1.0 - c as f32 * 0.01;
        }
        let (idx1, rep) = b.sync(&Arc::new(emb.clone()));
        assert_eq!((rep.total, rep.dirty, rep.rehashed), (200, 1, 1));
        assert_eq!(rep.dirty_ppm(), 5_000);
        // The new index files 42 under its new signature…
        assert!(idx1.candidates(emb.row(42), 0).contains(&42));
        // …while the previously published index is untouched (old home).
        assert!(idx0.candidates(clustered(200, 8).row(42), 0).contains(&42));
        // A no-op sync is free.
        let (_, rep) = b.sync(&Arc::new(emb));
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
        let (from, to) = (Arc::new(base.clone()), Arc::new(moved.clone()));
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
        assert!(same_layout(&index, &want));
        let mut short = AnnBuilder::new(cfg);
        short.sync(&from);
        let (_, rep) = short.sync_rows(&to, &from, &[7, 42]);
        assert_eq!(rep.dirty, 2, "only the listed rows are compared");

        // A `from` that is not the view synced last — another `Arc` with the
        // same bits, or the new view itself — gets the full compare of
        // `sync`, whatever the list says.
        for stale in [Arc::new(base.clone()), to.clone()] {
            let mut b = AnnBuilder::new(cfg);
            b.sync(&from);
            let (index, rep) = b.sync_rows(&to, &stale, &[]);
            assert_eq!(reports(rep), reports(want_rep));
            assert!(same_layout(&index, &want));
        }
        // The view synced last again reads nothing, whatever the list says.
        let (again, rep) = delta.sync_rows(&to, &from, &[0, 1, 2]);
        assert!(Arc::ptr_eq(&again, &index));
        assert_eq!((rep.dirty, rep.rehashed), (0, 0));
    }

    #[test]
    fn geometry_change_forces_full_rebuild() {
        let mut b = AnnBuilder::new(AnnConfig::default());
        let (_, rep) = b.sync(&Arc::new(clustered(50, 8)));
        assert_eq!(rep.dirty, 50);
        let (_, rep) = b.sync(&Arc::new(clustered(60, 8)));
        assert_eq!((rep.total, rep.dirty), (60, 60));
        let (idx, rep) = b.sync(&Arc::new(clustered(60, 4)));
        assert_eq!(rep.dirty, 60);
        assert!(idx.candidates(clustered(60, 4).row(3), 0).contains(&3));
    }

    #[test]
    fn candidates_are_sorted_dedup_and_cluster_local() {
        let emb = Arc::new(clustered(300, 16));
        let mut b = AnnBuilder::new(AnnConfig { bands: 6, bits: 4, seed: 9 });
        let (idx, _) = b.sync(&emb);
        let cands = idx.candidates(emb.row(10), 2);
        assert!(cands.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
        assert!(cands.contains(&10));
        // The antipodal cluster should be (almost) absent at zero probes.
        let tight = idx.candidates(emb.row(10), 0);
        let wrong = tight.iter().filter(|&&v| v % 2 == 1).count();
        assert!(
            wrong * 5 < tight.len().max(1),
            "opposite cluster dominates the bucket: {wrong}/{}",
            tight.len()
        );
    }

    #[test]
    fn empty_and_tiny_inputs_are_fine() {
        let mut b = AnnBuilder::new(AnnConfig::default());
        let (idx, rep) = b.sync(&Arc::new(Mat::zeros(0, 8)));
        assert_eq!((idx.num_points(), rep.total), (0, 0));
        assert_eq!(rep.dirty_ppm(), 0);
        assert!(idx.candidates(&[0.0; 8], 4).is_empty());
        let (idx, _) = b.sync(&Arc::new(Mat::filled(1, 8, 0.5)));
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
        AnnBuilder::new(cfg).sync(&Arc::new(emb.clone())).0
    }

    /// Whether two indexes file every row under the same signatures.
    fn same_layout(a: &AnnIndex, b: &AnnIndex) -> bool {
        (&a.offsets, &a.ids) == (&b.offsets, &b.ids)
    }

    #[test]
    fn one_ulp_nudge_far_from_every_plane_projects_nothing() {
        let mut emb = clustered(200, 8);
        let mut b = AnnBuilder::new(AnnConfig::default());
        let (before, _) = b.sync(&Arc::new(emb.clone()));
        let row = (0..200).max_by(|&x, &y| b.budgets[x].total_cmp(&b.budgets[y])).unwrap();
        assert!(b.budgets[row] > 1e-3, "row {row} budget {}", b.budgets[row]);
        emb.row_mut(row)[3] = emb.row(row)[3].next_up();
        let (after, rep) = b.sync(&Arc::new(emb.clone()));
        assert_eq!((rep.total, rep.dirty, rep.rehashed), (200, 1, 0));
        assert!(Arc::ptr_eq(&before, &after), "no signature moved: the same index");
        assert!(same_layout(&after, &fresh(AnnConfig::default(), &emb)));
    }

    #[test]
    fn a_chain_of_sub_margin_nudges_is_projected_once_a_crossing_is_possible() {
        let cfg = AnnConfig::default();
        let mut emb = clustered(200, 8);
        let mut b = AnnBuilder::new(cfg);
        let (mut index, _) = b.sync(&Arc::new(emb.clone()));
        let (row, planes) = (10, index.planes.clone());
        let start = emb.row(row).to_vec();
        // Every plane as a unit normal; the row's signed distance to each.
        let normals: Vec<Vec<f64>> = (0..cfg.bands * planes.bits())
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
            let (next, rep) = b.sync(&Arc::new(emb.clone()));
            assert_eq!((rep.dirty, rep.rehashed), (1, usize::from(step == 4)), "step {step}");
            assert_eq!(Arc::ptr_eq(&next, &index), step < 4, "step {step}: moved bucket");
            assert!(same_layout(&next, &fresh(cfg, &emb)), "step {step}");
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
        b.sync(&Arc::new(emb.clone()));
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
            let (index, rep) = b.sync(&Arc::new(emb.clone()));
            assert_eq!((rep.dirty, rep.rehashed), (5, 5), "round {round}");
            for row in 0..corners.len() {
                assert!(b.budgets[row] <= 0.0, "round {round} row {row}: {}", b.budgets[row]);
            }
            assert!(same_layout(&index, &fresh(cfg, &emb)), "round {round}");
        }
    }

    /// Every bucket of every band is strictly ascending and each band
    /// files every vertex exactly once.
    fn check_buckets(index: &AnnIndex) -> Result<(), proptest::TestCaseError> {
        for band in 0..index.bands() {
            let mut filed = 0usize;
            for sig in 0..1u32 << index.bits() {
                let bucket = index.bucket(band, sig);
                prop_assert!(bucket.windows(2).all(|w| w[0] < w[1]), "band {band} sig {sig}");
                prop_assert!(bucket.iter().all(|&v| (v as usize) < index.num_points()));
                filed += bucket.len();
            }
            prop_assert_eq!(filed, index.num_points());
        }
        Ok(())
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
            (0usize..48, 0usize..64).prop_map(|(r, lane)| Edit::OntoPlane(r, lane)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// After every sync of any sequence of row edits — overwrites,
        /// 1–4-ulp nudges, rows put a few ulps from a plane and nudged
        /// across it — the incrementally maintained index files every row
        /// exactly where a fresh build of the same matrix does. Every sync
        /// finds exactly the rows whose bit patterns changed dirty and
        /// projects at most those, and it returns the previous index `Arc`
        /// exactly when no signature moved — in particular when handed the
        /// same view `Arc` again or a new one with equal bits. A second
        /// builder told a random superset of the changed rows
        /// ([`AnnBuilder::sync_rows`]) reports and files the same.
        #[test]
        fn incremental_sync_equals_fresh_build(
            rows in 1usize..48,
            dim in 1usize..7,
            bands in 1usize..5,
            bits in 0usize..7,
            cells in proptest::collection::vec(cell(), 48 * 6),
            rounds in proptest::collection::vec(
                (proptest::collection::vec(edit(), 0usize..10), any::<u64>()),
                1usize..10,
            ),
        ) {
            let cfg = AnnConfig { bands, bits, seed: 5 };
            let mut emb = Mat::from_vec(rows, dim, cells[..rows * dim].to_vec());
            let mut builder = AnnBuilder::new(cfg);
            let (mut index, rep) = builder.sync(&Arc::new(emb.clone()));
            prop_assert_eq!((rep.total, rep.dirty, rep.rehashed), (rows, rows, rows));
            let mut told = AnnBuilder::new(cfg);
            let mut told_view = Arc::new(emb.clone());
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
                            let w = planes.plane(lane % (planes.bands() * planes.bits()));
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
                let (next, rep) = builder.sync(&Arc::new(emb.clone()));
                prop_assert_eq!((rep.total, rep.dirty), (rows, changed));
                prop_assert!(rep.rehashed <= changed, "{} > {}", rep.rehashed, changed);
                check_buckets(&next)?;
                prop_assert!(same_layout(&next, &fresh(cfg, &emb)), "differs from a fresh build");
                prop_assert_eq!(Arc::ptr_eq(&next, &index), same_layout(&next, &index));
                // Every changed row, plus the unchanged rows `extra` picks.
                let listed: Vec<u32> = (0..rows)
                    .filter(|&r| differs(r) || extra >> (r % 64) & 1 == 1)
                    .map(|r| r as u32)
                    .collect();
                let view = Arc::new(emb.clone());
                let (told_next, told_rep) = told.sync_rows(&view, &told_view, &listed);
                prop_assert_eq!(
                    (told_rep.total, told_rep.dirty, told_rep.rehashed),
                    (rep.total, rep.dirty, rep.rehashed)
                );
                prop_assert!(same_layout(&told_next, &next), "told the rows, files differently");
                told_view = view;
                index = next;
            }
            let view = Arc::new(emb.clone());
            let (index, _) = builder.sync(&view);
            let (again, rep) = builder.sync(&view);
            prop_assert!(Arc::ptr_eq(&index, &again));
            prop_assert_eq!((rep.dirty, rep.rehashed), (0, 0));
            let (equal, rep) = builder.sync(&Arc::new(emb.clone()));
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
}
