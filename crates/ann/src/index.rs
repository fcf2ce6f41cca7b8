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

    fn bucket(&self, band: usize, sig: u32) -> &[u32] {
        let table = &self.offsets[band * ((1usize << self.bits()) + 1)..];
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
    /// Vertices actually re-hashed. Equals `dirty` — reported separately
    /// so the metrics assert the incremental invariant rather than assume
    /// it.
    pub rehashed: usize,
    /// Wall time of the sync (dirty scan + re-hash + bucket regroup).
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
/// signatures and the index built from them, and renders an immutable
/// [`AnnIndex`] per snapshot publication.
///
/// Change detection is pointer-first, then exact. Handed the very `Arc` it
/// synced last, a sync reads no row: views are immutable behind their `Arc`,
/// so the same pointer means the same bits. Otherwise a row is dirty when
/// its `f32` bit patterns differ from the last view's — one O(n·d) compare,
/// an order of magnitude cheaper than re-hashing every row through
/// `bands × bits` hyperplanes, and never wrong.
#[derive(Debug)]
pub struct AnnBuilder {
    cfg: AnnConfig,
    sigs: Vec<u32>,
    /// The last view synced and the index handed out for it; also the record
    /// of the geometry `sigs` describes.
    last: Option<(Arc<Mat<f32>>, Arc<AnnIndex>)>,
}

impl AnnBuilder {
    /// A builder with no points; dimensions are fixed by the first
    /// [`AnnBuilder::sync`].
    pub fn new(cfg: AnnConfig) -> Self {
        AnnBuilder { cfg, sigs: Vec::new(), last: None }
    }

    /// Brings the index in line with `emb` and returns the immutable
    /// version to publish. The `Arc` synced last returns the previous index
    /// at once. Otherwise only rows whose bits changed since the last sync
    /// are re-hashed, after which the buckets are regrouped from the
    /// retained signatures (O(n·bands) `u32` moves); a sync that finds no
    /// row changed returns the previous `Arc`. The first sync (or a geometry
    /// change — row or column count) is a full rebuild.
    pub fn sync(&mut self, emb: &Arc<Mat<f32>>) -> (Arc<AnnIndex>, SyncReport) {
        let t0 = Instant::now();
        let n = emb.rows();
        let kept =
            self.last.take().filter(|(seen, _)| (seen.rows(), seen.cols()) == (n, emb.cols()));
        let mut dirty = 0;
        let index = match kept {
            Some((seen, index)) if Arc::ptr_eq(&seen, emb) => index,
            Some((seen, index)) => {
                dirty =
                    self.rehash(&index.planes, emb, |row| !same_bits(seen.row(row), emb.row(row)));
                match dirty {
                    0 => index,
                    _ => Arc::new(AnnIndex::build(index.planes.clone(), &self.sigs, n)),
                }
            }
            None => {
                let (bands, bits) = (self.cfg.bands.max(1), self.cfg.bits_for(n));
                let planes =
                    Arc::new(Hyperplanes::generate(emb.cols(), bands, bits, self.cfg.seed));
                self.sigs = vec![0; n * bands];
                dirty = self.rehash(&planes, emb, |_| true);
                Arc::new(AnnIndex::build(planes, &self.sigs, n))
            }
        };
        self.last = Some((emb.clone(), index.clone()));
        let report = SyncReport {
            total: n,
            dirty,
            rehashed: dirty,
            build_ns: t0.elapsed().as_nanos().min(u64::MAX as u128) as u64,
        };
        (index, report)
    }

    /// Re-hashes the rows of `emb` that `changed` picks into `sigs`;
    /// returns how many.
    fn rehash(
        &mut self,
        planes: &Hyperplanes,
        emb: &Mat<f32>,
        changed: impl Fn(usize) -> bool,
    ) -> usize {
        let n = emb.rows();
        let mut acc = Vec::new();
        let mut dirty = 0;
        for row in (0..n).filter(|&row| changed(row)) {
            dirty += 1;
            planes.probe_signatures(emb.row(row), 0, &mut acc, |band, sig| {
                self.sigs[band * n + row] = sig;
            });
        }
        dirty
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// After any sequence of row edits and syncs the incrementally
        /// maintained index answers exactly like a fresh build of the
        /// final matrix, every sync re-hashes exactly the rows whose bit
        /// patterns changed, and a sync that finds none — handed the same
        /// view `Arc` again or a new one with equal bits — returns the very
        /// same index `Arc`.
        #[test]
        fn incremental_sync_equals_fresh_build(
            rows in 1usize..48,
            dim in 1usize..7,
            bands in 1usize..5,
            bits in 0usize..7,
            cells in proptest::collection::vec(cell(), 48 * 6),
            rounds in proptest::collection::vec(
                proptest::collection::vec((0usize..48, 0usize..6, cell()), 0usize..10),
                1usize..6,
            ),
        ) {
            let cfg = AnnConfig { bands, bits, seed: 5 };
            let mut emb = Mat::from_vec(rows, dim, cells[..rows * dim].to_vec());
            let mut builder = AnnBuilder::new(cfg);
            let (_, rep) = builder.sync(&Arc::new(emb.clone()));
            prop_assert_eq!((rep.total, rep.dirty, rep.rehashed), (rows, rows, rows));
            for edits in rounds {
                let before = emb.clone();
                for (r, c, v) in edits {
                    emb.row_mut(r % rows)[c % dim] = v;
                }
                let bits_of = |m: &Mat<f32>, r: usize| m.row(r).iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                let changed = (0..rows).filter(|&r| bits_of(&before, r) != bits_of(&emb, r)).count();
                let (index, rep) = builder.sync(&Arc::new(emb.clone()));
                prop_assert_eq!((rep.total, rep.dirty, rep.rehashed), (rows, changed, changed));
                check_buckets(&index)?;
            }
            let view = Arc::new(emb.clone());
            let (index, _) = builder.sync(&view);
            let (again, rep) = builder.sync(&view);
            prop_assert!(Arc::ptr_eq(&index, &again));
            prop_assert_eq!((rep.dirty, rep.rehashed), (0, 0));
            let (equal, rep) = builder.sync(&Arc::new(emb.clone()));
            prop_assert!(Arc::ptr_eq(&index, &equal));
            prop_assert_eq!((rep.dirty, rep.rehashed), (0, 0));
            let (fresh, _) = AnnBuilder::new(cfg).sync(&view);
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
