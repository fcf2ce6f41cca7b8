//! Pins the published index bit-for-bit: one seeded matrix is driven
//! through every kind of sync (full, one row, a fifth of the rows, every
//! row, nothing, geometry change, explicit config) and after each the
//! candidate lists of every 7th row plus the sync's counts are folded into
//! a hash compared against a recorded value. The values were recorded on
//! the `HashMap<u32, Arc<Vec<u32>>>` / scalar-projection implementation;
//! any rewrite of the maintenance half has to reproduce them, which is the
//! argument that recall cannot move (not a tolerance on recall itself).

use seqge_ann::{AnnBuilder, AnnConfig, AnnIndex, SyncReport};
use seqge_linalg::Mat;
use std::sync::Arc;

const ROWS: usize = 3_000;
const DIM: usize = 32;

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

/// Hash of `(total, dirty, rehashed)` and of `candidates(row, probes)` for
/// every 7th row at `probes ∈ {0, 8}`.
fn fingerprint(index: &AnnIndex, rep: &SyncReport, emb: &Mat<f32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    assert_eq!(index.num_points(), emb.rows());
    for v in [rep.total, rep.dirty, rep.rehashed, index.bands(), index.bits()] {
        fold(&mut h, v as u64);
    }
    for row in (0..emb.rows()).step_by(7) {
        for probes in [0usize, 8] {
            let cands = index.candidates(emb.row(row), probes);
            fold(&mut h, cands.len() as u64);
            for c in cands {
                fold(&mut h, c as u64);
            }
        }
    }
    h
}

#[test]
fn index_is_pinned_through_every_kind_of_sync() {
    let mut rng = Rng(0x5EED_0018);
    let mut emb = Mat::from_fn(ROWS, DIM, |_, _| rng.unit());
    let mut builder = AnnBuilder::new(AnnConfig::default());
    let mut seen = Vec::new();
    let mut step = |builder: &mut AnnBuilder, emb: &Mat<f32>| {
        let (index, rep) = builder.sync(&Arc::new(emb.clone()));
        seen.push(((rep.total, rep.dirty, rep.rehashed), fingerprint(&index, &rep, emb)));
    };

    // 1. Full sync.
    step(&mut builder, &emb);
    // 2. One row re-drawn.
    for x in emb.row_mut(1_234) {
        *x = rng.unit();
    }
    step(&mut builder, &emb);
    // 3. 18 % of the rows nudged (most keep most of their signature bits).
    for row in 0..ROWS {
        if rng.next() % 100 < 18 {
            for x in emb.row_mut(row) {
                *x += 0.05 * rng.unit();
            }
        }
    }
    step(&mut builder, &emb);
    // 4. Every row moved.
    for row in 0..ROWS {
        for x in emb.row_mut(row) {
            *x = *x * 0.9 + 0.2 * rng.unit();
        }
    }
    step(&mut builder, &emb);
    // 5. Nothing changed.
    step(&mut builder, &emb);
    // 6. Geometry change: 100 more rows.
    let mut grown = Mat::from_fn(ROWS + 100, DIM, |_, _| rng.unit());
    grown.as_mut_slice()[..ROWS * DIM].copy_from_slice(emb.as_slice());
    step(&mut builder, &grown);
    // 7. A second builder with an explicit shape.
    let mut small = AnnBuilder::new(AnnConfig { bands: 6, bits: 4, ..AnnConfig::default() });
    step(&mut small, &grown);

    let want: Vec<((usize, usize, usize), u64)> = vec![
        ((3_000, 3_000, 3_000), 0x7f25_a463_37ee_d67b),
        ((3_000, 1, 1), 0x8ae7_5edc_f3b1_9855),
        ((3_000, 508, 508), 0x0a99_7b9b_dc1e_2f32),
        ((3_000, 3_000, 3_000), 0x1f1b_29aa_8740_bed8),
        ((3_000, 0, 0), 0xbcfd_eecd_97da_6e22),
        ((3_100, 3_100, 3_100), 0xcc8e_518b_32e0_d720),
        ((3_100, 3_100, 3_100), 0xfd2e_c7fb_c1b0_64f2),
    ];
    assert_eq!(seen, want, "(total, dirty, rehashed) and fingerprint after each sync");
}
