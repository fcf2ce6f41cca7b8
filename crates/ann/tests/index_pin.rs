//! Pins the published index bit-for-bit: one seeded matrix is driven
//! through every kind of sync (full, one row, a fifth of the rows, every
//! row, nothing, geometry change, another seed) and after each the
//! candidate lists of every 7th row are folded into a hash compared against
//! a recorded value, and the sync's `(total, dirty, rehashed)` against a
//! literal. Any rewrite of the maintenance half or of the candidate
//! selection has to reproduce them, which is the argument that recall
//! cannot move (not a tolerance on recall itself). The counts are kept
//! apart from the hash so that a change in how much work a sync does shows
//! up as a named literal, never as a moved hash.

use seqge_ann::{AnnBuilder, AnnConfig, AnnIndex, LANES};
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

/// Hash of the index's shape and of `candidates(row, probes)` for every 7th
/// row at `probes ∈ {0, 8}`.
fn candidate_hash(index: &AnnIndex, emb: &Mat<f32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    assert_eq!(index.num_points(), emb.rows());
    for v in [LANES, index.dim()] {
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
    let (mut counts, mut hashes) = (Vec::new(), Vec::new());
    let mut step = |builder: &mut AnnBuilder, emb: &Mat<f32>| {
        let (index, rep) = builder.sync(&Arc::new(emb.clone().into()));
        counts.push((rep.total, rep.dirty, rep.rehashed));
        hashes.push(candidate_hash(&index, emb));
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
    // 7. A second builder with another seed.
    let mut other = AnnBuilder::new(AnnConfig { seed: 9 });
    step(&mut other, &grown);

    let want_counts: Vec<(usize, usize, usize)> = vec![
        (3_000, 3_000, 3_000),
        (3_000, 1, 1),
        (3_000, 508, 508),
        (3_000, 3_000, 3_000),
        (3_000, 0, 0),
        (3_100, 3_100, 3_100),
        (3_100, 3_100, 3_100),
    ];
    let want_hashes: Vec<u64> = vec![
        0xf49a_2b46_5ab1_f026,
        0x4e2d_a98e_afbd_dcd8,
        0xf484_a2dd_38ff_6bd2,
        0xba37_39e4_b960_c44a,
        0xba37_39e4_b960_c44a,
        0xb22f_f82b_d2a1_f7c2,
        0x1ff6_6890_f857_2a66,
    ];
    assert_eq!(hashes, want_hashes, "candidate hash after each sync");
    assert_eq!(counts, want_counts, "(total, dirty, rehashed) after each sync");
}
