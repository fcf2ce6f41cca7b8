//! Signed random-hyperplane hashing: configuration, plane generation, and
//! signature/multi-probe computation.
//!
//! A signature bit is `sign(⟨plane, x⟩)`, so two vectors collide in a band
//! with probability `(1 - θ/π)^bits` for angle `θ` — the family is
//! locality-sensitive for *angular* similarity. The serving layer re-ranks
//! candidates exactly under the requested operator (`dot`, `cosine`,
//! `neg_l2`), so the hash family only shapes the candidate pool; the
//! recall guarantee is strongest for cosine-like operators and degrades
//! gracefully for norm-sensitive ones.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seqge_linalg::{ops, Mat};

/// Hard cap on the per-band signature width.
pub const MAX_BITS: usize = 24;

/// Index configuration. `Default` matches the serving defaults documented
/// in DESIGN.md ("Sublinear reads").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnnConfig {
    /// Independent hash tables (bands). More bands buy recall linearly in
    /// index size and query hash cost.
    pub bands: usize,
    /// Signature bits per band. `0` picks `ceil(log2(n / 32))` (floor 4)
    /// at first sync, targeting ~32-vertex buckets.
    pub bits: usize,
    /// Seed for the hyperplane matrix (deterministic index layout).
    pub seed: u64,
}

impl Default for AnnConfig {
    fn default() -> Self {
        AnnConfig { bands: 8, bits: 0, seed: 0xA55_5EED }
    }
}

impl AnnConfig {
    /// The signature width used for an `n`-point index: the explicit
    /// `bits` if nonzero, otherwise the auto rule; either way at most
    /// `max(4, ceil(log2 n))`. Past that width the expected bucket
    /// occupancy is below one — more bits only empty buckets — and the
    /// cap keeps the index's dense offsets tables O(n) per band.
    pub fn bits_for(&self, n: usize) -> usize {
        let ceil_log2 = (usize::BITS - (n.max(1) - 1).leading_zeros()) as usize;
        let cap = ceil_log2.clamp(4, MAX_BITS);
        if self.bits != 0 {
            return self.bits.min(cap);
        }
        let mut bits = 4usize;
        while (n >> bits) > 32 && bits < cap {
            bits += 1;
        }
        bits
    }
}

/// The `bands × bits` random hyperplanes, generated once per index
/// geometry and shared (`Arc`) by every [`crate::AnnIndex`] published for
/// it. Stored transposed: row `i` holds coordinate `i` of every plane, one
/// *lane* per `(band, bit)`, so all projections of a vector accumulate
/// side by side — the accelerator's layout of independent outputs across
/// MAC lanes, each summed in a fixed order.
#[derive(Debug)]
pub struct Hyperplanes {
    lanes: Mat<f32>,
    /// `1 / ‖plane‖` per lane, for [`Hyperplanes::margin`].
    inv_norms: Vec<f64>,
    bands: usize,
    bits: usize,
}

/// Unit roundoff of `f32` round-to-nearest.
const U: f64 = 1.0 / (1u64 << 24) as f64;

/// Relative slack on top of the `f32` accumulation bound; see
/// [`Hyperplanes::margin`].
const SLACK: f64 = 1.0 / (1u64 << 20) as f64;

/// Rows with a larger norm get no margin budget; see
/// [`Hyperplanes::margin`].
const MAX_NORM: f64 = (1u128 << 64) as f64;

impl Hyperplanes {
    /// Draws `bands * bits` planes of dimension `dim` from `seed`
    /// (coordinates uniform in `[-1, 1)`, drawn plane by plane; any
    /// symmetric coordinate distribution yields the sign-collision
    /// property).
    pub fn generate(dim: usize, bands: usize, bits: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let planes = Mat::from_fn(bands * bits, dim, |_, _| rng.gen_range(-1.0f64..1.0) as f32);
        let inv_norms = (0..planes.rows()).map(|lane| 1.0 / norm(planes.row(lane))).collect();
        Hyperplanes { lanes: planes.transpose(), inv_norms, bands, bits }
    }

    /// Number of bands.
    pub fn bands(&self) -> usize {
        self.bands
    }

    /// Signature bits per band.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Embedding dimensionality the planes were drawn for.
    pub fn dim(&self) -> usize {
        self.lanes.rows()
    }

    /// The one projection kernel: `acc[lane] = ⟨plane_lane, x⟩` for every
    /// lane at once. Each lane still sums `0.0 + p₀x₀ + p₁x₁ + …` in index
    /// order with a separate multiply and add (`ops::axpy` is elementwise,
    /// IEEE multiplication commutes bitwise), so every projection is
    /// bit-identical to the one-plane-at-a-time dot product it replaces;
    /// only the loop nest is transposed, which turns `bands · bits`
    /// dependent chains into one vectorizable sweep per coordinate.
    fn projections(&self, x: &[f32], acc: &mut Vec<f32>) {
        debug_assert_eq!(x.len(), self.dim());
        acc.clear();
        acc.resize(self.bands * self.bits, 0.0);
        for (i, &xi) in x[..self.dim()].iter().enumerate() {
            ops::axpy(xi, self.lanes.row(i), acc);
        }
    }

    /// Per-band signatures of `x` (`dim()` coordinates) plus, for each
    /// band, up to `probes` extra signatures obtained by flipping the bits
    /// with the smallest projection magnitude — the bits most likely to
    /// disagree between a vector and its near neighbors (classic
    /// multi-probe LSH). Calls `visit(band, signature)` for the exact
    /// signature first, then each probe in ascending-margin order. `acc`
    /// is projection scratch a caller hashing many vectors can reuse.
    pub fn probe_signatures(
        &self,
        x: &[f32],
        probes: usize,
        acc: &mut Vec<f32>,
        mut visit: impl FnMut(usize, u32),
    ) {
        let probes = probes.min(self.bits);
        self.projections(x, acc);
        let mut margins: Vec<(f32, usize)> = Vec::new();
        for (band, acc) in acc.chunks_exact(self.bits).enumerate() {
            // Branch-free sign packing: NaN and negatives read 0, -0.0 reads 1.
            let sig = acc.iter().enumerate().fold(0, |s, (bit, &p)| s | ((p >= 0.0) as u32) << bit);
            visit(band, sig);
            if probes > 0 {
                margins.clear();
                margins.extend(acc.iter().enumerate().map(|(bit, p)| (p.abs(), bit)));
                // Total order (f32 margins are finite for finite input;
                // NaN sorts last via total_cmp) keeps probe sets
                // deterministic across republishes.
                margins.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                for &(_, bit) in margins.iter().take(probes) {
                    visit(band, sig ^ (1 << bit));
                }
            }
        }
    }

    /// γ of [`Hyperplanes::margin`]: the `f32` accumulation bound
    /// `d·u / (1 − d·u)` plus [`SLACK`]; infinite from `d·u = 1/16` (d =
    /// 2²⁰) on, where no row gets a budget.
    fn gamma(&self) -> f64 {
        let du = self.dim() as f64 * U;
        if du < 1.0 / 16.0 {
            du / (1.0 - du) + SLACK
        } else {
            f64::INFINITY
        }
    }

    /// [`Hyperplanes::probe_signatures`] of `x` at zero probes, returning
    /// `x`'s margin budget.
    pub(crate) fn hash(&self, x: &[f32], acc: &mut Vec<f32>, visit: impl FnMut(usize, u32)) -> f64 {
        self.probe_signatures(x, 0, acc, visit);
        self.margin(x, acc)
    }

    /// The margin budget of row `x` with projections `acc`: every row `y`
    /// that [`Hyperplanes::movement`] puts less than this away from `x`
    /// gets the same signature as `x` in every band, so the builder need
    /// not project it.
    ///
    /// Lane `l` computes `p̂ = fl(Σ wᵢxᵢ)` for its plane `w`: `d` products
    /// and `d − 1` additions in `f32` round-to-nearest (the first addition,
    /// to `0.0`, is exact). The bound for a recursively summed dot product
    /// (Higham, *Accuracy and Stability of Numerical Algorithms*, §3.1),
    /// with the gradual-underflow model's absolute error of at most half a
    /// subnormal per product, gives
    ///
    /// ```text
    /// |p̂ − ⟨w, x⟩| ≤ γ_d·Σ|wᵢxᵢ| + d·μ ≤ γ_d·‖w‖·‖x‖ + d·μ =: E(x),
    /// γ_d = d·u / (1 − d·u),  u = 2⁻²⁴,  μ = f32::MIN_POSITIVE,
    /// ```
    ///
    /// μ being far more than the half-subnormal the model needs. For `y`
    /// with `‖y − x‖ ≤ δ`, `|⟨w, y⟩ − ⟨w, x⟩| ≤ ‖w‖·δ` and
    /// `E(y) ≤ γ_d·‖w‖·(‖x‖ + δ) + d·μ`, so `p̂(y)` has the strict sign of
    /// `p̂(x)`, hence the same bit, whenever `|p̂(x)| > E(x) + ‖w‖·δ + E(y)`,
    /// which follows from
    ///
    /// ```text
    /// (1 + γ_d)·δ < (|p̂(x)| − 2d·μ) / ‖w‖ − 2γ_d·‖x‖.
    /// ```
    ///
    /// The budget is the right side minimised over the lanes, evaluated in
    /// `f64` with γ = γ_d + 2⁻²⁰. The slack covers every `f64` rounding in
    /// the budget and the spend (each a relative error under (d + 8)·2⁻⁵³,
    /// so under 2⁻³² for d < 2²⁰) and the `f32` rounding of the differences
    /// the spend measures (2⁻²⁴). It is a property of the kernel, not a
    /// setting.
    ///
    /// The bound assumes that nothing overflows. A row with a norm above
    /// 2⁶⁴ gets no budget (nor does a non-finite one: its norm is not
    /// finite). Below that, with plane coordinates under 1 in magnitude and
    /// d < 2²⁰, every product and partial sum for `x` and for any `y` within
    /// its budget stays under 2⁷⁶. The floor `2d·μ` makes the budget
    /// negative for a projection of ±0.0 and for a row whose coordinates
    /// are all subnormal (then `|p̂| < 2d·μ`), so those rows are always
    /// projected.
    fn margin(&self, x: &[f32], acc: &[f32]) -> f64 {
        let norm = norm(x);
        if norm.is_nan() || norm > MAX_NORM {
            return f64::NEG_INFINITY;
        }
        // `max(1)`: the floor stays positive for zero-width rows too.
        let floor = 2.0 * self.dim().max(1) as f64 * f32::MIN_POSITIVE as f64;
        let nearest = acc
            .iter()
            .zip(&self.inv_norms)
            .map(|(&p, &inv)| (p.abs() as f64 - floor) * inv)
            .fold(f64::INFINITY, f64::min);
        nearest - 2.0 * self.gamma() * norm
    }

    /// What moving a row from `from` to `to` spends from its
    /// [`Hyperplanes::margin`] budget: `(1 + γ)·‖to − from‖`, rounded up.
    /// `ops::scan_dist2` takes each difference in `f32` (relative error at
    /// most 2⁻²⁴, exact when subnormal) and sums exact squares in `f64`;
    /// γ's slack covers both. Not finite when either row is not.
    pub(crate) fn movement(&self, from: &[f32], to: &[f32]) -> f64 {
        ops::scan_dist2(to, from).sqrt() * (1.0 + self.gamma())
    }

    /// Plane `lane`'s coordinates.
    #[cfg(test)]
    pub(crate) fn plane(&self, lane: usize) -> Vec<f32> {
        (0..self.dim()).map(|i| self.lanes[(i, lane)]).collect()
    }
}

/// `‖x‖`, squares and sum in `f64`.
fn norm(x: &[f32]) -> f64 {
    x.iter().map(|&v| v as f64 * v as f64).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl Hyperplanes {
        /// The scalar kernel the lane sweep replaced — one plane, one
        /// dependent chain — kept as the bit-identity reference.
        fn project(&self, plane: usize, x: &[f32]) -> f32 {
            let mut acc = 0.0f32;
            for (i, &xi) in x.iter().enumerate() {
                acc += self.lanes[(i, plane)] * xi;
            }
            acc
        }

        /// `probe_signatures` as it was written over `project`.
        fn probe_signatures_ref(&self, x: &[f32], probes: usize) -> Vec<(usize, u32)> {
            let mut out = Vec::new();
            for band in 0..self.bands {
                let mut sig = 0u32;
                let mut margins = Vec::new();
                for bit in 0..self.bits {
                    let p = self.project(band * self.bits + bit, x);
                    if p >= 0.0 {
                        sig |= 1 << bit;
                    }
                    margins.push((p.abs(), bit));
                }
                out.push((band, sig));
                margins.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                out.extend(margins.iter().take(probes).map(|&(_, bit)| (band, sig ^ (1 << bit))));
            }
            out
        }
    }

    fn probed(h: &Hyperplanes, x: &[f32], probes: usize) -> Vec<(usize, u32)> {
        let mut out = Vec::new();
        h.probe_signatures(x, probes, &mut Vec::new(), |band, sig| out.push((band, sig)));
        out
    }

    fn signatures(h: &Hyperplanes, x: &[f32]) -> Vec<u32> {
        probed(h, x, 0).into_iter().map(|(_, sig)| sig).collect()
    }

    #[test]
    fn auto_bits_track_point_count() {
        let cfg = AnnConfig::default();
        assert_eq!(cfg.bits_for(0), 4);
        assert_eq!(cfg.bits_for(1_000), 5);
        assert_eq!(cfg.bits_for(100_000), 12);
        assert_eq!(cfg.bits_for(1_000_000), 15);
        // Explicit bits win up to max(4, ceil(log2 n)) — one expected
        // vertex per bucket — and the auto rule never reaches that cap.
        assert_eq!(AnnConfig { bits: 10, ..cfg }.bits_for(7), 4);
        assert_eq!(AnnConfig { bits: 99, ..cfg }.bits_for(7), 4);
        assert_eq!(AnnConfig { bits: 3, ..cfg }.bits_for(7), 3);
        assert_eq!(AnnConfig { bits: 10, ..cfg }.bits_for(1_000), 10);
        assert_eq!(AnnConfig { bits: 11, ..cfg }.bits_for(1_000), 10);
        assert_eq!(AnnConfig { bits: 99, ..cfg }.bits_for(usize::MAX), MAX_BITS);
        for n in [0usize, 1, 16, 17, 513, 4_097, 1 << 20, usize::MAX] {
            assert!(cfg.bits_for(n) <= AnnConfig { bits: MAX_BITS, ..cfg }.bits_for(n), "n = {n}");
        }
    }

    #[test]
    fn signatures_are_deterministic_and_band_sized() {
        let h = Hyperplanes::generate(8, 4, 6, 7);
        let x: Vec<f32> = (0..8).map(|i| i as f32 / 3.0 - 1.0).collect();
        let a = signatures(&h, &x);
        assert_eq!(a, signatures(&h, &x));
        assert!(a.iter().all(|&s| s < 1 << 6));
        // Same seed, same planes.
        let h2 = Hyperplanes::generate(8, 4, 6, 7);
        assert_eq!(a, signatures(&h2, &x));
    }

    #[test]
    fn opposite_vectors_get_complementary_signatures() {
        let h = Hyperplanes::generate(16, 2, 12, 3);
        let x: Vec<f32> = (0..16).map(|i| (i as f32).sin()).collect();
        let neg: Vec<f32> = x.iter().map(|&v| -v).collect();
        // A plane projecting exactly to 0.0 would put both on the same
        // side; with generic inputs every bit flips.
        for (a, b) in signatures(&h, &x).iter().zip(&signatures(&h, &neg)) {
            assert_eq!(a ^ b, (1 << 12) - 1);
        }
    }

    #[test]
    fn probe_signatures_yield_exact_then_single_bit_flips() {
        let h = Hyperplanes::generate(8, 3, 8, 11);
        let x: Vec<f32> = (0..8).map(|i| (i as f32 * 0.7).cos()).collect();
        let exact = signatures(&h, &x);
        let mut seen: Vec<Vec<u32>> = vec![Vec::new(); 3];
        for (band, sig) in probed(&h, &x, 4) {
            seen[band].push(sig);
        }
        for band in 0..3 {
            assert_eq!(seen[band].len(), 5, "exact + 4 probes");
            assert_eq!(seen[band][0], exact[band]);
            for &p in &seen[band][1..] {
                assert_eq!((p ^ exact[band]).count_ones(), 1, "single-bit probe");
            }
        }
        // probes are capped at `bits`.
        assert_eq!(probed(&h, &x, 999).len(), 3 * (1 + 8));
    }

    /// One coordinate: mostly ordinary values, with the IEEE corner cases
    /// (signed zeros, subnormals, near-overflow magnitudes, NaN) mixed in
    /// often enough that most vectors carry a few.
    fn coord() -> impl Strategy<Value = f32> {
        (0u32..64, -1.0f32..1.0).prop_map(|(kind, v)| match kind {
            0 => f32::NAN,
            1 => 0.0,
            2 => -0.0,
            3 => f32::MIN_POSITIVE / 8.0,
            4 => -f32::MIN_POSITIVE / 1024.0,
            5 => 1e30,
            6 => -1e30,
            _ => v,
        })
    }

    proptest! {
        /// The lane-parallel kernel is the scalar reference bit for bit:
        /// every projection, hence every signature and every probe, in
        /// the same order — including lane counts that are not a multiple
        /// of the 8-wide `axpy` unroll.
        #[test]
        fn lane_kernel_equals_scalar_reference(
            dim in 1usize..=40,
            bands in 1usize..=9,
            bits in 1usize..=24,
            seed in 0u64..1_000,
            probes in 0usize..=24,
            pool in proptest::collection::vec(coord(), 40),
        ) {
            let h = Hyperplanes::generate(dim, bands, bits, seed);
            let x = &pool[..dim];
            let mut acc = vec![f32::NAN; 3];
            h.projections(x, &mut acc);
            prop_assert_eq!(acc.len(), bands * bits);
            for (lane, got) in acc.iter().enumerate() {
                let want = h.project(lane, x);
                prop_assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "lane {lane}: {got:e} vs {want:e}"
                );
            }
            prop_assert_eq!(probed(&h, x, probes), h.probe_signatures_ref(x, probes));
            prop_assert_eq!(probed(&h, x, 0), h.probe_signatures_ref(x, 0));
        }
    }
}
