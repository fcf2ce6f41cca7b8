//! Signed random-hyperplane hashing: configuration, plane generation, and
//! the packed code of a row.
//!
//! A code bit is `sign(⟨plane, x⟩)`, so two vectors disagree in a bit with
//! probability `θ/π` for angle `θ`: the Hamming distance between two codes
//! estimates the angle between their rows. The serving layer re-ranks
//! candidates exactly under the requested operator (`dot`, `cosine`,
//! `neg_l2`), so the hash family only shapes the candidate pool; the
//! recall guarantee is strongest for cosine-like operators and degrades
//! gracefully for norm-sensitive ones.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seqge_linalg::{ops, Mat};

/// Hyperplanes per index: one code bit each.
pub const LANES: usize = 128;

/// A row's signs under the [`LANES`] hyperplanes, lane `l` at bit `l % 64`
/// of word `l / 64`.
pub(crate) type Code = [u64; 2];

/// Bits in which two codes differ.
pub(crate) fn hamming(a: &Code, b: &Code) -> u32 {
    (a[0] ^ b[0]).count_ones() + (a[1] ^ b[1]).count_ones()
}

/// Index configuration. `Default` matches the serving defaults documented
/// in DESIGN.md ("Sublinear reads").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnnConfig {
    /// Seed for the hyperplane matrix (deterministic index layout).
    pub seed: u64,
}

impl Default for AnnConfig {
    fn default() -> Self {
        AnnConfig { seed: 0xA55_5EED }
    }
}

/// The [`LANES`] random hyperplanes, generated once per index geometry and
/// shared (`Arc`) by every [`crate::AnnIndex`] published for it. Stored
/// transposed: row `i` holds coordinate `i` of every plane, one *lane* per
/// plane, so all projections of a vector accumulate side by side — the
/// accelerator's layout of independent outputs across MAC lanes, each
/// summed in a fixed order.
#[derive(Debug)]
pub(crate) struct Hyperplanes {
    lanes: Mat<f32>,
    /// `1 / ‖plane‖` per lane, for [`Hyperplanes::margin`].
    inv_norms: Vec<f64>,
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
    /// Draws [`LANES`] planes of dimension `dim` from `seed` (coordinates
    /// uniform in `[-1, 1)`, drawn plane by plane; any symmetric coordinate
    /// distribution yields the sign-collision property).
    pub(crate) fn generate(dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let planes = Mat::from_fn(LANES, dim, |_, _| rng.gen_range(-1.0f64..1.0) as f32);
        let inv_norms = (0..planes.rows()).map(|lane| 1.0 / norm(planes.row(lane))).collect();
        Hyperplanes { lanes: planes.transpose(), inv_norms }
    }

    /// Embedding dimensionality the planes were drawn for.
    pub(crate) fn dim(&self) -> usize {
        self.lanes.rows()
    }

    /// The one projection kernel: `acc[lane] = ⟨plane_lane, x⟩` for every
    /// lane at once. Each lane still sums `0.0 + p₀x₀ + p₁x₁ + …` in index
    /// order with a separate multiply and add (`ops::axpy` is elementwise,
    /// IEEE multiplication commutes bitwise), so every projection is
    /// bit-identical to the one-plane-at-a-time dot product; only the loop
    /// nest is transposed, which turns [`LANES`] dependent chains into one
    /// vectorizable sweep per coordinate.
    fn projections(&self, x: &[f32], acc: &mut Vec<f32>) {
        debug_assert_eq!(x.len(), self.dim());
        acc.clear();
        acc.resize(LANES, 0.0);
        for (i, &xi) in x[..self.dim()].iter().enumerate() {
            ops::axpy(xi, self.lanes.row(i), acc);
        }
    }

    /// The code of `x` (`dim()` coordinates). `acc` is projection scratch a
    /// caller hashing many vectors can reuse.
    pub(crate) fn code(&self, x: &[f32], acc: &mut Vec<f32>) -> Code {
        self.projections(x, acc);
        // Branch-free sign packing: NaN and negatives read 0, -0.0 reads 1.
        let mut code = [0u64; 2];
        for (lane, &p) in acc.iter().enumerate() {
            code[lane / 64] |= u64::from(p >= 0.0) << (lane % 64);
        }
        code
    }

    /// [`Hyperplanes::code`] of `x` and `x`'s margin budget.
    pub(crate) fn hash(&self, x: &[f32], acc: &mut Vec<f32>) -> (Code, f64) {
        let code = self.code(x, acc);
        (code, self.margin(x, acc))
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

    /// The margin budget of row `x` with projections `acc`: every row `y`
    /// that [`Hyperplanes::movement`] puts less than this away from `x`
    /// gets the same code as `x`, so the builder need not project it.
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

        /// The code of `x` bit by bit over `project`.
        fn code_ref(&self, x: &[f32]) -> Code {
            let mut code = [0u64; 2];
            for lane in 0..LANES {
                if self.project(lane, x) >= 0.0 {
                    code[lane / 64] |= 1 << (lane % 64);
                }
            }
            code
        }
    }

    fn code(h: &Hyperplanes, x: &[f32]) -> Code {
        h.code(x, &mut Vec::new())
    }

    #[test]
    fn signatures_are_deterministic_and_seeded() {
        let h = Hyperplanes::generate(8, 7);
        let x: Vec<f32> = (0..8).map(|i| i as f32 / 3.0 - 1.0).collect();
        let a = code(&h, &x);
        assert_eq!(a, code(&h, &x));
        // Same seed, same planes; another seed, other planes.
        assert_eq!(a, code(&Hyperplanes::generate(8, 7), &x));
        assert_ne!(a, code(&Hyperplanes::generate(8, 8), &x));
    }

    #[test]
    fn opposite_vectors_get_complementary_signatures() {
        let h = Hyperplanes::generate(16, 3);
        let x: Vec<f32> = (0..16).map(|i| (i as f32).sin()).collect();
        let neg: Vec<f32> = x.iter().map(|&v| -v).collect();
        // A plane projecting exactly to 0.0 would put both on the same
        // side; with generic inputs every bit flips.
        assert_eq!(hamming(&code(&h, &x), &code(&h, &neg)), LANES as u32);
        assert_eq!(hamming(&code(&h, &x), &code(&h, &x)), 0);
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
        /// every projection, hence every code bit.
        #[test]
        fn lane_kernel_equals_scalar_reference(
            dim in 1usize..=40,
            seed in 0u64..1_000,
            pool in proptest::collection::vec(coord(), 40),
        ) {
            let h = Hyperplanes::generate(dim, seed);
            let x = &pool[..dim];
            let mut acc = vec![f32::NAN; 3];
            h.projections(x, &mut acc);
            prop_assert_eq!(acc.len(), LANES);
            for (lane, got) in acc.iter().enumerate() {
                let want = h.project(lane, x);
                prop_assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "lane {lane}: {got:e} vs {want:e}"
                );
            }
            prop_assert_eq!(code(&h, x), h.code_ref(x));
        }
    }
}
