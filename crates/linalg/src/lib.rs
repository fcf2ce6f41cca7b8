//! # seqge-linalg — small dense linear algebra for OS-ELM
//!
//! The OS-ELM recursive least-squares update works on a `d×d` matrix `P`
//! (d = embedding dimension, 32–96 in the paper) and `d`-vectors, while the
//! model weights are tall `N×d` matrices touched a few rows/columns at a
//! time. General-purpose BLAS is overkill for that shape profile; this crate
//! provides exactly the kernels the training loops need, generic over
//! [`Scalar`] (`f32` for the proposed model, `f64` for the baseline, matching
//! the paper's memory accounting).
//!
//! * [`Mat`] — row-major dense matrix.
//! * [`NormedMat`] — an `f32` matrix carrying each row's Euclidean norm,
//!   the serving view a cosine read takes its norms from.
//! * [`ops`] — dot / axpy / gemv / rank-1 update kernels.
//! * [`solve`] — Cholesky inversion for the `P₀` init.

// One function holds `unsafe`: `ops::prefetch_row`, a cache hint with no
// safe form on stable Rust.
#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod matrix;
pub mod normed;
pub mod ops;
pub mod scalar;
pub mod solve;

pub use matrix::Mat;
pub use normed::NormedMat;
pub use scalar::Scalar;
