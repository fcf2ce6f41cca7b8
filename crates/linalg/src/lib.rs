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
//! * [`ops`] — dot / axpy / gemv / rank-1 update kernels.
//! * [`solve`] — Cholesky and Gauss–Jordan inversion for the `P₀` init.

#![forbid(unsafe_code)]

pub mod matrix;
pub mod ops;
pub mod scalar;
pub mod solve;

pub use matrix::Mat;
pub use scalar::Scalar;
