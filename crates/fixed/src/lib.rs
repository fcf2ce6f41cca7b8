//! # seqge-fixed — Q-format fixed-point arithmetic
//!
//! The paper's accelerator parallelizes "fixed-point multiply-add operations"
//! on the FPGA's DSP slices (§4.5). This crate models that datapath bit-for-
//! bit on the host so the simulator's *functional* results carry the same
//! quantization behaviour the hardware would produce:
//!
//! * [`Fx`] — a 32-bit signed fixed-point value with a const-generic number
//!   of fraction bits (`Fx<24>` = Q8.24, the default datapath format;
//!   `Fx<16>` = Q16.16).
//! * Saturating add/sub/neg, round-to-nearest multiply (`AP_RND`) with an
//!   i64 intermediate (exactly a DSP48 multiply feeding a wide accumulator),
//!   saturating divide.
//! * [`ops`] — dot products that accumulate in 64 bits before one final
//!   quantization, matching the accelerator's MAC trees, and the
//!   per-element quantized multiply-add of its write-back lanes: the scalar
//!   saturating reference plus range-gated kernels that compute the same
//!   bits without the chain and the clamp.
//! * [`vector`] — the `P`-matrix kernels built on them (scale, rank-1
//!   downdate).
//! * [`error`] — quantization-error measurement used by the format-sweep
//!   ablation bench.

#![forbid(unsafe_code)]

pub mod error;
pub mod ops;
pub mod q;
pub mod vector;

pub use q::{Fx, Q16_16, Q8_24};
