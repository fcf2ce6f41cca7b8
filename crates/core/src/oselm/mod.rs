//! OS-ELM-based skip-gram models (the paper's proposal).
//!
//! * [`OsElmSkipGram`] — Algorithm 1: per-context recursive least-squares.
//! * [`DataflowKernel`] — Algorithm 2: per-walk deferred `ΔP`/`Δβ`
//!   accumulation, the form the FPGA pipeline executes, generic over its
//!   [`Datapath`]; [`DataflowOsElm`] is its float instantiation.
//! * [`AlphaOsElm`] — classic OS-ELM with a fixed random input matrix, the
//!   "alpha" baseline of Fig. 6.

mod alpha;
mod dataflow;
mod model;

pub use alpha::AlphaOsElm;
pub use dataflow::{DataflowKernel, DataflowOsElm, Datapath, Forget, PVisibility, F32};
pub use model::{OsElmConfig, OsElmSkipGram};
