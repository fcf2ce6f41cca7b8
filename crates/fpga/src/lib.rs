//! # seqge-fpga — simulator of the ZCU104 sequential-training accelerator
//!
//! The paper implements Algorithm 2 as a four-stage dataflow kernel on a
//! Xilinx Zynq UltraScale+ ZCU104 (XCZU7EV) at 200 MHz, with fixed-point
//! multiply-add lanes on DSP slices and per-walk weight tiles staged through
//! BRAM by a DMA engine. No FPGA is available in this environment, so this
//! crate reproduces the accelerator as a simulator with two faces
//! (substitution documented in DESIGN.md §1):
//!
//! * **Functional** — [`accelerator::Accelerator`] executes Algorithm 2 in
//!   Q8.24 fixed point with DSP-accumulator semantics (`seqge-fixed`), so
//!   accuracy experiments (Fig. 4) see the same quantization + deferred-
//!   update behaviour the hardware produces.
//! * **Performance** — [`timing`] prices a walk from `(dim, contexts,
//!   samples)` with one cycle-approximate model of the four-stage pipeline,
//!   its β-port traffic and its DMA, calibrated to the paper's Table 3 FPGA
//!   row; [`bram`] replays the kernel's β-column access stream through the
//!   on-chip weight tile (§3.2's DRAM↔BRAM traffic); [`resources`] is a
//!   component-level utilization estimator calibrated to Table 6.
//!
//! The CPU side of the paper's system (§3.2: random walks, negative
//! pre-sampling, one walk at a time into the fabric) is `seqge-core`'s
//! scenario drivers — [`Accelerator`] is an `EmbeddingModel` like the float
//! models, so `train_all_scenario(&g, &mut accel, ..)` *is* the host driver
//! and `accel.stats` its report: walks, modeled cycles, saturations and
//! guarded contexts.

// Every other crate is `#![forbid(unsafe_code)]`; this one has one block, the
// CPUID-guarded call into the AVX2 instantiation in `accelerator.rs`.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod accelerator;
pub mod bram;
pub mod device;
pub mod energy;
pub mod explore;
pub mod resources;
pub mod timing;

pub use accelerator::{kernel_isa, AccelStats, Accelerator};
pub use device::{FpgaDevice, Utilization};
pub use resources::{estimate_resources, AcceleratorDesign, ResourceEstimate};
pub use timing::{cycles_to_millis, TimingModel, CLOCK_MHZ};
