//! # seqge-core — sequentially-trainable graph embedding
//!
//! The paper's contribution: a skip-gram model whose training rule is the
//! OS-ELM recursive least-squares update instead of backpropagation, making
//! it *sequentially trainable* — new edges can be folded into the embedding
//! one at a time without catastrophic forgetting.
//!
//! Models (all implement [`EmbeddingModel`]):
//!
//! * [`skipgram::SkipGram`] — the original skip-gram with negative sampling
//!   trained by SGD (the paper's baseline, "Original").
//! * [`oselm::OsElmSkipGram`] — the proposed model, Algorithm 1: hidden
//!   activations come from the trainable output weights themselves
//!   (`H = μ·β[center]`), so the random input matrix of classic OS-ELM
//!   disappears and the model shrinks ~4× (Table 5).
//! * [`oselm::DataflowOsElm`] — Algorithm 2: the FPGA-friendly variant that
//!   freezes `P` and `β` per random walk and accumulates `ΔP`, `Δβ`,
//!   enabling the pipeline's dataflow optimization at a small accuracy cost
//!   on small graphs (Fig. 4). It is the f32 instantiation of
//!   [`oselm::DataflowKernel`], the one Algorithm 2 walk, whose Q8.24
//!   instantiation is `seqge-fpga`'s accelerator.
//! * [`oselm::AlphaOsElm`] — classic OS-ELM with a fixed random input matrix
//!   (the "alpha" baseline of Fig. 6).
//!
//! The walk→train driver lives in [`sequential`], once: the "all" scenario
//! (train the complete graph), the "seq" scenario (spanning-forest start +
//! one edge at a time, walking from both endpoints of each new edge —
//! §4.3.2), and the [`IncrementalTrainer`] the serving backends fold live
//! edge events through. Every model — including the fixed-point
//! `seqge_fpga::Accelerator` — is driven through the same loops.

#![forbid(unsafe_code)]

pub mod config;
pub mod dirty;
pub mod model;
pub mod model_size;
pub mod oselm;
pub mod persist;
pub mod sequential;
pub mod skipgram;

pub use config::{ModelConfig, NegativeMode, TrainConfig};
pub use dirty::DirtyRows;
pub use model::EmbeddingModel;
pub use oselm::{AlphaOsElm, DataflowOsElm, OsElmConfig, OsElmSkipGram, PVisibility};
pub use sequential::{
    full_corpus, train_all_pipelined, train_all_scenario, train_seq_scenario,
    train_stream_scenario, IncrementalTrainer, PipelinedOutcome, SeqOutcome,
};
pub use skipgram::SkipGram;
