//! The experiment table: one row per paper artifact.
//!
//! Each artifact is a module exposing `fn run(&Setting) -> Report` — no
//! argument parsing, no printing, no file I/O — and [`EXPERIMENTS`] is the
//! only place that says at what size each one is *recorded*. `repro`
//! (`crate::repro`) is everything that is done with a row.

pub mod ablate_drift;
pub mod ablate_negshare;
pub mod ablate_regularizer;
pub mod energy;
pub mod explore;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod sweep_hyperparams;
pub mod table1;
pub mod table5;
pub mod table6;
pub mod walk_time;

use crate::prep::PreparedGraph;
use crate::report::Report;
use seqge_core::model::EmbeddingModel;
use seqge_eval::{evaluate_embedding, EvalConfig};
use seqge_graph::Dataset::{self, AmazonComputers, AmazonPhoto, Cora};
use seqge_graph::Graph;
use seqge_sampling::Rng64;

/// The seed every recorded number is drawn under.
pub const SEED: u64 = 42;

/// RLS forgetting factor of the proposed model wherever edges stream in
/// (Fig. 5 — both scenarios, so the comparison is fair — Fig. 7, the drift
/// ablation). Plain OS-ELM (λ = 1) loses its learning gain over a long seq
/// phase — DESIGN.md §1 "Faithfulness notes".
const SEQ_FORGETTING: f32 = 0.9995;

/// The size an experiment runs at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Setting {
    /// Dataset / edge-stream scale in (0, 1]; 1.0 is the paper's protocol.
    pub scale: f64,
    /// Embedding dimensions swept.
    pub dims: &'static [usize],
    /// Datasets run (empty: the experiment synthesizes its own graph).
    pub datasets: &'static [Dataset],
}

impl Setting {
    /// The dimension of a single-dimension experiment.
    pub fn dim(&self) -> usize {
        let [dim] = *self.dims else { panic!("recorded at exactly one dimension") };
        dim
    }

    /// The dataset of a single-dataset experiment.
    pub fn dataset(&self) -> Dataset {
        let [dataset] = *self.datasets else { panic!("recorded on exactly one dataset") };
        dataset
    }
}

/// What recomputing an experiment at its recorded setting costs: `Seconds`
/// even in a debug build (tier-1 recomputes these), or `Minutes`
/// (`repro check --all`, CI).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cost {
    /// Analytic models and graph statistics.
    Seconds,
    /// Anything that trains or times a model.
    Minutes,
}

/// One paper artifact.
pub struct Experiment {
    /// File stem under `results/` and marker name in EXPERIMENTS.md.
    pub name: &'static str,
    /// Banner line.
    pub title: &'static str,
    /// The setting `results/<name>.*` is recorded at.
    pub setting: Setting,
    /// Which gate recomputes it.
    pub cost: Cost,
    /// The experiment itself.
    pub run: fn(&Setting) -> Report,
}

const ALL: &[Dataset] = &Dataset::ALL;
const PAPER_DIMS: &[usize] = &[32, 64, 96];

/// Every artifact, in the order `repro run all` executes them. The scales
/// fit a 2-vCPU box (≈ 5 min for everything); `--scale 1.0` is the paper's
/// protocol.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1",
        title: "Table 1 (datasets) & Table 2 (hyper-parameters)",
        setting: Setting { scale: 1.0, dims: &[32], datasets: ALL },
        cost: Cost::Seconds,
        run: table1::run,
    },
    Experiment {
        name: "table5",
        title: "Table 5 — model sizes (decimal MB)",
        setting: Setting { scale: 1.0, dims: PAPER_DIMS, datasets: ALL },
        cost: Cost::Seconds,
        run: table5::run,
    },
    Experiment {
        name: "table6",
        title: "Table 6 — resource utilization on XCZU7EV",
        setting: Setting { scale: 1.0, dims: PAPER_DIMS, datasets: &[] },
        cost: Cost::Seconds,
        run: table6::run,
    },
    Experiment {
        name: "energy",
        title: "Energy per trained walk (future-work extension)",
        setting: Setting { scale: 1.0, dims: PAPER_DIMS, datasets: &[] },
        cost: Cost::Seconds,
        run: energy::run,
    },
    Experiment {
        name: "explore",
        title: "Design-space exploration (what a bigger FPGA buys)",
        setting: Setting { scale: 1.0, dims: PAPER_DIMS, datasets: &[] },
        cost: Cost::Seconds,
        run: explore::run,
    },
    Experiment {
        name: "fig6",
        title: "Figure 6 — scale factor mu sweep (+ alpha baseline)",
        setting: Setting { scale: 0.2, dims: &[32], datasets: &[Cora, AmazonPhoto] },
        cost: Cost::Minutes,
        run: fig6::run,
    },
    Experiment {
        name: "fig4",
        title: "Figure 4 — dataflow optimization (CPU Alg.1 vs FPGA Alg.2/fixed-point)",
        setting: Setting { scale: 0.15, dims: &[32, 64], datasets: ALL },
        cost: Cost::Minutes,
        run: fig4::run,
    },
    Experiment {
        name: "ablate_negshare",
        title: "Ablation — shared-per-walk vs fresh-per-positive negatives",
        setting: Setting { scale: 0.2, dims: &[32], datasets: &[AmazonComputers] },
        cost: Cost::Minutes,
        run: ablate_negshare::run,
    },
    Experiment {
        name: "ablate_regularizer",
        title: "Ablation — update denominator & ΔP visibility",
        setting: Setting { scale: 0.2, dims: &[32], datasets: &[Cora] },
        cost: Cost::Minutes,
        run: ablate_regularizer::run,
    },
    Experiment {
        name: "ablate_drift",
        title: "Ablation — arrival order × forgetting factor (synthetic SBM)",
        setting: Setting { scale: 0.4, dims: &[32], datasets: &[] },
        cost: Cost::Minutes,
        run: ablate_drift::run,
    },
    Experiment {
        name: "sweep_hyperparams",
        title: "Hyper-parameter sweep — accuracy vs modeled FPGA cost",
        setting: Setting { scale: 0.2, dims: &[32], datasets: &[Cora] },
        cost: Cost::Minutes,
        run: sweep_hyperparams::run,
    },
    Experiment {
        name: "fig7",
        title: "Figure 7 — sampling-table update frequency in the seq scenario",
        setting: Setting { scale: 0.08, dims: &[32], datasets: &[Cora, AmazonPhoto] },
        cost: Cost::Minutes,
        run: fig7::run,
    },
    Experiment {
        name: "fig5",
        title: "Figure 5 — sequential training (Original vs Proposed × all vs seq)",
        setting: Setting { scale: 0.12, dims: &[32], datasets: ALL },
        cost: Cost::Minutes,
        run: fig5::run,
    },
    Experiment {
        name: "table3",
        title: "Table 3 — training time of a single random walk (embedded CPU vs FPGA)",
        setting: Setting { scale: 1.0, dims: PAPER_DIMS, datasets: &[Cora] },
        cost: Cost::Minutes,
        run: walk_time::table3,
    },
    Experiment {
        name: "table4",
        title: "Table 4 — training time of a single random walk (desktop CPU vs FPGA)",
        setting: Setting { scale: 1.0, dims: PAPER_DIMS, datasets: &[Cora] },
        cost: Cost::Minutes,
        run: walk_time::table4,
    },
];

/// Micro-F1 of `model`'s embedding on `g`'s labels (3 stratified 90/10
/// splits, one-vs-rest logistic regression).
fn micro_f1<M: EmbeddingModel>(g: &Graph, model: &M) -> f64 {
    let labels = g.labels().expect("labelled dataset");
    let cfg = EvalConfig::default();
    evaluate_embedding(&model.embedding(), labels, g.num_classes(), &cfg, SEED).micro_f1
}

/// Trains `model` on every prepared walk, in order, under a fresh [`SEED`]
/// stream.
fn train_prepared<M: EmbeddingModel>(model: &mut M, prep: &PreparedGraph) {
    let mut rng = Rng64::seed_from_u64(SEED);
    for walk in &prep.walks {
        model.train_walk(walk, &prep.table, &mut rng);
    }
}
