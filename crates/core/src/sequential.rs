//! Scenario drivers: "all" (batch) and "seq" (dynamic-graph) training.
//!
//! §4.3.2 defines the two evaluation scenarios:
//!
//! * **all** — "an entire graph is trained assuming that all the edges exist
//!   from the beginning": `r` walks from every node on the complete graph.
//! * **seq** — the initial graph is a spanning forest with the same
//!   connected components as the full graph; the removed edges are added
//!   back one at a time, and "every time the removed edge is added, the
//!   random walk and training of node2vec are executed … the random walk
//!   starts from both the ends of an added edge."
//!
//! The paper's system (§3.2) is one loop — the CPU draws a walk and
//! pre-samples its negatives, the accelerator trains it — and this module
//! spells it out once per schedule: [`full_corpus`] + train (serial "all"),
//! [`train_all_pipelined`] (generation overlapped with training), and
//! [`IncrementalTrainer`] (a corpus pass for bootstrap/refresh, a per-edge
//! step for ingest). Any [`EmbeddingModel`] plugs in, the fixed-point
//! accelerator included.
//!
//! Like the paper's host, the corpus pass hands each walk to the model as it
//! is drawn and keeps none: it streams the walks twice from one lane seed,
//! first for the negative table's appearance counts, then to train them, so
//! a boot or refresh holds O(n) counts rather than O(n·r·l) walk nodes.

use crate::config::TrainConfig;
use crate::model::EmbeddingModel;
use seqge_graph::{spanning_forest, EdgeEvent, EdgeStream, Graph, GraphError, NodeId};
use seqge_sampling::{
    generate_corpus, stream_walks, NegativeTable, Node2VecParams, PipelineConfig, Rng64,
    StepStrategy, UpdatePolicy, WalkCorpus, Walker,
};
use std::time::{Duration, Instant};

/// Telemetry from a sequential training run.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SeqOutcome {
    /// Edges replayed into the graph.
    pub edges_inserted: usize,
    /// Walks trained (2 per inserted edge, plus the initial forest pass).
    pub walks_trained: usize,
    /// Negative-table policy ticks and explicit rebuilds performed (a tick
    /// counts whether it appended to the table's log or ran the full build).
    pub table_rebuilds: u64,
}

/// The "all"-protocol prologue (§3.2's CPU side, done up front): `r` walks
/// from every node of `g` on one RNG stream, and the every-edge negative
/// table built from their appearance counts. Returns the corpus, the walks in
/// schedule order, the table, and the RNG positioned after the last walk —
/// negative draws continue the same stream.
pub fn full_corpus(
    g: &Graph,
    cfg: &TrainConfig,
    seed: u64,
) -> (WalkCorpus, Vec<Vec<NodeId>>, NegativeTable, Rng64) {
    let mut walker = Walker::new(cfg.walk);
    let mut rng = Rng64::seed_from_u64(seed);
    let (corpus, walks) = generate_corpus(&g.to_csr(), &mut walker, &mut rng);
    let mut table = NegativeTable::new(UpdatePolicy::every_edge());
    table.rebuild(&corpus);
    (corpus, walks, table, rng)
}

/// Trains `model` on the complete graph (the "all" scenario): generates the
/// full walk corpus (`r` walks per node), builds the negative table from its
/// frequencies, and trains every walk once.
pub fn train_all_scenario<M: EmbeddingModel>(
    g: &Graph,
    model: &mut M,
    cfg: &TrainConfig,
    seed: u64,
) {
    cfg.validate().expect("invalid train config");
    assert_eq!(g.num_nodes(), model.num_nodes(), "graph/model node count mismatch");
    let (_, walks, table, mut rng) = full_corpus(g, cfg, seed);
    if !table.is_ready() {
        return; // edgeless graph: nothing to train
    }
    for walk in &walks {
        model.train_walk(walk, &table, &mut rng);
    }
}

/// Telemetry from a pipelined "all"-scenario run (see
/// [`train_all_pipelined`]).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PipelinedOutcome {
    /// Walker threads used.
    pub threads: usize,
    /// Walks delivered by the pipeline (including skipped isolated-node
    /// walks).
    pub walks_generated: u64,
    /// Walks actually trained.
    pub walks_trained: usize,
    /// Time walker threads spent inside the walk kernel, summed over
    /// threads, in ms.
    pub gen_busy_ms: f64,
    /// Time the consumer spent inside `train_walk`, in ms.
    pub train_busy_ms: f64,
    /// End-to-end wall-clock time, in ms.
    pub wall_ms: f64,
}

impl PipelinedOutcome {
    /// How much of the ideal serial time the overlap hid:
    /// `1 − wall / (gen_busy / threads + train_busy)`. 0 means no overlap
    /// (or overheads ate it); the upper bound for a two-stage pipeline is
    /// `min(gen, train) / (gen + train)` ≤ 0.5.
    pub fn overlap_ratio(&self) -> f64 {
        let serial = self.gen_busy_ms / self.threads.max(1) as f64 + self.train_busy_ms;
        if serial <= 0.0 {
            return 0.0;
        }
        (1.0 - self.wall_ms / serial).max(0.0)
    }
}

/// The RNG stream index reserved for the consumer's negative sampling —
/// walk streams use indices `0..n·r`, far from `u64::MAX`.
const TRAIN_STREAM: u64 = u64::MAX;

/// Pipelined counterpart of [`train_all_scenario`]: walker threads generate
/// the corpus while this thread trains it, overlapping the two stages.
///
/// Differences from the serial driver, both deterministic per seed and
/// independent of `threads`:
///
/// * each walk has its own RNG stream (see
///   [`seqge_sampling::pipeline`]), so the corpus differs from
///   `train_all_scenario`'s single-stream corpus at equal seeds;
/// * the negative table is built from the **first round** of walks (one per
///   node) instead of the full corpus, so training can start after round 0
///   rather than after all `r` rounds — the table still covers every
///   non-isolated node, but its frequencies are estimated from `1/r` of the
///   corpus.
pub fn train_all_pipelined<M: EmbeddingModel>(
    g: &Graph,
    model: &mut M,
    cfg: &TrainConfig,
    seed: u64,
    threads: usize,
) -> PipelinedOutcome {
    cfg.validate().expect("invalid train config");
    assert_eq!(g.num_nodes(), model.num_nodes(), "graph/model node count mismatch");
    let wall_start = Instant::now();
    let csr = g.to_csr();
    let n = g.num_nodes() as u64;

    let mut corpus = WalkCorpus::new(g.num_nodes());
    let mut table = NegativeTable::new(UpdatePolicy::every_edge());
    let mut pending: Vec<Vec<NodeId>> = Vec::new();
    let mut rng = Rng64::for_stream(seed, TRAIN_STREAM);
    let mut walks_trained = 0usize;
    let mut train_busy = Duration::ZERO;

    let stats = stream_walks(
        &csr,
        cfg.walk,
        StepStrategy::Cumulative,
        seed,
        PipelineConfig::with_threads(threads),
        |index, walk| {
            if walk.len() >= 2 {
                corpus.record(&walk);
                pending.push(walk);
            }
            // Round 0 done: freeze the table and start training. Everything
            // buffered so far drains now; later walks train on arrival. The
            // stream always reaches this index (r ≥ 1), and a non-empty
            // buffer means a non-empty corpus, so no walk is left untrained.
            if index + 1 == n && !pending.is_empty() {
                table.rebuild(&corpus);
            }
            if table.is_ready() {
                let t0 = Instant::now();
                let burst = pending.len();
                for w in pending.drain(..) {
                    model.train_walk(&w, &table, &mut rng);
                }
                walks_trained += burst;
                seqge_obs::static_counter!("seqge_core_walks_trained_total").add(burst as u64);
                train_busy += t0.elapsed();
            }
        },
    );
    debug_assert!(pending.is_empty(), "round 0 ends inside the stream");

    PipelinedOutcome {
        threads: stats.threads,
        walks_generated: stats.walks_generated,
        walks_trained,
        gen_busy_ms: stats.gen_busy.as_secs_f64() * 1e3,
        train_busy_ms: train_busy.as_secs_f64() * 1e3,
        wall_ms: wall_start.elapsed().as_secs_f64() * 1e3,
    }
}

/// Incremental training driver for live dynamic graphs.
///
/// Owns everything the per-edge training loop needs besides the graph and
/// the model — the walker, the RNG, the walk corpus, and the negative
/// table — so edge events can be folded into the model *one at a time*
/// over an arbitrarily long lifetime. [`train_seq_scenario`] and
/// [`train_stream_scenario`] are thin replays over this driver; the
/// `seqge-serve` daemon feeds it from a live ingestion log instead of a
/// prerecorded stream.
pub struct IncrementalTrainer {
    walker: Walker,
    params: Node2VecParams,
    rng: Rng64,
    corpus: WalkCorpus,
    table: NegativeTable,
    outcome: SeqOutcome,
    edges_removed: usize,
    buf: Vec<NodeId>,
}

impl IncrementalTrainer {
    /// Creates a driver for graphs over `num_nodes` nodes. `policy` is the
    /// negative-table rebuild cadence (Fig. 7's knob); `seed` fixes the
    /// walk/negative RNG stream.
    pub fn new(num_nodes: usize, cfg: &TrainConfig, policy: UpdatePolicy, seed: u64) -> Self {
        cfg.validate().expect("invalid train config");
        IncrementalTrainer {
            walker: Walker::new(cfg.walk),
            params: cfg.walk,
            rng: Rng64::seed_from_u64(seed),
            corpus: WalkCorpus::new(num_nodes),
            table: NegativeTable::new(policy),
            outcome: SeqOutcome { edges_inserted: 0, walks_trained: 0, table_rebuilds: 0 },
            edges_removed: 0,
            buf: Vec::with_capacity(cfg.walk.walk_length),
        }
    }

    /// One "all"-protocol pass over the current graph (`r` walks per node),
    /// as two passes over one regenerable walk stream, storing no walk:
    ///
    /// 1. [`stream_walks`] from a lane base drawn once from the sequential
    ///    RNG records the walks' appearance counts into a fresh corpus, and
    ///    the negative table is rebuilt from it — the full corpus's counts;
    /// 2. [`stream_walks`] from the same lane base yields the same walks in
    ///    the same index order (each walk has its own RNG lane), and each is
    ///    trained as it arrives, on the sequential RNG.
    ///
    /// Walk generation fans out across cores in both passes; the OS-ELM
    /// update loop stays sequential, and the result is thread-count
    /// independent. The main stream advances by the one lane-base draw plus
    /// the training draws, so consecutive passes explore different corpora.
    /// Memory is the corpus counts and the table plus the pipeline's
    /// `threads × queue_depth` in-flight walks, never the `n·r` walks. The
    /// `seqge_pipeline_*` series book each walk once per pass, so twice.
    /// Returns the walks trained.
    fn corpus_pass<M: EmbeddingModel>(&mut self, g: &Graph, model: &mut M) -> usize {
        assert_eq!(g.num_nodes(), model.num_nodes(), "graph/model node count mismatch");
        let csr = g.to_csr();
        let lane_seed = self.rng.next_u64();
        let walks = |on_walk: &mut dyn FnMut(Vec<NodeId>)| {
            let (strategy, config) = (StepStrategy::Cumulative, PipelineConfig::default());
            stream_walks(&csr, self.params, strategy, lane_seed, config, |_, walk| {
                if walk.len() >= 2 {
                    on_walk(walk);
                }
            });
        };
        self.corpus = WalkCorpus::new(g.num_nodes());
        walks(&mut |walk| self.corpus.record(&walk));
        self.table.rebuild(&self.corpus);
        if self.corpus.num_walks() == 0 {
            return 0; // edgeless graph: nothing to train
        }
        walks(&mut |walk| model.train_walk(&walk, &self.table, &mut self.rng));
        let trained = self.corpus.num_walks();
        self.outcome.walks_trained += trained;
        seqge_obs::static_counter!("seqge_core_walks_trained_total").add(trained as u64);
        trained
    }

    /// Trains the start-up pass on the initial graph ("only a fraction of
    /// edges is trained first" — the spanning forest in the paper's
    /// protocol, the boot graph in a server).
    pub fn bootstrap<M: EmbeddingModel>(&mut self, g: &Graph, model: &mut M) {
        let _span = seqge_obs::span!("seqge_core_bootstrap_ns");
        self.corpus_pass(g, model);
    }

    /// Applies one edge event to `g` and folds it into `model`: mutate the
    /// graph, restart a random walk from both endpoints (§4.3.2), train each
    /// walk, and notify the negative table. Returns the number of walks
    /// trained, or the graph's rejection (duplicate add, missing remove,
    /// out-of-range node) with the graph, corpus, and model untouched.
    pub fn ingest<M: EmbeddingModel>(
        &mut self,
        g: &mut Graph,
        event: EdgeEvent,
        model: &mut M,
    ) -> Result<usize, GraphError> {
        event.apply(g)?;
        let _span = seqge_obs::span!("seqge_core_ingest_ns");
        match event {
            EdgeEvent::Add(..) => self.outcome.edges_inserted += 1,
            EdgeEvent::Remove(..) => self.edges_removed += 1,
        }
        let (u, v) = event.endpoints();
        let mut trained = 0usize;
        for start in [u, v] {
            self.walker.walk_into(&*g, start, &mut self.rng, &mut self.buf);
            if self.buf.len() < 2 {
                continue;
            }
            self.corpus.record(&self.buf);
            // Table must exist before the first training step (a forest of
            // isolated nodes can reach here with no table yet).
            if !self.table.is_ready() {
                self.table.rebuild(&self.corpus);
            }
            if self.table.is_ready() {
                model.train_walk(&self.buf, &self.table, &mut self.rng);
                trained += 1;
            }
        }
        self.outcome.walks_trained += trained;
        seqge_obs::static_counter!("seqge_core_walks_trained_total").add(trained as u64);
        self.table.on_edge_inserted(&self.corpus);
        Ok(trained)
    }

    /// Resamples the walk corpus from scratch over the current graph and
    /// trains the fresh walks — the "resample" arm of a serving update
    /// policy. Per-edge walks only ever *add* appearance counts, so after
    /// many removals (or heavy drift) the table frequencies go stale; a
    /// refresh replaces them wholesale. Returns the walks trained.
    pub fn refresh<M: EmbeddingModel>(&mut self, g: &Graph, model: &mut M) -> usize {
        let _span = seqge_obs::span!("seqge_core_refresh_ns");
        self.corpus_pass(g, model)
    }

    /// Telemetry so far (the `table_rebuilds` field is kept current).
    pub fn outcome(&self) -> SeqOutcome {
        SeqOutcome { table_rebuilds: self.table.rebuild_count(), ..self.outcome.clone() }
    }

    /// Edges retracted so far (not part of [`SeqOutcome`], whose shape the
    /// experiment harness serializes).
    pub fn edges_removed(&self) -> usize {
        self.edges_removed
    }
}

/// Trains `model` sequentially (the "seq" scenario). Returns the final graph
/// (forest + replayed edges) and run telemetry.
///
/// * `policy` — negative-table rebuild cadence (Fig. 7's variable).
/// * `edge_fraction` — fraction of removed edges to replay (1.0 = the full
///   paper protocol; smaller values are for CI-scale runs and leave the
///   final graph sparser than the original).
pub fn train_seq_scenario<M: EmbeddingModel>(
    full: &Graph,
    model: &mut M,
    cfg: &TrainConfig,
    policy: UpdatePolicy,
    seed: u64,
    edge_fraction: f64,
) -> (Graph, SeqOutcome) {
    cfg.validate().expect("invalid train config");
    assert_eq!(full.num_nodes(), model.num_nodes(), "graph/model node count mismatch");
    let split = spanning_forest(full);
    let mut g = split.initial_graph(full);
    let stream = EdgeStream::from_forest_split(&split, seed ^ 0xED6E).subsample(edge_fraction);

    // Initial pass: train the forest with the "all" protocol ("only a
    // fraction of edges is trained first"), then replay the stream.
    let mut trainer = IncrementalTrainer::new(full.num_nodes(), cfg, policy, seed);
    trainer.bootstrap(&g, model);
    for &(u, v) in stream.edges() {
        trainer
            .ingest(&mut g, EdgeEvent::Add(u, v), model)
            .expect("stream edges are insertable exactly once");
    }
    (g, trainer.outcome())
}

/// Trains `model` on an explicit edge-arrival stream starting from an empty
/// graph over `num_nodes` nodes — the drift scenario driven by
/// [`seqge_graph::generators::TimestampedGraph`] schedules, where edge order
/// is bursty per community instead of uniformly shuffled. Returns the built
/// graph and telemetry.
pub fn train_stream_scenario<M: EmbeddingModel>(
    num_nodes: usize,
    edges: &[(NodeId, NodeId)],
    model: &mut M,
    cfg: &TrainConfig,
    policy: UpdatePolicy,
    seed: u64,
) -> (Graph, SeqOutcome) {
    cfg.validate().expect("invalid train config");
    assert_eq!(num_nodes, model.num_nodes(), "graph/model node count mismatch");
    let mut g = Graph::with_nodes(num_nodes);
    let mut trainer = IncrementalTrainer::new(num_nodes, cfg, policy, seed);
    for &(u, v) in edges {
        trainer
            .ingest(&mut g, EdgeEvent::Add(u, v), model)
            .expect("stream edges are insertable exactly once");
    }
    (g, trainer.outcome())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModelConfig, NegativeMode};
    use crate::oselm::{OsElmConfig, OsElmSkipGram};
    use crate::skipgram::SkipGram;
    use seqge_graph::generators::classic::{erdos_renyi, ring};
    use seqge_sampling::Node2VecParams;

    fn small_cfg(dim: usize) -> TrainConfig {
        TrainConfig {
            walk: Node2VecParams { walk_length: 12, walks_per_node: 2, ..Default::default() },
            model: ModelConfig {
                dim,
                window: 4,
                negative_samples: 3,
                negative_mode: NegativeMode::PerPosition,
                seed: 5,
            },
        }
    }

    fn oselm_cfg(dim: usize) -> OsElmConfig {
        OsElmConfig {
            model: small_cfg(dim).model,
            mu: 0.01,
            p0_scale: 10.0,
            regularized: true,
            forgetting: 1.0,
        }
    }

    #[test]
    fn all_scenario_trains_every_node_region() {
        let g = erdos_renyi(40, 0.15, 3);
        let cfg = small_cfg(8);
        let mut model = OsElmSkipGram::new(40, oselm_cfg(8));
        let before = model.beta_t().clone();
        train_all_scenario(&g, &mut model, &cfg, 1);
        assert_ne!(model.beta_t(), &before, "training must move weights");
        assert!(model.beta_t().all_finite());
    }

    #[test]
    fn all_scenario_on_empty_graph_is_noop() {
        let g = Graph::with_nodes(10);
        let cfg = small_cfg(4);
        let mut model = SkipGram::new(10, cfg.model);
        let before = model.embedding();
        train_all_scenario(&g, &mut model, &cfg, 1);
        assert_eq!(model.embedding(), before);
    }

    /// Acceptance criterion: pipelined training is bit-identical across
    /// thread counts (walk values, table, and training order are all
    /// functions of the seed alone).
    #[test]
    fn pipelined_training_identical_across_thread_counts() {
        let g = erdos_renyi(50, 0.12, 13);
        let cfg = small_cfg(8);
        let mut reference = OsElmSkipGram::new(50, oselm_cfg(8));
        let ref_out = train_all_pipelined(&g, &mut reference, &cfg, 21, 1);
        for threads in [2, 4, 7] {
            let mut model = OsElmSkipGram::new(50, oselm_cfg(8));
            let out = train_all_pipelined(&g, &mut model, &cfg, 21, threads);
            assert_eq!(out.walks_trained, ref_out.walks_trained);
            assert_eq!(
                model.beta_t(),
                reference.beta_t(),
                "β differs between 1 and {threads} threads"
            );
        }
    }

    #[test]
    fn pipelined_training_moves_weights_and_reports_sane_telemetry() {
        let g = erdos_renyi(40, 0.15, 3);
        let cfg = small_cfg(8);
        let mut model = OsElmSkipGram::new(40, oselm_cfg(8));
        let before = model.beta_t().clone();
        let out = train_all_pipelined(&g, &mut model, &cfg, 1, 2);
        assert_ne!(model.beta_t(), &before);
        assert!(model.beta_t().all_finite());
        assert_eq!(out.walks_generated, 40 * 2);
        assert_eq!(out.walks_trained, 80, "no isolated nodes at p=0.15, n=40, seed 3");
        assert!(out.gen_busy_ms >= 0.0 && out.train_busy_ms > 0.0 && out.wall_ms > 0.0);
        assert!((0.0..=1.0).contains(&out.overlap_ratio()));
    }

    #[test]
    fn pipelined_on_empty_graph_is_noop() {
        let g = Graph::with_nodes(10);
        let cfg = small_cfg(4);
        let mut model = SkipGram::new(10, cfg.model);
        let before = model.embedding();
        let out = train_all_pipelined(&g, &mut model, &cfg, 1, 4);
        assert_eq!(model.embedding(), before);
        assert_eq!(out.walks_trained, 0);
    }

    #[test]
    fn pipelined_single_round_still_trains() {
        // r = 1: round 0 is the whole stream, so the table is built at the
        // very last walk — here a skipped one, from the isolated node 16 —
        // and everything drains in one burst.
        let mut g = Graph::with_nodes(17);
        for u in 0..16 {
            g.add_edge(u, (u + 1) % 16).unwrap();
        }
        let cfg = TrainConfig {
            walk: Node2VecParams { walk_length: 10, walks_per_node: 1, ..Default::default() },
            ..small_cfg(4)
        };
        let mut model = OsElmSkipGram::new(17, oselm_cfg(4));
        let out = train_all_pipelined(&g, &mut model, &cfg, 5, 3);
        assert_eq!(out.walks_trained, 16);
        assert!(model.beta_t().all_finite());
    }

    #[test]
    fn seq_scenario_replays_all_edges_at_fraction_one() {
        let full = erdos_renyi(30, 0.2, 7);
        let cfg = small_cfg(8);
        let mut model = OsElmSkipGram::new(30, oselm_cfg(8));
        let (g, outcome) =
            train_seq_scenario(&full, &mut model, &cfg, UpdatePolicy::every_edge(), 2, 1.0);
        assert_eq!(g.num_edges(), full.num_edges(), "fraction 1.0 restores the full graph");
        let forest_edges = spanning_forest(&full).forest_edges.len();
        assert_eq!(outcome.edges_inserted, full.num_edges() - forest_edges);
        assert!(outcome.walks_trained >= 2 * outcome.edges_inserted);
        assert!(outcome.table_rebuilds >= outcome.edges_inserted as u64);
    }

    #[test]
    fn seq_scenario_fraction_reduces_work() {
        let full = erdos_renyi(30, 0.25, 9);
        let cfg = small_cfg(8);
        let mut m1 = OsElmSkipGram::new(30, oselm_cfg(8));
        let mut m2 = OsElmSkipGram::new(30, oselm_cfg(8));
        let (_, full_run) =
            train_seq_scenario(&full, &mut m1, &cfg, UpdatePolicy::every_edge(), 2, 1.0);
        let (_, half_run) =
            train_seq_scenario(&full, &mut m2, &cfg, UpdatePolicy::every_edge(), 2, 0.5);
        assert!(half_run.edges_inserted < full_run.edges_inserted);
        assert!(half_run.edges_inserted > 0);
    }

    #[test]
    fn never_policy_builds_table_once() {
        let full = ring(20);
        let cfg = small_cfg(4);
        let mut model = OsElmSkipGram::new(20, oselm_cfg(4));
        let (_, outcome) = train_seq_scenario(&full, &mut model, &cfg, UpdatePolicy::Never, 3, 1.0);
        assert_eq!(outcome.table_rebuilds, 1);
    }

    #[test]
    fn seq_works_for_sgd_baseline_too() {
        let full = erdos_renyi(25, 0.2, 11);
        let cfg = small_cfg(8);
        let mut model = SkipGram::new(25, cfg.model);
        let (_, outcome) =
            train_seq_scenario(&full, &mut model, &cfg, UpdatePolicy::every_edge(), 4, 1.0);
        assert!(outcome.walks_trained > 0);
        assert!(model.w_in().all_finite());
    }

    #[test]
    fn incremental_trainer_matches_stream_scenario_bit_for_bit() {
        // train_stream_scenario is a thin replay over IncrementalTrainer;
        // driving the trainer by hand must reproduce it exactly.
        let edges: Vec<(u32, u32)> = (0..20u32).map(|i| (i, (i + 1) % 21)).collect();
        let cfg = small_cfg(8);
        let mut m1 = OsElmSkipGram::new(21, oselm_cfg(8));
        let (g1, out1) =
            train_stream_scenario(21, &edges, &mut m1, &cfg, UpdatePolicy::every_edge(), 9);

        let mut m2 = OsElmSkipGram::new(21, oselm_cfg(8));
        let mut g2 = Graph::with_nodes(21);
        let mut tr = IncrementalTrainer::new(21, &cfg, UpdatePolicy::every_edge(), 9);
        for &(u, v) in &edges {
            tr.ingest(&mut g2, seqge_graph::EdgeEvent::Add(u, v), &mut m2).unwrap();
        }
        assert_eq!(m1.beta_t(), m2.beta_t());
        assert_eq!(m1.p(), m2.p());
        assert_eq!(g1.num_edges(), g2.num_edges());
        assert_eq!(out1, tr.outcome());
    }

    #[test]
    fn incremental_trainer_handles_removals_and_rejections() {
        let cfg = small_cfg(8);
        let mut m = OsElmSkipGram::new(10, oselm_cfg(8));
        let mut g = Graph::with_nodes(10);
        let mut tr = IncrementalTrainer::new(10, &cfg, UpdatePolicy::every_edge(), 4);
        for i in 0..9u32 {
            tr.ingest(&mut g, seqge_graph::EdgeEvent::Add(i, i + 1), &mut m).unwrap();
        }
        // Duplicate add and missing remove are rejected without touching state.
        let before = tr.outcome();
        assert!(tr.ingest(&mut g, seqge_graph::EdgeEvent::Add(0, 1), &mut m).is_err());
        assert!(tr.ingest(&mut g, seqge_graph::EdgeEvent::Remove(0, 5), &mut m).is_err());
        assert_eq!(tr.outcome(), before);
        // A real removal mutates the graph and retrains both neighborhoods.
        let trained = tr.ingest(&mut g, seqge_graph::EdgeEvent::Remove(4, 5), &mut m).unwrap();
        assert!(trained > 0, "endpoints still have neighbors, so walks train");
        assert!(!g.has_edge(4, 5));
        assert_eq!(tr.edges_removed(), 1);
        assert!(m.beta_t().all_finite());
    }

    #[test]
    fn incremental_refresh_resamples_and_trains() {
        let cfg = small_cfg(4);
        let g = ring(12);
        let mut m = OsElmSkipGram::new(12, oselm_cfg(4));
        let mut tr = IncrementalTrainer::new(12, &cfg, UpdatePolicy::Never, 2);
        tr.bootstrap(&g, &mut m);
        let before = tr.outcome().walks_trained;
        let trained = tr.refresh(&g, &mut m);
        assert_eq!(trained, 12 * cfg.walk.walks_per_node);
        assert_eq!(tr.outcome().walks_trained, before + trained);
    }
}
