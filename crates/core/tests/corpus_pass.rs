//! `IncrementalTrainer`'s corpus pass (bootstrap and refresh) streams its
//! walks twice, once to count and once to train, and stores none. This
//! holds it to a test-local reference that materialises the walks the way
//! the pass used to: collect every kept walk of the stream into a `Vec`,
//! rebuild the negative table from their counts, then train them in order.
//! After bootstrap → 3 ingests → refresh the two must agree on β, `P`,
//! `outcome()` and the trainer's RNG position, for both float OS-ELM
//! kernels, at one and several walks per node, on a graph with an isolated
//! node (its one-node walks are dropped) and on an edgeless graph (the
//! pass trains nothing).

use seqge_core::model::EmbeddingModel;
use seqge_core::{
    DataflowOsElm, IncrementalTrainer, ModelConfig, OsElmConfig, OsElmSkipGram, SeqOutcome,
    TrainConfig,
};
use seqge_graph::generators::classic::erdos_renyi;
use seqge_graph::{EdgeEvent, Graph, NodeId};
use seqge_sampling::{
    stream_walks, NegativeTable, Node2VecParams, PipelineConfig, Rng64, StepStrategy, UpdatePolicy,
    WalkCorpus, Walker,
};

const N: usize = 48;
const SEED: u64 = 21;
const EVENTS: [(NodeId, NodeId); 3] = [(0, 47), (3, 19), (11, 30)];
/// One more ingest after the refresh: its walks and negatives are the next
/// draws of each driver's RNG, so equal weights after it mean equal RNG
/// positions before it.
const PROBE: (NodeId, NodeId) = (5, 40);

fn cfg(walks_per_node: usize) -> TrainConfig {
    TrainConfig {
        walk: Node2VecParams { walk_length: 12, walks_per_node, ..Default::default() },
        model: ModelConfig {
            dim: 8,
            window: 4,
            negative_samples: 3,
            ..ModelConfig::paper_defaults(8)
        },
    }
}

fn oselm(cfg: &TrainConfig) -> OsElmConfig {
    OsElmConfig { model: cfg.model, ..OsElmConfig::paper_defaults(8) }
}

/// The corpus pass with its walks materialised, and the per-edge step,
/// spelled out over the same parts `IncrementalTrainer` owns.
struct Reference {
    walker: Walker,
    params: Node2VecParams,
    rng: Rng64,
    corpus: WalkCorpus,
    table: NegativeTable,
    edges_inserted: usize,
    walks_trained: usize,
    buf: Vec<NodeId>,
}

impl Reference {
    fn new(cfg: &TrainConfig) -> Self {
        Reference {
            walker: Walker::new(cfg.walk),
            params: cfg.walk,
            rng: Rng64::seed_from_u64(SEED),
            corpus: WalkCorpus::new(N),
            table: NegativeTable::new(UpdatePolicy::every_edge()),
            edges_inserted: 0,
            walks_trained: 0,
            buf: Vec::new(),
        }
    }

    fn corpus_pass<M: EmbeddingModel>(&mut self, g: &Graph, model: &mut M) -> usize {
        let lane_seed = self.rng.next_u64();
        let mut corpus = WalkCorpus::new(g.num_nodes());
        let mut walks = Vec::new();
        let config = PipelineConfig::default();
        stream_walks(
            &g.to_csr(),
            self.params,
            StepStrategy::Cumulative,
            lane_seed,
            config,
            |_, walk| {
                if walk.len() >= 2 {
                    corpus.record(&walk);
                    walks.push(walk);
                }
            },
        );
        self.corpus = corpus;
        self.table.rebuild(&self.corpus);
        if !self.table.is_ready() {
            return 0;
        }
        for walk in &walks {
            model.train_walk(walk, &self.table, &mut self.rng);
        }
        self.walks_trained += walks.len();
        walks.len()
    }

    fn ingest<M: EmbeddingModel>(
        &mut self,
        g: &mut Graph,
        (u, v): (NodeId, NodeId),
        model: &mut M,
    ) {
        g.add_edge(u, v).expect("new edge");
        self.edges_inserted += 1;
        for start in [u, v] {
            self.walker.walk_into(&*g, start, &mut self.rng, &mut self.buf);
            if self.buf.len() < 2 {
                continue;
            }
            self.corpus.record(&self.buf);
            if !self.table.is_ready() {
                self.table.rebuild(&self.corpus);
            }
            model.train_walk(&self.buf, &self.table, &mut self.rng);
            self.walks_trained += 1;
        }
        self.table.on_edge_inserted(&self.corpus);
    }

    fn outcome(&self) -> SeqOutcome {
        SeqOutcome {
            edges_inserted: self.edges_inserted,
            walks_trained: self.walks_trained,
            table_rebuilds: self.table.rebuild_count(),
        }
    }
}

/// β and `P` as bit patterns.
type Words = (Vec<u32>, Vec<u32>);

fn bits(beta: &[f32], p: &[f32]) -> Words {
    (beta.iter().map(|w| w.to_bits()).collect(), p.iter().map(|w| w.to_bits()).collect())
}

/// Runs bootstrap → 3 ingests → refresh → probe ingest through the trainer
/// and the reference from one fresh model each, checking they agree after
/// each stage. Returns the walks the bootstrap trained.
fn agree<M: EmbeddingModel>(
    boot: &Graph,
    r: usize,
    fresh: impl Fn(&TrainConfig) -> M,
    words: impl Fn(&M) -> Words,
) -> usize {
    let cfg = cfg(r);
    let (mut live, mut gold) = (fresh(&cfg), fresh(&cfg));
    let (mut g_live, mut g_gold) = (boot.clone(), boot.clone());
    let mut tr = IncrementalTrainer::new(N, &cfg, UpdatePolicy::every_edge(), SEED);
    let mut reference = Reference::new(&cfg);
    let case = format!("{} at r = {r}, {} boot edges", live.name(), boot.num_edges());

    tr.bootstrap(&g_live, &mut live);
    let booted = reference.corpus_pass(&g_gold, &mut gold);
    assert_eq!(tr.outcome(), reference.outcome(), "{case}: bootstrap telemetry");
    assert!(words(&live) == words(&gold), "{case}: bootstrap weights differ");

    for (u, v) in EVENTS {
        tr.ingest(&mut g_live, EdgeEvent::Add(u, v), &mut live).expect("new edge");
        reference.ingest(&mut g_gold, (u, v), &mut gold);
    }
    assert_eq!(tr.refresh(&g_live, &mut live), reference.corpus_pass(&g_gold, &mut gold));
    assert_eq!(tr.outcome(), reference.outcome(), "{case}: refresh telemetry");
    assert!(words(&live) == words(&gold), "{case}: refreshed weights differ");

    tr.ingest(&mut g_live, EdgeEvent::Add(PROBE.0, PROBE.1), &mut live).expect("new edge");
    reference.ingest(&mut g_gold, PROBE, &mut gold);
    assert_eq!(tr.outcome(), reference.outcome(), "{case}: probe telemetry");
    assert!(words(&live) == words(&gold), "{case}: RNG positions differ after the refresh");
    booted
}

fn both_kernels(boot: &Graph, r: usize) -> usize {
    let booted = agree(
        boot,
        r,
        |cfg| OsElmSkipGram::new(N, oselm(cfg)),
        |m| bits(m.beta_t().as_slice(), m.p().as_slice()),
    );
    let dataflow = agree(
        boot,
        r,
        |cfg| DataflowOsElm::new(N, oselm(cfg)),
        |m| bits(m.beta_t().as_slice(), m.p().as_slice()),
    );
    assert_eq!(booted, dataflow);
    booted
}

#[test]
fn streamed_pass_trains_what_a_materialised_corpus_trains() {
    let g = erdos_renyi(N, 0.12, 5);
    let isolated = (0..N as NodeId).filter(|&u| g.degree(u) == 0).count();
    assert_eq!(isolated, 1, "the graph must drop some walks");
    for r in [1, 3] {
        assert_eq!(both_kernels(&g, r), (N - isolated) * r);
    }
}

#[test]
fn edgeless_boot_trains_nothing_then_refresh_catches_up() {
    for r in [1, 3] {
        assert_eq!(both_kernels(&Graph::with_nodes(N), r), 0);
    }
}
