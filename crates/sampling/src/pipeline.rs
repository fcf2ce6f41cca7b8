//! Overlapped walk generation: N producer threads, one in-order consumer.
//!
//! The paper's system hides walk generation behind training: "nodes are
//! sampled from a graph using random walk by the CPU" while the accelerator
//! trains the previous walk (§3.2). This module is the host-side analogue —
//! walker threads generate second-order walks in parallel and a consumer
//! (the trainer) receives them **in deterministic walk-index order**, so the
//! trained model is bit-identical no matter how many threads run.
//!
//! Determinism comes from two choices:
//!
//! * every walk draws from its own RNG, seeded as
//!   [`Rng64::for_stream`]`(seed, walk_index)` — a walk's randomness depends
//!   only on the run seed and its global index `round * n + start_node`,
//!   never on which worker executed it or in what order;
//! * worker `w` of `T` owns exactly the indices `w, w + T, w + 2T, …` and
//!   sends them over its own bounded channel in increasing order, so the
//!   consumer recovers global order by round-robining the channels — no
//!   reorder buffer, and memory is bounded by `threads × queue_depth` walks.
//!
//! The stream is therefore regenerable: run twice from one seed, it yields
//! the same walks in the same order. A consumer that needs the whole corpus
//! before training (the negative table's appearance counts) makes one pass
//! to count and a second to train rather than storing the walks.
//!
//! The pipeline feeds the global `seqge_obs` registry:
//! `seqge_pipeline_walk_gen_ns` (per-walk kernel time histogram),
//! `seqge_pipeline_queue_depth` (walks in flight between producers and the
//! consumer), and `seqge_pipeline_walks_total` (walks delivered). They
//! count the pipeline's work, not distinct walks: a consumer that streams
//! one corpus twice, like `IncrementalTrainer`'s bootstrap and refresh in
//! `seqge-core`, books each walk twice.

use crate::rng::Rng64;
use crate::walk::{Node2VecParams, StepStrategy, WalkGraph, Walker};
use seqge_graph::NodeId;
use std::sync::mpsc::{sync_channel, Receiver};
use std::time::{Duration, Instant};

/// Tuning knobs for the walk pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Walker threads; 0 means one per available core.
    pub threads: usize,
    /// Per-worker channel capacity, in walks. Bounds producer run-ahead (and
    /// with it pipeline memory) to `threads × queue_depth` walks.
    pub queue_depth: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig { threads: 0, queue_depth: 64 }
    }
}

impl PipelineConfig {
    /// Config with an explicit thread count (0 = one per core).
    pub fn with_threads(threads: usize) -> Self {
        PipelineConfig { threads, ..Default::default() }
    }

    /// The thread count actually used.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        }
    }
}

/// Producer-side telemetry from one pipeline run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineStats {
    /// Worker threads used.
    pub threads: usize,
    /// Walks delivered to the consumer (including sub-length walks from
    /// isolated nodes, which consumers normally skip).
    pub walks_generated: u64,
    /// Total time workers spent inside the walk kernel, summed over
    /// workers (excludes time blocked on a full channel).
    pub gen_busy: Duration,
}

/// Runs the "all"-scenario walk schedule (`walks_per_node` rounds over all
/// `n` nodes) through the pipeline, invoking `on_walk(index, walk)` on the
/// calling thread in strictly increasing `index` order. `index` is
/// `round * n + start_node`, matching the serial [`generate_corpus`]
/// schedule.
///
/// [`generate_corpus`]: crate::corpus::generate_corpus
pub fn stream_walks<G, F>(
    csr: &G,
    params: Node2VecParams,
    strategy: StepStrategy,
    seed: u64,
    config: PipelineConfig,
    mut on_walk: F,
) -> PipelineStats
where
    G: WalkGraph + Sync,
    F: FnMut(u64, Vec<NodeId>),
{
    params.validate().expect("invalid node2vec parameters");
    let n = csr.num_nodes();
    let total = (n * params.walks_per_node) as u64;
    let threads = config.effective_threads().max(1).min(total.max(1) as usize);
    if total == 0 {
        return PipelineStats { threads, walks_generated: 0, gen_busy: Duration::ZERO };
    }

    std::thread::scope(|scope| {
        let mut receivers: Vec<Receiver<Vec<NodeId>>> = Vec::with_capacity(threads);
        let mut stat_rx: Vec<Receiver<Duration>> = Vec::with_capacity(threads);
        for w in 0..threads {
            let (tx, rx) = sync_channel::<Vec<NodeId>>(config.queue_depth.max(1));
            let (stx, srx) = sync_channel::<Duration>(1);
            receivers.push(rx);
            stat_rx.push(srx);
            scope.spawn(move || {
                let mut walker = Walker::with_strategy(params, strategy);
                let mut busy = Duration::ZERO;
                let mut walk: Vec<NodeId> = Vec::with_capacity(params.walk_length);
                let mut index = w as u64;
                while index < total {
                    let start = (index % n as u64) as NodeId;
                    let mut rng = Rng64::for_stream(seed, index);
                    let t0 = Instant::now();
                    walker.walk_into(csr, start, &mut rng, &mut walk);
                    let gen = t0.elapsed();
                    busy += gen;
                    seqge_obs::static_histogram!("seqge_pipeline_walk_gen_ns")
                        .record(gen.as_nanos().min(u64::MAX as u128) as u64);
                    // A send error means the consumer hung up early (it
                    // panicked); stop producing rather than panic twice.
                    if tx.send(std::mem::take(&mut walk)).is_err() {
                        break;
                    }
                    seqge_obs::static_gauge!("seqge_pipeline_queue_depth").inc();
                    walk = Vec::with_capacity(params.walk_length);
                    index += threads as u64;
                }
                let _ = stx.send(busy);
            });
        }

        for index in 0..total {
            let walk = receivers[(index % threads as u64) as usize]
                .recv()
                .expect("walker thread terminated early");
            seqge_obs::static_gauge!("seqge_pipeline_queue_depth").dec();
            seqge_obs::static_counter!("seqge_pipeline_walks_total").inc();
            on_walk(index, walk);
        }

        let gen_busy =
            stat_rx.iter().map(|rx| rx.recv().expect("walker thread lost its stats")).sum();
        PipelineStats { threads, walks_generated: total, gen_busy }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::WalkCorpus;
    use seqge_graph::generators::classic::{erdos_renyi, ring};
    use seqge_graph::Graph;

    fn params(l: usize, r: usize) -> Node2VecParams {
        Node2VecParams { walk_length: l, walks_per_node: r, ..Default::default() }
    }

    /// The stream as a corpus consumer sees it: the counts and kept walks
    /// (isolated-node walks dropped), in schedule order.
    fn corpus(
        csr: &seqge_graph::Csr,
        p: Node2VecParams,
        seed: u64,
        threads: usize,
    ) -> (WalkCorpus, Vec<Vec<NodeId>>) {
        let mut corpus = WalkCorpus::new(csr.num_nodes());
        let mut walks = Vec::new();
        let config = PipelineConfig::with_threads(threads);
        stream_walks(csr, p, StepStrategy::Cumulative, seed, config, |_, walk| {
            if walk.len() >= 2 {
                corpus.record(&walk);
                walks.push(walk);
            }
        });
        (corpus, walks)
    }

    /// Acceptance criterion: the pipelined corpus is bit-identical across
    /// thread counts.
    #[test]
    fn corpus_identical_across_thread_counts() {
        let csr = erdos_renyi(60, 0.1, 3).to_csr();
        let p = params(20, 4);
        let (c1, w1) = corpus(&csr, p, 42, 1);
        for threads in [2, 3, 8] {
            let (c, w) = corpus(&csr, p, 42, threads);
            assert_eq!(w, w1, "walks differ at {threads} threads");
            assert_eq!(c.counts(), c1.counts(), "counts differ at {threads} threads");
            assert_eq!(c.num_walks(), c1.num_walks());
        }
    }

    #[test]
    fn walks_arrive_in_index_order_and_follow_edges() {
        let csr = erdos_renyi(40, 0.15, 9).to_csr();
        let p = params(15, 3);
        let mut last: i64 = -1;
        let stats = stream_walks(
            &csr,
            p,
            StepStrategy::Cumulative,
            7,
            PipelineConfig::with_threads(4),
            |index, walk| {
                assert_eq!(index as i64, last + 1, "indices must be consecutive");
                last = index as i64;
                assert_eq!(walk[0], (index % 40) as NodeId, "walk starts at its scheduled node");
                for pair in walk.windows(2) {
                    assert!(csr.has_edge(pair[0], pair[1]));
                }
            },
        );
        assert_eq!(stats.walks_generated, 40 * 3);
        assert_eq!(stats.threads, 4);
        assert_eq!(last + 1, 40 * 3);
    }

    #[test]
    fn isolated_nodes_skipped_like_serial_path() {
        let mut g = Graph::with_nodes(5);
        g.add_edge(0, 1).unwrap();
        let csr = g.to_csr();
        let (corpus, walks) = corpus(&csr, params(6, 2), 1, 3);
        assert_eq!(walks.len(), 4); // nodes 0 and 1, two rounds
        assert_eq!(corpus.counts()[3], 0);
    }

    #[test]
    fn empty_graph_yields_nothing() {
        let csr = Graph::with_nodes(0).to_csr();
        let stats = stream_walks(
            &csr,
            params(5, 2),
            StepStrategy::Cumulative,
            0,
            PipelineConfig::default(),
            |_, _| panic!("no walks expected"),
        );
        assert_eq!(stats.walks_generated, 0);
    }

    #[test]
    fn more_threads_than_walks_is_fine() {
        let csr = ring(3).to_csr();
        let (_, walks) = corpus(&csr, params(4, 1), 5, 16);
        assert_eq!(walks.len(), 3);
    }

    #[test]
    fn rejection_strategy_is_deterministic_too() {
        let csr = erdos_renyi(30, 0.2, 11).to_csr();
        let collect = |threads| {
            let mut out = Vec::new();
            stream_walks(
                &csr,
                params(10, 2),
                StepStrategy::Rejection,
                13,
                PipelineConfig::with_threads(threads),
                |_, w| out.push(w),
            );
            out
        };
        assert_eq!(collect(1), collect(6));
    }
}
