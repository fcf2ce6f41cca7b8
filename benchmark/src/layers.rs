//! The traced run: times the public functions of each layer from outside and
//! adds them up against the end-to-end figures.
//!
//! Two single-threaded replays of the stream's first events, each call
//! wrapped in a [`span`](crate::span), interleaved 64 events at a time so
//! that both see the same state of a noisy machine:
//!
//! 1. **server order** — on the freshly booted backend, before the daemon
//!    starts: what the worker and the trainer call for a write
//!    (`parse_request` → `Wal::append_then` → `TrainBackend::ingest` → reply,
//!    and per 256 events `publish_view` → `AnnBuilder::sync` →
//!    `SnapshotCell::publish` → `Wal::batch_commit`), then a few single
//!    writes each followed by the two publishes a write + `flush` causes (one
//!    with one event's rows dirty, one with nothing dirty), then in-process
//!    `topk`s on the published snapshot. The daemon then boots from that
//!    backend, so the served phases continue where the replay stopped.
//! 2. **decomposed** — the same events through the parts `ingest` is made
//!    of (`EdgeEvent::apply` → `Walker::walk_into` ×2 → `train_walk` ×2 →
//!    `NegativeTable::on_edge_inserted`), bootstrapped by hand the way
//!    `IncrementalTrainer::bootstrap` does it. It must end with an embedding
//!    bit-identical to the backend's, which proves the parts are the whole.

use crate::serve_run::{raw, write_line, Tagged, K, PROBES};
use crate::span::{Totals, Tracer};
use crate::stats;
use crate::stream::ChurnStream;
use crate::workload::Workload;
use crate::{metric, Gate, RunArgs, Served};
use seqge_ann::{AnnBuilder, AnnConfig};
use seqge_backend::{BackendKind, BackendSpec};
use seqge_core::{EmbeddingModel, OsElmSkipGram};
use seqge_eval::EdgeOp;
use seqge_fpga::Accelerator;
use seqge_graph::{EdgeEvent, Graph, NodeId};
use seqge_sampling::{
    stream_walks, NegativeTable, PipelineConfig, Rng64, StepStrategy, WalkCorpus, Walker,
};
use seqge_serve::wal::verify_replay;
use seqge_serve::{
    parse_request, EmbeddingSnapshot, FaultInjector, FsyncPolicy, Response, SnapshotCell, WalBoot,
    WalConfig,
};
use serde_json::Value;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// The trainer's `batch_max`: events between publishes in the burst phase.
const BATCH: usize = 256;
/// Events the two replays alternate by.
const BLOCK: usize = 64;
/// Single writes replayed with their two publishes each.
const SINGLES: usize = 16;
/// In-process `topk`s timed per mode.
const QUERIES: usize = 200;

/// Events the server-order replay consumes before the daemon starts.
pub fn replay_events(w: &Workload) -> usize {
    w.trace_events + SINGLES
}

/// Span names of one publish, by how many events dirtied rows before it.
struct PublishSpans {
    view: &'static str,
    sync: &'static str,
    swap: &'static str,
}

const PUBLISH_BATCH: PublishSpans = PublishSpans {
    view: "backend.publish_view.256",
    sync: "ann.sync.256",
    swap: "serve.snapshot.publish.256",
};
const PUBLISH_ONE: PublishSpans = PublishSpans {
    view: "backend.publish_view.1",
    sync: "ann.sync.1",
    swap: "serve.snapshot.publish.1",
};
const PUBLISH_NONE: PublishSpans = PublishSpans {
    view: "backend.publish_view.0",
    sync: "ann.sync.0",
    swap: "serve.snapshot.publish.0",
};

/// Vertices re-hashed ÷ vertices indexed, summed over the syncs of a kind.
#[derive(Default, Clone, Copy)]
struct Rehashed {
    rehashed: usize,
    total: usize,
}

impl Rehashed {
    fn share(&self) -> f64 {
        self.rehashed as f64 / self.total.max(1) as f64
    }
}

/// The traced replays and what they found.
pub struct Replay {
    w: &'static Workload,
    out: PathBuf,
    tracer: Tracer,
    rehashed: BTreeMap<&'static str, Rehashed>,
    replay_eps: f64,
    cycles_per_walk: f64,
    deviation_ppm: f64,
    span_cost_ns: f64,
}

/// The reply the server builds for a `topk` with `K` hits.
fn topk_reply(node: NodeId, version: u64, hits: Vec<(NodeId, f64)>) -> String {
    let items: Vec<Value> = hits
        .into_iter()
        .map(|(v, s)| {
            Value::Object(vec![
                ("node".to_string(), Value::U64(v as u64)),
                ("score".to_string(), Value::F64(s)),
            ])
        })
        .collect();
    Response::ok()
        .field("node", node)
        .field("op", "cosine")
        .field("mode", "exact")
        .field("version", version)
        .field("results", Value::Array(items))
        .build()
}

impl Replay {
    /// A replay for `w`, writing its span file under `out`.
    pub fn new(w: &'static Workload, out: PathBuf) -> Replay {
        Replay {
            w,
            out,
            tracer: Tracer::new(),
            rehashed: BTreeMap::new(),
            replay_eps: 0.0,
            cycles_per_walk: 0.0,
            deviation_ppm: 0.0,
            span_cost_ns: 0.0,
        }
    }

    /// One trainer publish, as `Trainer::publish` does it.
    fn publish(
        &mut self,
        boot: &mut WalBoot,
        ann: &mut AnnBuilder,
        cell: &SnapshotCell,
        version: &mut u64,
        names: &PublishSpans,
    ) {
        let tr = &mut self.tracer;
        let emb = tr.time(names.view, || boot.backend.publish_view());
        let (index, report) = tr.time(names.sync, || ann.sync(&emb));
        let seen = self.rehashed.entry(names.sync).or_default();
        seen.rehashed += report.rehashed;
        seen.total += report.total;
        let out = boot.backend.outcome();
        *version += 1;
        let snapshot = EmbeddingSnapshot {
            version: *version,
            emb,
            num_edges: boot.graph.num_edges(),
            walks_trained: out.walks_trained,
            edges_inserted: out.edges_inserted,
            edges_removed: boot.backend.edges_removed(),
            ann: Some(index),
        };
        // Includes dropping the snapshot it replaces: no reader holds it.
        tr.time(names.swap, || cell.publish(snapshot));
    }

    /// The worker's and the trainer's calls for one write.
    fn write(&mut self, boot: &mut WalBoot, event: EdgeEvent, seq: usize) -> Gate<()> {
        let fault = FaultInjector::disabled();
        let line = write_line(event, seq as u64);
        let tr = &mut self.tracer;
        let parsed = tr.time("serve.protocol.parse", || parse_request(&line));
        black_box(parsed.map_err(|e| format!("parse_request({line}): {e}"))?);
        let seq = tr
            .time("serve.wal.append", || boot.wal.append_then(event, &fault, |_| Ok::<(), ()>(())))
            .map_err(|e| format!("wal append: {e}"))?;
        let applied = tr.time("backend.ingest", || boot.backend.ingest(&mut boot.graph, event));
        applied.map_err(|e| format!("replayed event {event:?} rejected: {e}"))?;
        black_box(tr.time("serve.protocol.reply", || {
            Response::ok().field("queued", true).field("pending", 1u64).field("seq", seq).build()
        }));
        Ok(())
    }

    /// Runs both replays. `boot` is the freshly booted store; on return its
    /// backend and graph have ingested the returned number of events.
    pub fn run(
        &mut self,
        boot: &mut WalBoot,
        stream: &ChurnStream,
        spec: &BackendSpec,
    ) -> Gate<usize> {
        match spec.kind {
            BackendKind::Float => {
                let model = OsElmSkipGram::new(stream.nodes, spec.oselm);
                self.run_with(
                    Parts::bootstrap(model, "core.train_walk", spec, stream),
                    boot,
                    stream,
                    spec,
                )
            }
            BackendKind::FpgaSim => {
                let model = Accelerator::new(stream.nodes, spec.oselm);
                self.run_with(
                    Parts::bootstrap(model, "fpga.train_walk", spec, stream),
                    boot,
                    stream,
                    spec,
                )
            }
        }
    }

    fn run_with<M: EmbeddingModel>(
        &mut self,
        mut parts: Parts<M>,
        boot: &mut WalBoot,
        stream: &ChurnStream,
        spec: &BackendSpec,
    ) -> Gate<usize> {
        let events = &stream.events[..replay_events(self.w)];
        let (burst, singles) = events.split_at(self.w.trace_events);

        // What `start_backend` + `Trainer::new` publish at boot (untimed).
        let mut ann = AnnBuilder::new(AnnConfig::default());
        let emb = boot.backend.publish_view();
        let (index, _) = ann.sync(&emb);
        let cell = SnapshotCell::new(EmbeddingSnapshot {
            version: 0,
            emb,
            num_edges: boot.graph.num_edges(),
            walks_trained: 0,
            edges_inserted: 0,
            edges_removed: 0,
            ann: Some(index),
        });
        let mut version = 0;

        let mut done = 0;
        for block in burst.chunks(BLOCK) {
            for (i, &event) in (done..).zip(block) {
                self.tracer.set_event(i as u32);
                let root = self.tracer.enter("event.burst");
                self.write(boot, event, i + 1)?;
                if (i + 1) % BATCH == 0 {
                    self.publish(boot, &mut ann, &cell, &mut version, &PUBLISH_BATCH);
                    let committed =
                        self.tracer.time("serve.wal.commit.256", || boot.wal.batch_commit());
                    committed.map_err(|e| format!("wal batch_commit: {e}"))?;
                }
                self.tracer.exit(root);
            }
            for (i, &event) in (done..).zip(block) {
                self.tracer.set_event(i as u32);
                parts.step(&mut self.tracer, event)?;
            }
            done += block.len();
        }
        if let Some(plan) = boot.backend.planner() {
            self.cycles_per_walk = plan.cycles_total as f64 / plan.walks.max(1) as f64;
        }
        // As measured by the last batch publish: a single event's window is
        // too short for the probe to see anything.
        self.deviation_ppm = boot.backend.deviation_ppm().unwrap_or(0) as f64;

        for (i, &event) in (done..).zip(singles) {
            self.tracer.set_event(i as u32);
            let root = self.tracer.enter("event.single");
            self.write(boot, event, i + 1)?;
            // The batch publish, then the re-publish the `flush` causes.
            for names in [&PUBLISH_ONE, &PUBLISH_NONE] {
                self.publish(boot, &mut ann, &cell, &mut version, names);
                let committed = self.tracer.time("serve.wal.commit", || boot.wal.commit());
                committed.map_err(|e| format!("wal commit: {e}"))?;
            }
            black_box(self.tracer.time("serve.protocol.reply.flush", || {
                Response::ok().field("version", version).build()
            }));
            self.tracer.exit(root);
            parts.step(&mut self.tracer, event)?;
        }

        self.reads(&cell, stream.nodes)?;
        self.check_wal_replay(boot, spec, events.len())?;

        let (served, decomposed) = (boot.backend.publish_view(), parts.model.embedding());
        let same = served.rows() == decomposed.rows()
            && served
                .as_slice()
                .iter()
                .zip(decomposed.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            return Err(
                "the decomposed replay's embedding is not bit-identical to the backend's".into()
            );
        }

        // What one empty span costs: the tracing overhead per span.
        let mut scratch = Tracer::new();
        let t0 = Instant::now();
        for _ in 0..100_000 {
            scratch.time("empty", || ());
        }
        self.span_cost_ns = t0.elapsed().as_nanos() as f64 / scratch.len() as f64;
        Ok(events.len())
    }

    /// In-process reads on the published snapshot, plus the protocol work a
    /// `topk` request costs the worker.
    fn reads(&mut self, cell: &SnapshotCell, nodes: usize) -> Gate<()> {
        let snap = cell.load();
        let mut rng = Rng64::seed_from_u64(0x70_9C);
        let tr = &mut self.tracer;
        for i in 0..QUERIES {
            tr.set_event((replay_events(self.w) + i) as u32);
            let node = rng.gen_index(nodes) as NodeId;
            let line = format!(r#"{{"cmd":"topk","node":{node},"k":{K},"op":"cosine"}}"#);
            let root = tr.enter("event.topk");
            let parsed = tr.time("serve.protocol.parse.topk", || parse_request(&line));
            black_box(parsed.map_err(|e| format!("parse_request({line}): {e}"))?);
            let hits = tr.time("serve.snapshot.topk_exact", || snap.topk(node, K, EdgeOp::Cosine));
            let hits = hits.ok_or("topk: node out of range")?;
            black_box(
                tr.time("serve.protocol.reply.topk", || topk_reply(node, snap.version, hits)),
            );
            let ann = tr.time("ann.query", || snap.topk_ann(node, K, EdgeOp::Cosine, None, PROBES));
            black_box(ann.ok_or("topk_ann: node out of range")?);
            tr.exit(root);
        }
        Ok(())
    }

    /// `wal::verify_replay` over the replayed events: recovery must replay
    /// every one of them, and twice to the same bits.
    fn check_wal_replay(&mut self, boot: &WalBoot, spec: &BackendSpec, events: usize) -> Gate<()> {
        let wcfg = WalConfig { dir: boot.wal.dir().to_path_buf(), fsync: FsyncPolicy::Never };
        let t0 = Instant::now();
        let check = verify_replay(&wcfg, spec, 0).map_err(|e| format!("verify_replay: {e}"))?;
        // Two independent replays ran.
        self.replay_eps = 2.0 * events as f64 / t0.elapsed().as_secs_f64();
        if !check.deterministic
            || check.report.replayed != events as u64
            || check.report.rejected != 0
        {
            return Err(format!("WAL replay of {events} events is not clean: {:?}", check.report));
        }
        Ok(())
    }
}

/// The parts `TrainBackend::ingest` is made of, held and driven by hand the
/// way `IncrementalTrainer` holds and drives them.
struct Parts<M> {
    model: M,
    train_span: &'static str,
    graph: Graph,
    walker: Walker,
    rng: Rng64,
    corpus: WalkCorpus,
    table: NegativeTable,
    buf: Vec<NodeId>,
}

impl<M: EmbeddingModel> Parts<M> {
    /// `IncrementalTrainer::new` + `bootstrap` over the boot graph.
    fn bootstrap(
        mut model: M,
        train_span: &'static str,
        spec: &BackendSpec,
        stream: &ChurnStream,
    ) -> Parts<M> {
        let graph = stream.boot_graph();
        let mut rng = Rng64::seed_from_u64(spec.seed);
        let mut corpus = WalkCorpus::new(stream.nodes);
        let mut table = NegativeTable::new(spec.policy);
        let lane_seed = rng.next_u64();
        let mut walks = Vec::new();
        stream_walks(
            &graph.to_csr(),
            spec.train.walk,
            StepStrategy::Cumulative,
            lane_seed,
            PipelineConfig::with_threads(0),
            |_, walk| {
                if walk.len() >= 2 {
                    corpus.record(&walk);
                    walks.push(walk);
                }
            },
        );
        table.rebuild(&corpus);
        if table.is_ready() {
            for walk in &walks {
                model.train_walk(walk, &table, &mut rng);
            }
        }
        let walker = Walker::new(spec.train.walk);
        Parts { model, train_span, graph, walker, rng, corpus, table, buf: Vec::new() }
    }

    /// `IncrementalTrainer::ingest`, one span per part.
    fn step(&mut self, tr: &mut Tracer, event: EdgeEvent) -> Gate<()> {
        let root = tr.enter("event.decomposed");
        let applied = tr.time("graph.apply", || event.apply(&mut self.graph));
        applied.map_err(|e| format!("decomposed event {event:?} rejected: {e}"))?;
        let (u, v) = event.endpoints();
        for start in [u, v] {
            tr.time("sampling.walk", || {
                self.walker.walk_into(&self.graph, start, &mut self.rng, &mut self.buf)
            });
            if self.buf.len() < 2 {
                continue;
            }
            self.corpus.record(&self.buf);
            if !self.table.is_ready() {
                self.table.rebuild(&self.corpus);
            }
            if self.table.is_ready() {
                tr.time(self.train_span, || {
                    self.model.train_walk(&self.buf, &self.table, &mut self.rng)
                });
            }
        }
        tr.time("sampling.neg_rebuild", || self.table.on_edge_inserted(&self.corpus));
        tr.exit(root);
        Ok(())
    }
}

/// Turns the replays and the served phases into the per-layer metrics, and
/// writes the span file.
pub fn ledger(
    args: &RunArgs,
    stream: &ChurnStream,
    served: &Served,
    replay: Replay,
    gen_s: f64,
    run_meta: &str,
) -> Gate<Vec<String>> {
    let w = args.workload;
    let totals = replay.tracer.totals();
    let ns = |name: &str| totals.get(name).map_or(0.0, Totals::mean_self_ns);
    let total_ns = |name: &str| totals.get(name).map_or(0, |t| t.total_ns) as f64;
    let rehashed = |name: &str| replay.rehashed.get(name).map_or(0.0, Rehashed::share);
    let p = |samples: &[f64], q: f64| stats::quantile(&mut samples.to_vec(), q);
    let tagged = |samples: &Tagged, q: f64| stats::quantile(&mut raw(samples), q);

    let (writes, reads) = (&served.mixed.writes, &served.mixed.reads);
    let rtt_us = p(&writes.ping_us, 0.5);
    let ingest_eps = p(&served.burst.slice_eps, 0.5);
    let visible_ms = tagged(&writes.visible_ms, 0.5);
    let topk_exact_ms = tagged(&reads.topk_exact_ms, 0.5);

    // One publish of each kind, ns: view + index sync + snapshot swap.
    let publish = |k: &str| {
        ns(&format!("backend.publish_view.{k}"))
            + ns(&format!("ann.sync.{k}"))
            + ns(&format!("serve.snapshot.publish.{k}"))
    };
    // Burst, per event, on the trainer thread (the worker's parse + append +
    // reply run beside it on the other core): ingest, a batch publish and
    // commit per 256 events, and the slice's closing `flush` re-publish.
    let ingest_sum_us = (ns("backend.ingest")
        + (publish("256") + ns("serve.wal.commit.256")) / BATCH as f64
        + publish("0") / w.slice_events as f64)
        / 1e3;
    let ingest_e2e_us = 1e6 / ingest_eps;
    // A write made visible: two request/reply round trips (the write, the
    // flush), the worker's parse + append + reply, one ingest, the batch
    // publish, the flush's re-publish, a commit after each.
    let visible_sum_ms = (2e3 * rtt_us
        + ns("serve.protocol.parse")
        + ns("serve.wal.append")
        + ns("serve.protocol.reply")
        + ns("backend.ingest")
        + publish("1")
        + publish("0")
        + 2.0 * ns("serve.wal.commit")
        + ns("serve.protocol.reply.flush"))
        / 1e6;
    let topk_sum_ms = (1e3 * rtt_us
        + ns("serve.protocol.parse.topk")
        + ns("serve.snapshot.topk_exact")
        + ns("serve.protocol.reply.topk"))
        / 1e6;
    let residual = |sum: f64, e2e: f64| 1.0 - sum / e2e;

    let trace_wall_ns: f64 = ["event.burst", "event.single", "event.topk", "event.decomposed"]
        .map(total_ns)
        .iter()
        .sum();
    let meta = format!(
        r#"{{"run":{run_meta},"nodes":{},"boot_edges":{},"replayed_events":{},"span_cost_ns":{}}}"#,
        stream.nodes,
        stream.boot.len(),
        replay_events(w),
        replay.span_cost_ns
    );
    let path = replay.out.join(format!("trace-{}.json", w.name));
    replay.tracer.write_json(&path, &meta).map_err(|e| format!("{}: {e}", path.display()))?;

    let written = writes.visible_ms.len().max(1) as f64;
    let witness_ms =
        [&served.burst.witness, &writes.witness, &reads.witness].map(|w| w.kernel_times()).concat();
    Ok(vec![
        metric("serve.server.rtt_us", rtt_us, "us"),
        metric("serve.protocol.parse_ns", ns("serve.protocol.parse"), "ns"),
        metric("serve.protocol.parse_topk_ns", ns("serve.protocol.parse.topk"), "ns"),
        metric("serve.protocol.reply_ns", ns("serve.protocol.reply"), "ns"),
        metric("serve.protocol.reply_topk_ns", ns("serve.protocol.reply.topk"), "ns"),
        metric("serve.wal.append_ns", ns("serve.wal.append"), "ns"),
        metric("serve.wal.commit_ns", ns("serve.wal.commit"), "ns"),
        metric("serve.wal.replay_eps", replay.replay_eps, "1/s"),
        metric("graph.apply_ns", ns("graph.apply"), "ns"),
        metric("sampling.walk_ns", ns("sampling.walk"), "ns"),
        metric("sampling.neg_rebuild_ns", ns("sampling.neg_rebuild"), "ns"),
        metric("core.train_walk_ns", ns("core.train_walk"), "ns"),
        metric("fpga.train_walk_ns", ns("fpga.train_walk"), "ns"),
        metric("fpga.cycles_per_walk", replay.cycles_per_walk, "count"),
        metric("backend.ingest_ns", ns("backend.ingest"), "ns"),
        metric(
            "backend.ingest_overhead_share",
            1.0 - total_ns("event.decomposed") / total_ns("backend.ingest"),
            "ratio",
        ),
        metric("backend.publish_view_1_ns", ns("backend.publish_view.1"), "ns"),
        metric("backend.publish_view_256_ns", ns("backend.publish_view.256"), "ns"),
        metric("backend.deviation_ppm", replay.deviation_ppm, "ppm"),
        metric("ann.sync_0_ns", ns("ann.sync.0"), "ns"),
        metric("ann.sync_1_ns", ns("ann.sync.1"), "ns"),
        metric("ann.sync_256_ns", ns("ann.sync.256"), "ns"),
        metric("ann.rehashed_share_0", rehashed("ann.sync.0"), "ratio"),
        metric("ann.rehashed_share_1", rehashed("ann.sync.1"), "ratio"),
        metric("ann.rehashed_share_256", rehashed("ann.sync.256"), "ratio"),
        metric("ann.query_ns", ns("ann.query"), "ns"),
        metric("serve.snapshot.topk_exact_ns", ns("serve.snapshot.topk_exact"), "ns"),
        metric("serve.snapshot.publish_ns", ns("serve.snapshot.publish.1"), "ns"),
        metric("serve.trainer.batch_mean_burst", served.burst_batch_mean, "count"),
        metric("serve.trainer.publishes_burst", served.burst_publishes as f64, "count"),
        metric("serve.trainer.batch_mean_mixed", served.mixed_batch_mean, "count"),
        metric(
            "serve.trainer.publishes_per_write_mixed",
            served.mixed_publishes as f64 / written,
            "count",
        ),
        metric("serve.client.visible_p90_ms", tagged(&writes.visible_ms, 0.9), "ms"),
        metric("serve.client.topk_exact_p90_ms", tagged(&reads.topk_exact_ms, 0.9), "ms"),
        metric("serve.client.topk_ann_p90_ms", tagged(&reads.topk_ann_ms, 0.9), "ms"),
        metric("serve.client.write_ack_p50_us", tagged(&writes.write_ack_us, 0.5), "us"),
        metric("serve.client.get_embedding_p50_us", tagged(&reads.get_embedding_us, 0.5), "us"),
        metric("serve.client.score_link_p50_us", tagged(&reads.score_link_us, 0.5), "us"),
        metric("serve.client.writes", written, "count"),
        metric("serve.client.reads", reads.count() as f64, "count"),
        metric("ledger.ingest_sum_us", ingest_sum_us, "us"),
        metric("ledger.ingest_e2e_us", ingest_e2e_us, "us"),
        metric("ledger.ingest_residual_share", residual(ingest_sum_us, ingest_e2e_us), "ratio"),
        metric("ledger.visible_sum_ms", visible_sum_ms, "ms"),
        metric("ledger.visible_e2e_ms", visible_ms, "ms"),
        metric("ledger.visible_residual_share", residual(visible_sum_ms, visible_ms), "ratio"),
        metric("ledger.topk_exact_sum_ms", topk_sum_ms, "ms"),
        metric("ledger.topk_exact_e2e_ms", topk_exact_ms, "ms"),
        metric("ledger.topk_exact_residual_share", residual(topk_sum_ms, topk_exact_ms), "ratio"),
        metric("bench.gen_s", gen_s, "s"),
        metric("bench.witness_p50_ms", p(&witness_ms, 0.5), "ms"),
        metric("bench.witness_cv", stats::coeff_of_variation(&witness_ms), "ratio"),
        metric(
            "bench.trace_overhead_share",
            replay.span_cost_ns * replay.tracer.len() as f64 / trace_wall_ns,
            "ratio",
        ),
    ])
}
