//! The write plane: a dedicated trainer thread that drains edge events into
//! incremental training updates and publishes fresh embedding snapshots.
//!
//! One thread owns the graph and the training engine (a
//! [`seqge_backend::TrainBackend`]: float OS-ELM or the fixed-point fpga-sim
//! kernel); everything else talks to it through an MPSC channel. Events are
//! batched opportunistically — whatever has queued up since the last
//! training step is drained in one go (up to [`BATCH_MAX`]), then a snapshot
//! is published, so query staleness is bounded by one batch rather than one
//! connection's burst. Publication is also where a backend's deferred work
//! lands: fpga-sim re-dequantizes only the β rows dirtied since the last
//! publish, refreshes its cycle-model throughput plan and saturation count,
//! and — closing one publish window in eight — re-measures the float-shadow
//! deviation.
//!
//! Training itself is the shared [`Fold`] step. With a WAL, events arrive
//! already logged (the worker appends before sending, holding the log lock
//! across both, so log order equals apply order); the trainer fsyncs the
//! log at every batch boundary under the `batch` policy and turns snapshots
//! into atomic generation rotations via [`Wal::commit_snapshot`]. Without
//! one the node is ephemeral: nothing is persisted, `snapshot` is an error.

use crate::fault::{FaultInjector, FaultPoint};
use crate::fold::{Applied, Fold};
use crate::snapshot::{EmbeddingSnapshot, SnapshotCell};
use crate::wal::Wal;
use seqge_ann::{AnnBuilder, AnnConfig, SyncReport};
use seqge_backend::TrainBackend;
use seqge_graph::{EdgeEvent, Graph};
use seqge_obs::{Counter, Gauge, Histogram, Registry, TraceCtx};
use std::path::PathBuf;
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::time::Instant;

/// Batch-size buckets splitting the write-to-visibility distribution: a
/// write published alone has a very different freshness profile than one
/// riding a 200-event batch, and averaging them hides the tail.
pub const FRESHNESS_BATCH_BUCKETS: [&str; 4] = ["1", "2-16", "17-64", "65+"];

/// The `batch` label value for a publish folding `n` writes.
pub fn batch_bucket(n: usize) -> &'static str {
    match n {
        0..=1 => FRESHNESS_BATCH_BUCKETS[0],
        2..=16 => FRESHNESS_BATCH_BUCKETS[1],
        17..=64 => FRESHNESS_BATCH_BUCKETS[2],
        _ => FRESHNESS_BATCH_BUCKETS[3],
    }
}

/// Observability context riding one write through the trainer queue: the
/// worker stamps it at enqueue, the trainer closes it when the write's
/// effect lands in a published snapshot. Never serialized into the WAL —
/// replay folds events in without passing through this queue, and the
/// on-disk format stays bit-identical.
#[derive(Clone, Default)]
pub struct WriteCtx {
    /// Enqueue instant; `None` when timing is off (the always-on freshness
    /// path then keeps only the counter + staleness gauge).
    pub enqueued: Option<Instant>,
    /// The request span's context; the trainer parents the
    /// `write.visible` span under it.
    pub trace: Option<TraceCtx>,
}

impl WriteCtx {
    /// Context for a write entering the queue right now.
    pub fn at_enqueue(trace: Option<TraceCtx>) -> Self {
        let enqueued = if seqge_obs::timing_enabled() { Some(Instant::now()) } else { None };
        WriteCtx { enqueued, trace }
    }
}

/// Counters shared between the trainer thread and the query plane (the
/// `stats` command reads them lock-free). Each field is a handle into the
/// server's [`Registry`], so the same numbers surface through the `metrics`
/// op without double bookkeeping.
pub struct ServeStats {
    /// Events accepted onto the queue by the server
    /// (`seqge_serve_events_enqueued_total`).
    pub enqueued: Arc<Counter>,
    /// Events applied to the graph and trained
    /// (`seqge_serve_events_applied_total`).
    pub applied: Arc<Counter>,
    /// Events the graph rejected (duplicate add, missing remove, …;
    /// `seqge_serve_events_rejected_total`).
    pub rejected: Arc<Counter>,
    /// Walks trained since boot (bootstrap + incremental + refreshes;
    /// `seqge_serve_walks_trained_total`).
    pub walks_trained: Arc<Counter>,
    /// Full walk-corpus resamples performed by the update policy
    /// (`seqge_serve_refreshes_total`).
    pub refreshes: Arc<Counter>,
    /// Snapshots written to disk (`seqge_serve_snapshots_written_total`).
    pub snapshots_written: Arc<Counter>,
    /// Events queued but not yet applied or rejected
    /// (`seqge_serve_trainer_backlog`).
    pub backlog: Arc<Gauge>,
    /// Events folded into the model per snapshot publication
    /// (`seqge_serve_ingest_batch_size`).
    pub ingest_batch: Arc<Histogram>,
    /// Wall time of each on-disk snapshot write
    /// (`seqge_serve_snapshot_write_ns`).
    pub snapshot_ns: Arc<Histogram>,
    /// WAL records appended (`seqge_serve_wal_appends_total`).
    pub wal_appends: Arc<Counter>,
    /// WAL appends that failed, including injected faults
    /// (`seqge_serve_wal_append_errors_total`).
    pub wal_append_errors: Arc<Counter>,
    /// WAL fsyncs issued (`seqge_serve_wal_fsyncs_total`).
    pub wal_fsyncs: Arc<Counter>,
    /// WAL segment rotations (`seqge_serve_wal_rotations_total`).
    pub wal_rotations: Arc<Counter>,
    /// Events replayed from the WAL at boot
    /// (`seqge_serve_wal_replayed_total`).
    pub wal_replayed: Arc<Counter>,
    /// Wall time of one WAL append, including policy fsync
    /// (`seqge_serve_wal_append_ns`).
    pub wal_append_ns: Arc<Histogram>,
    /// Read-plane requests shed with `overloaded`
    /// (`seqge_serve_overloaded_total`).
    pub overloaded: Arc<Counter>,
    /// Retried writes answered from the dedup table instead of re-applied
    /// (`seqge_serve_deduped_total`).
    pub deduped: Arc<Counter>,
    /// Injected faults that actually fired, labelled by point
    /// (`seqge_serve_fault_injected_total{point=...}`).
    pub faults: Vec<(FaultPoint, Arc<Counter>)>,
    /// `mode:"ann"` topk queries answered (`seqge_ann_queries_total`).
    pub ann_queries: Arc<Counter>,
    /// ANN queries that fell back to the exact scan — no index, geometry
    /// mismatch, or candidate pool under `k`
    /// (`seqge_ann_fallbacks_total`).
    pub ann_fallbacks: Arc<Counter>,
    /// Candidate-set size per ANN query (`seqge_ann_candidates`).
    pub ann_candidates: Arc<Histogram>,
    /// Wall time of each index sync at snapshot publication
    /// (`seqge_ann_sync_ns`).
    pub ann_sync_ns: Arc<Histogram>,
    /// Vertices projected through the hyperplanes across all syncs: the
    /// dirty ones whose margin budget ran out, never more than the dirty
    /// vertices (`seqge_ann_rehashed_total`).
    pub ann_rehashed: Arc<Counter>,
    /// Vertices covered by the most recent published index
    /// (`seqge_ann_indexed_points`).
    pub ann_indexed: Arc<Gauge>,
    /// Dirty fraction of the latest republish in parts-per-million
    /// (`seqge_ann_dirty_ppm`).
    pub ann_dirty_ppm: Arc<Gauge>,
    /// Write-to-visibility latency (enqueue → snapshot publication) split
    /// by batch-size bucket (`seqge_freshness_ns{batch=...}`). Recording is
    /// gated on the timing switch like every other clock read.
    pub freshness_ns: Vec<(&'static str, Arc<Histogram>)>,
    /// Writes whose snapshot visibility was confirmed — always on, even
    /// with `SEQGE_OBS=off` (`seqge_freshness_events_total`).
    pub writes_visible: Arc<Counter>,
    /// Age of the snapshot that was just replaced, in ms — i.e. how stale
    /// reads were allowed to get before this publish. Always on
    /// (`seqge_snapshot_staleness_ms`).
    pub staleness_ms: Arc<Gauge>,
    /// Modeled PL cycles accumulated by the backend's cycle model
    /// (`seqge_backend_cycles_total`; zero for backends without one).
    pub backend_cycles: Arc<Counter>,
    /// The cycle planner's predicted sustainable ingest rate at the
    /// configured clock, in edge events/s
    /// (`seqge_backend_predicted_ingest_eps`).
    pub backend_predicted_eps: Arc<Gauge>,
    /// Ingest rate the trainer actually sustained over the last publish
    /// interval, in edge events/s — read next to the prediction to see
    /// capacity headroom (`seqge_backend_measured_ingest_eps`).
    pub backend_measured_eps: Arc<Gauge>,
    /// Fixed-vs-float embedding deviation measured by the backend's shadow
    /// probe at the last publish closing a shadowed window, in ppm — the
    /// paper's Fig. 4 accuracy gap as a live series
    /// (`seqge_backend_deviation`).
    pub backend_deviation: Arc<Gauge>,
    /// Fixed-point saturation events the backend's kernel counted on
    /// write-back, every walk (`seqge_backend_saturations_total`; zero for
    /// backends without one).
    pub backend_saturations: Arc<Counter>,
}

impl ServeStats {
    /// Registers every serve-plane series in `registry` and returns the
    /// shared handles.
    pub fn new(registry: &Registry) -> Self {
        ServeStats {
            enqueued: registry.counter("seqge_serve_events_enqueued_total"),
            applied: registry.counter("seqge_serve_events_applied_total"),
            rejected: registry.counter("seqge_serve_events_rejected_total"),
            walks_trained: registry.counter("seqge_serve_walks_trained_total"),
            refreshes: registry.counter("seqge_serve_refreshes_total"),
            snapshots_written: registry.counter("seqge_serve_snapshots_written_total"),
            backlog: registry.gauge("seqge_serve_trainer_backlog"),
            ingest_batch: registry.histogram("seqge_serve_ingest_batch_size"),
            snapshot_ns: registry.histogram("seqge_serve_snapshot_write_ns"),
            wal_appends: registry.counter("seqge_serve_wal_appends_total"),
            wal_append_errors: registry.counter("seqge_serve_wal_append_errors_total"),
            wal_fsyncs: registry.counter("seqge_serve_wal_fsyncs_total"),
            wal_rotations: registry.counter("seqge_serve_wal_rotations_total"),
            wal_replayed: registry.counter("seqge_serve_wal_replayed_total"),
            wal_append_ns: registry.histogram("seqge_serve_wal_append_ns"),
            overloaded: registry.counter("seqge_serve_overloaded_total"),
            deduped: registry.counter("seqge_serve_deduped_total"),
            faults: FaultPoint::ALL
                .iter()
                .map(|&p| {
                    (
                        p,
                        registry.counter_with(
                            "seqge_serve_fault_injected_total",
                            &[("point", p.name())],
                        ),
                    )
                })
                .collect(),
            ann_queries: registry.counter("seqge_ann_queries_total"),
            ann_fallbacks: registry.counter("seqge_ann_fallbacks_total"),
            ann_candidates: registry.histogram("seqge_ann_candidates"),
            ann_sync_ns: registry.histogram("seqge_ann_sync_ns"),
            ann_rehashed: registry.counter("seqge_ann_rehashed_total"),
            ann_indexed: registry.gauge("seqge_ann_indexed_points"),
            ann_dirty_ppm: registry.gauge("seqge_ann_dirty_ppm"),
            freshness_ns: FRESHNESS_BATCH_BUCKETS
                .iter()
                .map(|&b| (b, registry.histogram_with("seqge_freshness_ns", &[("batch", b)])))
                .collect(),
            writes_visible: registry.counter("seqge_freshness_events_total"),
            staleness_ms: registry.gauge("seqge_snapshot_staleness_ms"),
            backend_cycles: registry.counter("seqge_backend_cycles_total"),
            backend_predicted_eps: registry.gauge("seqge_backend_predicted_ingest_eps"),
            backend_measured_eps: registry.gauge("seqge_backend_measured_ingest_eps"),
            backend_deviation: registry.gauge("seqge_backend_deviation"),
            backend_saturations: registry.counter("seqge_backend_saturations_total"),
        }
    }

    /// The freshness histogram for a publish folding `n` writes.
    pub fn freshness(&self, n: usize) -> &Histogram {
        let bucket = batch_bucket(n);
        let (_, h) = self
            .freshness_ns
            .iter()
            .find(|(b, _)| *b == bucket)
            .expect("every bucket pre-registered");
        h
    }

    /// Mirrors one [`AnnBuilder::sync`] outcome into the registry.
    pub fn record_ann_sync(&self, rep: &SyncReport) {
        self.ann_sync_ns.record(rep.build_ns);
        self.ann_rehashed.add(rep.rehashed as u64);
        self.ann_indexed.set(rep.total as i64);
        self.ann_dirty_ppm.set(rep.dirty_ppm() as i64);
    }

    /// Events queued but not yet applied or rejected.
    pub fn pending(&self) -> u64 {
        self.enqueued.get().saturating_sub(self.applied.get()).saturating_sub(self.rejected.get())
    }

    /// Refreshes the backlog gauge from the monotonic counters.
    pub fn update_backlog(&self) {
        self.backlog.set(self.pending() as i64);
    }

    /// Mirrors the WAL's internal counters into the registry (the WAL is
    /// created before the registry exists, so it counts in plain atomics).
    pub fn sync_wal(&self, wal: &Wal) {
        self.wal_appends.set_to(wal.appended());
        self.wal_append_errors.set_to(wal.append_errors());
        self.wal_fsyncs.set_to(wal.fsyncs());
        self.wal_rotations.set_to(wal.rotations());
        self.wal_replayed.set_to(wal.recovery().replayed);
    }

    /// Mirrors fired fault counts into the registry.
    pub fn sync_faults(&self, inj: &FaultInjector) {
        for (p, c) in &self.faults {
            c.set_to(inj.fired(*p));
        }
    }
}

/// Messages the trainer thread understands.
pub enum TrainerMsg {
    /// An edge mutation from the write plane, tagged with its WAL sequence
    /// number (0 when the server runs without a WAL) and the observability
    /// context closed at snapshot publication.
    Event(u64, EdgeEvent, WriteCtx),
    /// Barrier: drain everything queued before this message, publish, and
    /// ack with the published version.
    Flush(Sender<u64>),
    /// Commit a snapshot generation to the WAL store; ack with the written
    /// paths, or an error on an ephemeral server.
    Snapshot(Sender<Result<(PathBuf, PathBuf), String>>),
    /// Drain in-flight events, commit a final generation (WAL only),
    /// publish, ack, and exit the thread.
    Shutdown(Sender<u64>),
}

/// Max events folded into the model between two snapshot publications.
pub const BATCH_MAX: usize = 256;

/// The trainer thread's whole world.
pub struct Trainer {
    fold: Fold,
    cell: Arc<SnapshotCell>,
    stats: Arc<ServeStats>,
    wal: Option<Arc<Wal>>,
    fault: Arc<FaultInjector>,
    version: u64,
    /// Incremental ANN index maintainer: only dirty rows re-hash.
    ann: AnnBuilder,
    /// Write contexts consumed since the last publish; closed (freshness
    /// histogram + `write.visible` spans) when the next snapshot goes out.
    inflight_writes: Vec<WriteCtx>,
    /// When the current snapshot was published (drives the staleness gauge
    /// and the `stats` op's always-on readout via the cell).
    last_publish: Option<Instant>,
    /// Events applied since the last publish (drives the measured ingest
    /// rate the planner gauges compare against).
    applied_since_publish: u64,
}

impl Trainer {
    /// Builds the trainer — resuming the sequence/refresh cursors from the
    /// WAL's recovery report when there is one — around a fresh
    /// [`SnapshotCell`] that holds the boot snapshot (version 0).
    /// `refresh_every` is the corpus-resample cadence [`Fold::apply`] runs.
    pub fn new(
        graph: Graph,
        backend: Box<dyn TrainBackend>,
        stats: Arc<ServeStats>,
        refresh_every: u64,
        wal: Option<Arc<Wal>>,
        fault: Arc<FaultInjector>,
    ) -> Self {
        let rec = wal.as_ref().map(|w| w.recovery()).unwrap_or_default();
        if let Some(w) = &wal {
            stats.sync_wal(w);
        }
        let applied_seq = rec.next_seq.saturating_sub(1);
        let mut fold = Fold::new(graph, backend, applied_seq, rec.since_refresh, refresh_every);
        let mut ann = AnnBuilder::new(AnnConfig::default());
        let boot = Self::render(&mut fold, &mut ann, &stats, 0);
        let mut t = Trainer {
            fold,
            cell: Arc::new(SnapshotCell::new(boot)),
            stats,
            wal,
            fault,
            version: 1,
            ann,
            inflight_writes: Vec::new(),
            last_publish: None,
            applied_since_publish: 0,
        };
        t.sync_stats();
        t.close_freshness();
        t
    }

    /// The cell this trainer publishes into.
    pub fn cell(&self) -> Arc<SnapshotCell> {
        self.cell.clone()
    }

    fn sync_stats(&self) {
        // `set_to` keeps the counter monotone even though the trainer
        // publishes an absolute count.
        self.stats.walks_trained.set_to(self.fold.backend.outcome().walks_trained as u64);
    }

    /// [`Fold::snapshot`], with what it refreshed — the cycle plan, the
    /// sampled shadow deviation, the kernel's saturation count, the index
    /// sync — mirrored into the registry.
    fn render(
        fold: &mut Fold,
        ann: &mut AnnBuilder,
        stats: &ServeStats,
        version: u64,
    ) -> EmbeddingSnapshot {
        let (snapshot, report) = fold.snapshot(version, Some(ann));
        if let Some(plan) = fold.backend.planner() {
            stats.backend_cycles.set_to(plan.cycles_total);
            stats.backend_predicted_eps.set(plan.predicted_ingest_eps as i64);
        }
        if let Some(ppm) = fold.backend.deviation_ppm() {
            stats.backend_deviation.set(ppm);
        }
        if let Some(n) = fold.backend.saturations() {
            stats.backend_saturations.set_to(n);
        }
        if let Some(rep) = &report {
            stats.record_ann_sync(rep);
        }
        snapshot
    }

    fn publish(&mut self) {
        let snapshot = Self::render(&mut self.fold, &mut self.ann, &self.stats, self.version);
        self.cell.publish(snapshot);
        self.version += 1;
        self.close_freshness();
    }

    /// The always-on freshness bookkeeping at snapshot publication: set the
    /// staleness gauge (age of the snapshot just replaced), count newly
    /// visible writes, and — when timing is on — record write-to-visibility
    /// latencies into the batch-bucketed histogram and close each sampled
    /// write's `write.visible` span.
    fn close_freshness(&mut self) {
        // One clock read per publish (per *batch*, not per event), so this
        // stays within the "cheap always-on" budget with SEQGE_OBS=off.
        let now = Instant::now();
        if let Some(prev) = self.last_publish {
            let dt = now.duration_since(prev);
            self.stats.staleness_ms.set(dt.as_millis() as i64);
            if self.applied_since_publish > 0 && !dt.is_zero() {
                let eps = self.applied_since_publish as f64 / dt.as_secs_f64();
                self.stats.backend_measured_eps.set(eps as i64);
            }
        }
        self.applied_since_publish = 0;
        self.last_publish = Some(now);
        self.cell.mark_published(now);
        if self.inflight_writes.is_empty() {
            return;
        }
        let batch = self.inflight_writes.len();
        let bucket = batch_bucket(batch);
        let hist = self.stats.freshness(batch);
        for w in std::mem::take(&mut self.inflight_writes) {
            self.stats.writes_visible.inc();
            if let Some(t) = w.enqueued {
                let ns = now.saturating_duration_since(t).as_nanos() as u64;
                hist.record(ns);
                if let Some(ctx) = w.trace {
                    seqge_obs::trace::record_closed(
                        "write.visible",
                        ctx,
                        t,
                        ns,
                        vec![
                            ("batch".to_string(), bucket.to_string()),
                            ("version".to_string(), (self.version - 1).to_string()),
                        ],
                    );
                }
            }
        }
    }

    fn apply(&mut self, seq: u64, event: EdgeEvent, ctx: WriteCtx) {
        if self.fault.should(FaultPoint::TrainerPanic) {
            panic!("injected trainer panic");
        }
        if self.fault.should(FaultPoint::TrainerStall) {
            std::thread::sleep(self.fault.stall());
        }
        // An ephemeral server numbers nothing: arrival order is the sequence.
        let seq = if self.wal.is_some() { seq } else { self.fold.applied_seq() + 1 };
        let step = self.fold.apply(seq, event);
        match step.applied {
            Applied::Trained(_) => {
                self.stats.applied.inc();
                self.applied_since_publish += 1;
            }
            // The log hands out strictly increasing numbers, so a skip can
            // only be settled like a rejection: it must leave the backlog.
            Applied::Rejected | Applied::Skipped => self.stats.rejected.inc(),
        }
        if step.refreshed {
            self.stats.refreshes.inc();
        }
        self.inflight_writes.push(ctx);
        self.sync_stats();
        self.stats.update_backlog();
    }

    /// Commits a snapshot generation of the current state to the WAL store.
    /// An ephemeral server has nowhere to write.
    fn write_snapshot(&self) -> Result<(PathBuf, PathBuf), String> {
        let wal = self.wal.as_ref().ok_or("ephemeral server (started without --wal-dir)")?;
        let t0 = Instant::now();
        let paths = wal.commit_snapshot(&self.fold).map_err(|e| format!("snapshot: {e}"))?;
        self.stats.sync_wal(wal);
        self.stats.snapshots_written.inc();
        self.stats.snapshot_ns.record(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        Ok(paths)
    }

    /// Fsync + counter mirror at a batch boundary. `force` commits
    /// unconditionally (queue drained, flush barrier, shutdown); otherwise
    /// the WAL group-commits on its count/age threshold so a busy trainer
    /// is not stalled by an fsync per batch.
    fn batch_boundary(&self, force: bool) {
        if let Some(wal) = &self.wal {
            let r = if force { wal.commit() } else { wal.batch_commit() };
            if let Err(e) = r {
                seqge_obs::error!("serve", "wal batch fsync failed: {e}");
            }
            self.stats.sync_wal(wal);
        }
        self.stats.sync_faults(&self.fault);
    }

    /// Runs the event loop until [`TrainerMsg::Shutdown`] or every sender
    /// hangs up. Consumes the trainer.
    pub fn run(mut self, rx: Receiver<TrainerMsg>) {
        loop {
            let first = match rx.recv() {
                Ok(m) => m,
                Err(_) => return, // all senders gone: server tore down
            };
            let mut control = None;
            match first {
                TrainerMsg::Event(seq, e, ctx) => {
                    self.apply(seq, e, ctx);
                    let mut batched = 1usize;
                    let mut drained = false;
                    // Opportunistic batch: drain whatever queued up while
                    // training, then publish once.
                    while batched < BATCH_MAX {
                        match rx.try_recv() {
                            Ok(TrainerMsg::Event(seq, e, ctx)) => {
                                self.apply(seq, e, ctx);
                                batched += 1;
                            }
                            Ok(other) => {
                                control = Some(other);
                                break;
                            }
                            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => {
                                drained = true;
                                break;
                            }
                        }
                    }
                    self.publish();
                    self.stats.ingest_batch.record(batched as u64);
                    // Force the fsync when the queue is empty: the next
                    // boundary could be arbitrarily far away.
                    self.batch_boundary(drained);
                }
                other => control = Some(other),
            }
            if let Some(msg) = control {
                match msg {
                    TrainerMsg::Event(..) => unreachable!("events handled above"),
                    TrainerMsg::Flush(ack) => {
                        // Everything sent before the flush is already
                        // applied (single FIFO channel), so just publish.
                        self.publish();
                        self.batch_boundary(true);
                        let _ = ack.send(self.version - 1);
                    }
                    TrainerMsg::Snapshot(ack) => {
                        let _ = ack.send(self.write_snapshot());
                    }
                    TrainerMsg::Shutdown(ack) => {
                        // Drain in-flight events so nothing queued is lost…
                        while let Ok(msg) = rx.try_recv() {
                            match msg {
                                TrainerMsg::Event(seq, e, ctx) => {
                                    self.apply(seq, e, ctx);
                                }
                                TrainerMsg::Flush(a) => {
                                    let _ = a.send(self.version);
                                }
                                TrainerMsg::Snapshot(a) => {
                                    let _ = a.send(Err("shutting down".to_string()));
                                }
                                TrainerMsg::Shutdown(a) => {
                                    let _ = a.send(self.version);
                                }
                            }
                        }
                        // …then commit a final generation, so the next boot
                        // replays nothing.
                        if self.wal.is_some() {
                            if let Err(e) = self.write_snapshot() {
                                seqge_obs::error!("serve", "final snapshot failed: {e}");
                            }
                        }
                        self.publish();
                        self.batch_boundary(true);
                        let _ = ack.send(self.version - 1);
                        return;
                    }
                }
            }
        }
    }
}
