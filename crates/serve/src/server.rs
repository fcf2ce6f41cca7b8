//! The node: a [`front`] end whose [`Service`] answers read-plane queries
//! from each worker's own [`SnapshotReader`] (lock-free in steady state)
//! and forwards write-plane commands to the trainer thread.
//!
//! Failure-awareness:
//!
//! * with a WAL attached, every write is appended + (policy) fsynced
//!   *before* it is queued to the trainer — an acked write survives kill -9
//!   (without one the server is ephemeral: state dies with the process);
//! * retried writes carrying a [`protocol::WriteId`] dedup against a
//!   per-client high-water-mark table instead of double-applying;
//! * read-plane requests are shed with an explicit `overloaded` error once
//!   the trainer backlog passes `max_backlog` — the write plane is never
//!   blocked to protect reads;
//! * connection shedding, read deadlines and write timeouts are the front
//!   end's (see [`front`]).

use crate::dedup::DedupTable;
use crate::fault::{FaultInjector, FaultPoint};
use crate::front::{self, FrontHandle, Plane, Service};
use crate::protocol::{self, op_name, Request, Response, CODE_OVERLOADED};
use crate::snapshot::{SnapshotCell, SnapshotReader};
use crate::trainer::{ServeStats, Trainer, TrainerMsg, WriteCtx};
use crate::wal::{Wal, WalBoot, WalConfig};
use seqge_backend::{BackendSpec, TrainBackend};
use seqge_graph::{EdgeEvent, Graph};
use seqge_obs::{Registry, TraceCtx};
use serde_json::Value;
use std::io::{self, ErrorKind};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Distinct clients the write-dedup table remembers; past this the least
/// recently recorded client is evicted (see [`crate::dedup::DedupTable`]).
/// A retry from an evicted client is no longer recognized; the graph still
/// rejects it if it is a duplicate add or a missing remove.
const DEDUP_MAX_CLIENTS: usize = 65_536;

/// Server-side configuration.
pub struct ServeConfig {
    /// Worker threads answering queries (≥ 1).
    pub workers: usize,
    /// Resample the full walk corpus after this many applied events
    /// (0 = never). Counters the staleness of per-edge walks under heavy
    /// drift — see [`crate::Fold::apply`]. WAL replay reads it too, so a
    /// store must be reopened with the value it was written under.
    pub refresh_every: u64,
    /// The node's write-ahead log. `None` makes the server ephemeral:
    /// nothing is persisted and `snapshot` answers an error.
    pub wal: Option<Arc<Wal>>,
    /// Fault injection schedule (disabled outside chaos testing).
    pub fault: Arc<FaultInjector>,
    /// Shed read-plane requests with `overloaded` once the trainer backlog
    /// passes this many events.
    pub max_backlog: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            refresh_every: 0,
            wal: None,
            fault: Arc::new(FaultInjector::disabled()),
            max_backlog: 8192,
        }
    }
}

/// Boots a WAL-backed store: recovers a committed one (snapshot restore +
/// replay of the unapplied log suffix — `cold_graph` is then ignored), or
/// initialises a fresh store from `cold_graph` with a bootstrap pass. The
/// spec picks the training engine; recovering a store written by a
/// different backend fails loudly (the snapshot carries its kind).
pub fn boot_wal(
    wcfg: &WalConfig,
    cold_graph: Option<Graph>,
    spec: &BackendSpec,
    refresh_every: u64,
) -> io::Result<WalBoot> {
    if let Some(boot) = Wal::recover(wcfg, spec, refresh_every)? {
        return Ok(boot);
    }
    let graph = cold_graph.ok_or_else(|| {
        io::Error::new(
            ErrorKind::NotFound,
            format!("{}: no committed store and no graph to cold-boot from", wcfg.dir.display()),
        )
    })?;
    let mut backend = spec.cold(graph.num_nodes());
    backend.bootstrap(&graph);
    let wal = Wal::init(wcfg, &*backend, &graph)?;
    let report = wal.recovery();
    Ok(WalBoot { graph, backend, wal, report })
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] aborts ungracefully (threads are detached).
pub struct ServerHandle {
    front: FrontHandle,
    stats: Arc<ServeStats>,
    cell: Arc<SnapshotCell>,
    trainer_tx: Sender<TrainerMsg>,
    trainer: JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address (port is concrete even when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// The stop flag; external signal handlers set this to request a
    /// graceful shutdown (then call [`ServerHandle::shutdown`] to wait).
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        self.front.stop_flag()
    }

    /// Shared telemetry counters.
    pub fn stats(&self) -> Arc<ServeStats> {
        self.stats.clone()
    }

    /// The snapshot cell (in-process clients can query without TCP).
    pub fn cell(&self) -> Arc<SnapshotCell> {
        self.cell.clone()
    }

    /// Blocks until the stop flag is set (by SIGINT, a `shutdown` command,
    /// or another thread), then tears down gracefully.
    pub fn wait(self) -> io::Result<()> {
        self.front.wait_stopped();
        self.shutdown()
    }

    /// Graceful shutdown: stop accepting, drain the in-flight training
    /// batch, commit a final snapshot generation (WAL only), join every
    /// thread.
    pub fn shutdown(self) -> io::Result<()> {
        self.front.stop_flag().store(true, Ordering::SeqCst);
        let (ack_tx, ack_rx) = channel();
        // The trainer may already be gone if every sender dropped; both
        // outcomes mean "drained".
        if self.trainer_tx.send(TrainerMsg::Shutdown(ack_tx)).is_ok() {
            let _ = ack_rx.recv_timeout(Duration::from_secs(30));
        }
        drop(self.trainer_tx);
        let trainer = self.trainer.join().map_err(|_| io::Error::other("trainer thread panicked"));
        trainer.and(self.front.shutdown())
    }
}

/// Starts the server on `addr` (use port 0 for an ephemeral port) with any
/// training backend and returns immediately; all work happens on background
/// threads.
pub fn start_backend(
    addr: &str,
    graph: Graph,
    backend: Box<dyn TrainBackend>,
    config: ServeConfig,
) -> io::Result<ServerHandle> {
    // Per-server registry: concurrent servers in one process (tests) keep
    // isolated request series; library-level series stay in the global
    // registry and are merged at export time.
    let registry = Arc::new(Registry::new());
    let stats = Arc::new(ServeStats::new(&registry));
    // The backend self-describes (engine name + key params) for the `stats`
    // reply and cluster homogeneity checks; captured before the backend
    // moves into the trainer thread.
    let backend_desc = serde_json::from_str(&backend.descriptor())
        .unwrap_or_else(|_| Value::Str(backend.kind().as_str().to_string()));
    let (tx, rx) = channel::<TrainerMsg>();
    // The trainer is the sole owner of graph + backend (model and
    // incremental-training state). Its cell is born holding the version-0
    // snapshot, before any worker spawns.
    let trainer = Trainer::new(
        graph,
        backend,
        stats.clone(),
        config.refresh_every,
        config.wal.clone(),
        config.fault.clone(),
    );
    let cell = trainer.cell();
    let stop = Arc::new(AtomicBool::new(false));
    let node = Node {
        cell: cell.clone(),
        stats: stats.clone(),
        registry: registry.clone(),
        backend: backend_desc,
        started: Instant::now(),
        stop: stop.clone(),
        trainer_tx: tx.clone(),
        wal: config.wal,
        fault: config.fault,
        dedup: Mutex::new(DedupTable::new(DEDUP_MAX_CLIENTS)),
        max_backlog: config.max_backlog,
    };
    let trainer =
        thread::Builder::new().name("seqge-trainer".to_string()).spawn(move || trainer.run(rx))?;
    let front = front::start(addr, config.workers, registry, stop, node)?;
    Ok(ServerHandle { front, stats, cell, trainer_tx: tx, trainer })
}

/// What every worker of a node shares.
struct Node {
    cell: Arc<SnapshotCell>,
    stats: Arc<ServeStats>,
    registry: Arc<Registry>,
    /// The trainer backend's self-description (engine name + key params),
    /// embedded in every `stats` reply.
    backend: Value,
    started: Instant,
    stop: Arc<AtomicBool>,
    trainer_tx: Sender<TrainerMsg>,
    wal: Option<Arc<Wal>>,
    fault: Arc<FaultInjector>,
    /// Per-client highest acked write `seq` (see [`protocol::WriteId`]),
    /// an LRU of [`DEDUP_MAX_CLIENTS`] clients.
    dedup: Mutex<DedupTable>,
    max_backlog: u64,
}

impl Service for Node {
    const PLANE: Plane = Plane::Serve;
    type Worker = SnapshotReader;

    fn worker(&self) -> SnapshotReader {
        SnapshotReader::new(self.cell.clone())
    }

    fn handle(
        &self,
        reader: &mut SnapshotReader,
        req: Request,
        _line: &str,
        trace: Option<TraceCtx>,
    ) -> (String, bool) {
        match req {
            Request::Ping => (Response::ok().field("pong", true).build(), false),
            Request::Stats => (self.stats_reply(reader), false),
            Request::GetEmbedding { .. } | Request::TopK { .. } | Request::ScoreLink { .. }
                if self.overloaded() =>
            {
                self.stats.overloaded.inc();
                let msg = format!(
                    "overloaded: trainer backlog {} exceeds {}",
                    self.stats.pending(),
                    self.max_backlog
                );
                (Response::err_code(CODE_OVERLOADED, msg), false)
            }
            Request::GetEmbedding { node } => {
                let snap = reader.current();
                let reply = match snap.embedding(node) {
                    Some(row) => Response::embedding(node, snap.version, row).build(),
                    None => {
                        Response::err(format!("node {node} out of range (0..{})", snap.num_nodes()))
                    }
                };
                (reply, false)
            }
            Request::TopK { node, k, op, filter, mode, probes } => {
                let snap = reader.current();
                let answered = match mode {
                    protocol::TopKMode::Exact => {
                        snap.topk_filtered(node, k, op, filter).map(|hits| (hits, None))
                    }
                    protocol::TopKMode::Ann => {
                        snap.topk_ann(node, k, op, filter, probes).map(|r| {
                            self.stats.ann_queries.inc();
                            self.stats.ann_candidates.record(r.candidates as u64);
                            if r.fallback {
                                self.stats.ann_fallbacks.inc();
                            }
                            (r.hits, Some(r.fallback))
                        })
                    }
                };
                let reply = match answered {
                    Some((hits, fallback)) => {
                        let mut resp = Response::ok()
                            .field("node", node)
                            .field("op", op_name(op))
                            .field("mode", mode.as_str())
                            .field("version", snap.version)
                            .results(hits);
                        if let Some(fb) = fallback {
                            resp = resp.field("fallback", fb);
                        }
                        resp.build()
                    }
                    None => {
                        Response::err(format!("node {node} out of range (0..{})", snap.num_nodes()))
                    }
                };
                (reply, false)
            }
            Request::ScoreLink { u, v, op } => {
                let snap = reader.current();
                let reply = match snap.score(u, v, op) {
                    Some(s) => Response::score(u, v, op, snap.version, s).build(),
                    None => Response::err(format!(
                        "node pair ({u}, {v}) out of range (0..{})",
                        snap.num_nodes()
                    )),
                };
                (reply, false)
            }
            Request::AddEdge { u, v, write_id } => {
                self.write(reader, EdgeEvent::Add(u, v), write_id, trace)
            }
            Request::RemoveEdge { u, v, write_id } => {
                self.write(reader, EdgeEvent::Remove(u, v), write_id, trace)
            }
            Request::Flush => match self.ask(TrainerMsg::Flush, "flush") {
                Ok(version) => (Response::ok().field("version", version).build(), false),
                Err(reply) => reply,
            },
            Request::Snapshot => match self.ask(TrainerMsg::Snapshot, "snapshot") {
                Ok(Ok((model, graph))) => (
                    Response::ok()
                        .field("model", model.display().to_string())
                        .field("graph", graph.display().to_string())
                        .build(),
                    false,
                ),
                Ok(Err(e)) => (Response::err(e), false),
                Err(reply) => reply,
            },
            Request::Metrics { format } => {
                if let Some(wal) = &self.wal {
                    self.stats.sync_wal(wal);
                }
                self.stats.sync_faults(&self.fault);
                let regs: [&Registry; 2] = [self.registry.as_ref(), Registry::global()];
                (Response::ok().metrics(format, &regs).build(), false)
            }
            Request::Trace { after } => (Response::ok().trace(after).build(), false),
            Request::Flightrec => {
                let doc = seqge_obs::flightrec::document("serve");
                // The document is known-valid JSON; embed it structurally so
                // clients get an object, not a double-encoded string.
                let body =
                    serde_json::from_str::<Value>(&doc).unwrap_or_else(|_| Value::Str(doc.clone()));
                (Response::ok().field("body", body).build(), false)
            }
            Request::Shutdown => {
                self.stop.store(true, Ordering::SeqCst);
                (Response::ok().field("shutting_down", true).build(), true)
            }
            Request::ClusterStatus => {
                (Response::err("cluster_status is a cluster router op; this is a node"), false)
            }
        }
    }

    fn deliver(&self) -> bool {
        if self.fault.should(FaultPoint::ConnDrop) {
            // Ack lost: the request may have been fully applied. This is
            // the case WriteId dedup exists for.
            return false;
        }
        if self.fault.should(FaultPoint::ConnStall) {
            thread::sleep(self.fault.stall());
        }
        true
    }
}

impl Node {
    /// Sends the trainer `msg` with an ack channel and waits for the ack;
    /// the error is the reply to give instead.
    fn ask<T>(&self, msg: fn(Sender<T>) -> TrainerMsg, what: &str) -> Result<T, (String, bool)> {
        let (ack_tx, ack_rx) = channel();
        if self.trainer_tx.send(msg(ack_tx)).is_err() {
            return Err((Response::err("trainer is shut down"), true));
        }
        let waited = ack_rx.recv_timeout(Duration::from_secs(120));
        waited.map_err(|_| (Response::err(format!("{what} timed out")), false))
    }

    /// Whether a read-plane request must be shed to protect the write
    /// plane. The check is a couple of relaxed counter loads.
    fn overloaded(&self) -> bool {
        self.stats.pending() > self.max_backlog
    }

    fn stats_reply(&self, reader: &mut SnapshotReader) -> String {
        let snap = reader.current();
        let mut resp = Response::ok()
            .field("version", snap.version)
            .field("nodes", snap.num_nodes())
            .field("edges", snap.num_edges)
            .field("dim", snap.dim())
            .field("walks_trained", snap.walks_trained)
            .field("edges_inserted", snap.edges_inserted)
            .field("edges_removed", snap.edges_removed)
            .field("backend", self.backend.clone())
            .field("snapshot_version", self.cell.version())
            .field("uptime_ms", self.started.elapsed().as_millis() as u64)
            .field("pending", self.stats.pending())
            .field("enqueued", self.stats.enqueued.get())
            .field("applied", self.stats.applied.get())
            .field("rejected", self.stats.rejected.get())
            .field("refreshes", self.stats.refreshes.get())
            .field("snapshots_written", self.stats.snapshots_written.get())
            .field("deduped", self.stats.deduped.get())
            .field("overloaded", self.stats.overloaded.get())
            // Always-on freshness readout: how old the published snapshot
            // is right now (no obs env flag required).
            .field("snapshot_staleness_ms", self.cell.staleness_ms());
        if let Some(wal) = &self.wal {
            resp = resp
                .field("wal", true)
                .field("wal_fsync", wal.fsync_policy().as_str())
                .field("wal_appends", wal.appended())
                .field("wal_append_errors", wal.append_errors())
                .field("wal_fsyncs", wal.fsyncs())
                .field("wal_rotations", wal.rotations())
                .field("wal_replayed", wal.recovery().replayed)
                .field("wal_gen", wal.recovery().gen);
        } else {
            resp = resp.field("wal", false);
        }
        resp.build()
    }

    fn write(
        &self,
        reader: &mut SnapshotReader,
        event: EdgeEvent,
        write_id: Option<protocol::WriteId>,
        trace: Option<TraceCtx>,
    ) -> (String, bool) {
        let (EdgeEvent::Add(u, v) | EdgeEvent::Remove(u, v)) = event;
        let n = reader.current().num_nodes();
        if u as usize >= n || v as usize >= n {
            return (Response::err(format!("node pair ({u}, {v}) out of range (0..{n})")), false);
        }
        if u == v {
            return (Response::err("self loops are not allowed"), false);
        }
        // A write carrying a WriteId is decided under one dedup lock, held
        // from the check through the append to the record, so concurrent
        // retries of one write log it once. Lock order is dedup → WAL; the
        // trainer never takes the dedup lock.
        let dedup = write_id.as_ref().map(|wid| (wid, self.dedup.lock().expect("dedup poisoned")));
        if let Some((wid, table)) = &dedup {
            if table.already_acked(wid) {
                // A retry of an acked write: the ack was lost, not the write.
                self.stats.deduped.inc();
                let reply = Response::ok().field("queued", true).field("deduped", true);
                return (reply.build(), false);
            }
        }
        // The write's observability context rides the in-memory queue only
        // (never the on-disk WAL format — replay stays bit-identical): the
        // trainer closes the write-to-visibility measurement when the
        // edge's effect lands in a published snapshot.
        let wctx = WriteCtx::at_enqueue(trace);
        // `Some(seq)` when WAL-logged, `None` when queued directly.
        let queued: Option<u64> = match &self.wal {
            Some(wal) => {
                let span = seqge_obs::SpanGuard::start(&self.stats.wal_append_ns);
                let appended = wal.append_then(event, &self.fault, |seq| {
                    self.trainer_tx.send(TrainerMsg::Event(seq, event, wctx.clone()))
                });
                span.finish();
                match appended {
                    Ok(seq) => Some(seq),
                    Err(e) if e.kind() == ErrorKind::BrokenPipe => {
                        return (Response::err("trainer is shut down"), true);
                    }
                    Err(e) => return (Response::err(format!("wal append failed: {e}")), false),
                }
            }
            None => match self.trainer_tx.send(TrainerMsg::Event(0, event, wctx)) {
                Ok(()) => None,
                Err(_) => return (Response::err("trainer is shut down"), true),
            },
        };
        // Only a logged and queued write counts as acked: a failed append
        // above leaves the retry replayable.
        if let Some((wid, mut table)) = dedup {
            table.record(wid);
        }
        self.stats.enqueued.inc();
        self.stats.update_backlog();
        let mut resp = Response::ok().field("queued", true).field("pending", self.stats.pending());
        if let Some(seq) = queued {
            resp = resp.field("seq", seq);
        }
        (resp.build(), false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;

    #[test]
    fn a_node_refuses_cluster_status_with_a_plain_error() {
        let graph = seqge_graph::generators::classic::erdos_renyi(8, 0.5, 1);
        let spec = crate::shard_spec(seqge_backend::BackendKind::Float, 4, 1);
        let mut backend = spec.cold(graph.num_nodes());
        backend.bootstrap(&graph);
        let node = start_backend("127.0.0.1:0", graph, backend, ServeConfig::default())
            .expect("node boots");
        let reply = Client::connect(node.addr())
            .and_then(|mut c| c.call_raw(r#"{"cmd":"cluster_status"}"#))
            .expect("answered");
        let v: Value = serde_json::from_str(&reply).expect("reply is JSON");
        assert_eq!(v.get("ok"), Some(&Value::Bool(false)), "{reply}");
        assert!(v.get("code").is_none(), "a refusal, not a shed or a degradation: {reply}");
        node.shutdown().expect("node stops");
    }
}
