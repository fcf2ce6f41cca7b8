//! The TCP front end: accept loop, worker thread pool, request dispatch.
//!
//! Pure `std` (no async runtime): a nonblocking acceptor feeds accepted
//! connections into a `Mutex<VecDeque>`/`Condvar` work queue drained by a
//! fixed pool of worker threads. Each worker handles one connection at a
//! time, reading LF-delimited JSON requests with a short read timeout so it
//! can notice shutdown, answering read-plane queries from its own
//! [`SnapshotReader`] cache (lock-free in steady state) and forwarding
//! write-plane commands to the trainer thread.
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
//! * the acceptor sheds whole connections once the worker queue is full;
//! * idle connections are closed after a read deadline, and response
//!   writes time out instead of blocking a worker forever on a stalled
//!   peer (see [`serve_lines`]).

use crate::dedup::DedupTable;
use crate::fault::{FaultInjector, FaultPoint};
use crate::protocol::{
    self, op_name, span_value, MetricsFormat, Request, Response, WireOp, CODE_OVERLOADED,
    MAX_LINE_BYTES, WIRE_OPS,
};
use crate::snapshot::{SnapshotCell, SnapshotReader};
use crate::trainer::{ServeStats, Trainer, TrainerConfig, TrainerMsg, WriteCtx};
use crate::wal::{Wal, WalBoot, WalConfig};
use seqge_backend::{BackendSpec, TrainBackend};
use seqge_graph::{EdgeEvent, Graph};
use seqge_obs::{export, Counter, Gauge, Histogram, Registry};
use serde_json::Value;
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Distinct clients the write-dedup table remembers; stalest clients fall
/// out of the sliding window past this (see [`crate::dedup::DedupTable`]).
/// An evicted client's replayed retry is no longer recognized, but the
/// graph invariants (duplicate add / missing remove are rejected) still
/// stop it from training twice — the table is an optimization for crisp
/// `deduped` acks, not the correctness backstop.
const DEDUP_MAX_CLIENTS: usize = 65_536;

/// The acceptor sheds new connections once this many are queued for workers.
const MAX_CONN_QUEUE: usize = 1024;
/// A connection idle this long without a complete request is closed.
const READ_DEADLINE: Duration = Duration::from_secs(300);
/// A response write stalled this long (dead peer) gives up.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Server-side configuration (trainer knobs ride along in [`TrainerConfig`]).
pub struct ServeConfig {
    /// Worker threads answering queries (≥ 1).
    pub workers: usize,
    /// Trainer-side knobs: batching, resample cadence, ANN index.
    pub trainer: TrainerConfig,
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
            trainer: TrainerConfig::default(),
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
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<ServeStats>,
    registry: Arc<Registry>,
    cell: Arc<SnapshotCell>,
    trainer_tx: Sender<TrainerMsg>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (port is concrete even when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The stop flag; external signal handlers set this to request a
    /// graceful shutdown (then call [`ServerHandle::shutdown`] to wait).
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        self.stop.clone()
    }

    /// Shared telemetry counters.
    pub fn stats(&self) -> Arc<ServeStats> {
        self.stats.clone()
    }

    /// This server's metrics registry (the `metrics` op merges it with
    /// [`Registry::global`]).
    pub fn registry(&self) -> Arc<Registry> {
        self.registry.clone()
    }

    /// The snapshot cell (in-process clients can query without TCP).
    pub fn cell(&self) -> Arc<SnapshotCell> {
        self.cell.clone()
    }

    /// Blocks until the stop flag is set (by SIGINT, a `shutdown` command,
    /// or another thread), then tears down gracefully.
    pub fn wait(self) -> io::Result<()> {
        while !self.stop.load(Ordering::SeqCst) {
            thread::sleep(Duration::from_millis(50));
        }
        self.shutdown()
    }

    /// Graceful shutdown: stop accepting, drain the in-flight training
    /// batch, commit a final snapshot generation (WAL only), join every
    /// thread.
    pub fn shutdown(self) -> io::Result<()> {
        self.stop.store(true, Ordering::SeqCst);
        let (ack_tx, ack_rx) = channel();
        // The trainer may already be gone if every sender dropped; both
        // outcomes mean "drained".
        if self.trainer_tx.send(TrainerMsg::Shutdown(ack_tx)).is_ok() {
            let _ = ack_rx.recv_timeout(Duration::from_secs(30));
        }
        drop(self.trainer_tx);
        for t in self.threads {
            t.join().map_err(|_| io::Error::other("server thread panicked"))?;
        }
        Ok(())
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
    assert!(config.workers >= 1, "need at least one worker");
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    // Per-server registry: concurrent servers in one process (tests) keep
    // isolated request series; library-level series stay in the global
    // registry and are merged at export time.
    let registry = Arc::new(Registry::new());
    let stats = Arc::new(ServeStats::new(&registry));
    let started = Instant::now();
    // The backend self-describes (engine name + key params) for the `stats`
    // reply and cluster homogeneity checks; captured before the backend
    // moves into the trainer thread.
    let backend_desc: Arc<Value> = Arc::new(
        serde_json::from_str(&backend.descriptor())
            .unwrap_or_else(|_| Value::Str(backend.kind().as_str().to_string())),
    );
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = channel::<TrainerMsg>();
    let dedup = Arc::new(Mutex::new(DedupTable::new(DEDUP_MAX_CLIENTS)));

    let mut threads = Vec::new();

    // Trainer thread — sole owner of graph + backend (model and
    // incremental-training state). Its cell is born holding the version-0
    // snapshot, before any worker spawns.
    let trainer = Trainer::new(
        graph,
        backend,
        stats.clone(),
        config.trainer,
        config.wal.clone(),
        config.fault.clone(),
    );
    let cell = trainer.cell();
    threads.push(
        thread::Builder::new().name("seqge-trainer".to_string()).spawn(move || trainer.run(rx))?,
    );

    // Work queue of accepted connections.
    let queue: Arc<(Mutex<VecDeque<TcpStream>>, Condvar)> =
        Arc::new((Mutex::new(VecDeque::new()), Condvar::new()));

    for i in 0..config.workers {
        let ctx = WorkerCtx {
            queue: queue.clone(),
            cell: cell.clone(),
            stats: stats.clone(),
            registry: registry.clone(),
            ops: OpMetrics::new(&registry),
            backend: backend_desc.clone(),
            started,
            stop: stop.clone(),
            trainer_tx: tx.clone(),
            wal: config.wal.clone(),
            fault: config.fault.clone(),
            dedup: dedup.clone(),
            max_backlog: config.max_backlog,
        };
        threads.push(
            thread::Builder::new().name(format!("seqge-worker-{i}")).spawn(move || ctx.run())?,
        );
    }

    // Acceptor.
    {
        let queue = queue.clone();
        let stop = stop.clone();
        let stats = stats.clone();
        threads.push(thread::Builder::new().name("seqge-accept".to_string()).spawn(move || {
            loop {
                if stop.load(Ordering::SeqCst) {
                    // Wake any workers parked on the condvar so they can exit.
                    queue.1.notify_all();
                    return;
                }
                match listener.accept() {
                    Ok((mut stream, _)) => {
                        let mut q = queue.0.lock().expect("conn queue poisoned");
                        if q.len() >= MAX_CONN_QUEUE {
                            // Shed at the door rather than queue unboundedly;
                            // the refusal is best-effort (the socket is still
                            // nonblocking here).
                            drop(q);
                            stats.conn_shed.inc();
                            let msg = Response::err_code(
                                CODE_OVERLOADED,
                                "overloaded: connection queue full",
                            );
                            let _ = stream.write_all(msg.as_bytes());
                            let _ = stream.write_all(b"\n");
                            continue;
                        }
                        q.push_back(stream);
                        queue.1.notify_one();
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(20));
                    }
                    Err(_) => thread::sleep(Duration::from_millis(20)),
                }
            }
        })?);
    }

    Ok(ServerHandle { addr, stop, stats, registry, cell, trainer_tx: tx, threads })
}

/// The one line-framing loop (the cluster router's front end runs it too):
/// reads LF-delimited requests off `stream` and writes back what `handle`
/// answers for each — `Some((reply, close))`, or `None` to drop the
/// connection without a reply — until EOF, a line past [`MAX_LINE_BYTES`]
/// (a protocol violation: answered once, then closed), five idle minutes,
/// or `stop` — which a blocked worker notices thanks to the short read
/// timeout.
pub fn serve_lines(
    mut stream: TcpStream,
    stop: &AtomicBool,
    mut handle: impl FnMut(&str) -> Option<(String, bool)>,
) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    stream.set_nodelay(true).ok();
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut last_activity = Instant::now();
    while !stop.load(Ordering::SeqCst) {
        let n = match stream.read(&mut chunk) {
            Ok(0) => return Ok(()), // EOF
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if last_activity.elapsed() >= READ_DEADLINE {
                    return Ok(()); // idle past the deadline: free the worker
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        last_activity = Instant::now();
        pending.extend_from_slice(&chunk[..n]);
        while let Some(nl) = pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = pending.drain(..=nl).collect();
            let Some((response, close)) = handle(String::from_utf8_lossy(&line[..nl]).trim())
            else {
                return Ok(());
            };
            stream.write_all(response.as_bytes())?;
            stream.write_all(b"\n")?;
            if close {
                return Ok(());
            }
        }
        if pending.len() > MAX_LINE_BYTES {
            let msg = Response::err(format!("line exceeds {MAX_LINE_BYTES} bytes"));
            stream.write_all(msg.as_bytes())?;
            stream.write_all(b"\n")?;
            return Ok(());
        }
    }
    Ok(())
}

/// One op's telemetry handles:
/// `(op, latency histogram, request counter, error-reply counter)`.
type OpSeries = (&'static str, Arc<Histogram>, Arc<Counter>, Arc<Counter>);

/// Per-op request telemetry handles, resolved once per worker so the
/// dispatch path never takes the registry mutex.
struct OpMetrics {
    ops: Vec<OpSeries>,
    protocol_errors: Arc<Counter>,
    /// Connections currently inside `handle_connection` across all workers
    /// (the registry hands every worker the same gauge).
    open_conns: Arc<Gauge>,
}

impl OpMetrics {
    fn new(registry: &Registry) -> Self {
        let ops = WIRE_OPS
            .iter()
            .map(|&WireOp { name: op, .. }| {
                (
                    op,
                    registry.histogram_with("seqge_serve_request_latency_ns", &[("op", op)]),
                    registry.counter_with("seqge_serve_requests_total", &[("op", op)]),
                    registry.counter_with("seqge_serve_errors_total", &[("op", op)]),
                )
            })
            .collect();
        OpMetrics {
            ops,
            protocol_errors: registry.counter("seqge_serve_protocol_errors_total"),
            open_conns: registry.gauge("seqge_serve_open_connections"),
        }
    }

    fn get(&self, op: &str) -> Option<&OpSeries> {
        self.ops.iter().find(|(name, ..)| *name == op)
    }
}

struct WorkerCtx {
    queue: Arc<(Mutex<VecDeque<TcpStream>>, Condvar)>,
    cell: Arc<SnapshotCell>,
    stats: Arc<ServeStats>,
    registry: Arc<Registry>,
    ops: OpMetrics,
    /// The trainer backend's self-description (engine name + key params),
    /// embedded in every `stats` reply.
    backend: Arc<Value>,
    started: Instant,
    stop: Arc<AtomicBool>,
    trainer_tx: Sender<TrainerMsg>,
    wal: Option<Arc<Wal>>,
    fault: Arc<FaultInjector>,
    /// Per-client highest acked write `seq` (see [`protocol::WriteId`]),
    /// bounded by a sliding recency window.
    dedup: Arc<Mutex<DedupTable>>,
    max_backlog: u64,
}

impl WorkerCtx {
    fn run(self) {
        loop {
            let conn = {
                let guard = self.queue.0.lock().expect("conn queue poisoned");
                let (mut guard, _) = self
                    .queue
                    .1
                    .wait_timeout_while(guard, Duration::from_millis(100), |q| q.is_empty())
                    .expect("conn queue poisoned");
                guard.pop_front()
            };
            if let Some(stream) = conn {
                self.ops.open_conns.inc();
                let _ = self.handle_connection(stream);
                self.ops.open_conns.dec();
            }
            if self.stop.load(Ordering::SeqCst) {
                return;
            }
        }
    }

    fn handle_connection(&self, stream: TcpStream) -> io::Result<()> {
        let mut reader = SnapshotReader::new(self.cell.clone());
        serve_lines(stream, &self.stop, |line| {
            let out = self.dispatch(line, &mut reader);
            if self.fault.should(FaultPoint::ConnDrop) {
                // Ack lost: the request may have been fully applied.
                // This is the case WriteId dedup exists for.
                return None;
            }
            if self.fault.should(FaultPoint::ConnStall) {
                thread::sleep(self.fault.stall());
            }
            Some(out)
        })
    }

    fn dispatch(&self, line: &str, reader: &mut SnapshotReader) -> (String, bool) {
        if line.is_empty() {
            self.ops.protocol_errors.inc();
            return (Response::err("empty request line"), false);
        }
        let (req, wire_ctx) = match protocol::parse_request_traced(line) {
            Ok(r) => r,
            Err(e) => {
                self.ops.protocol_errors.inc();
                return (Response::err(e), false);
            }
        };
        let op = req.op();
        // Span + clock reads are both gated on the timing switch; the
        // request counter is always live (it backs throughput accounting).
        let mut span = seqge_obs::trace::start_span(op.serve_span, wire_ctx);
        let t0 = if seqge_obs::timing_enabled() { Some(Instant::now()) } else { None };
        let out = self.handle_request(req, reader, span.ctx());
        if let Some((_, latency, count, errors)) = self.ops.get(op.name) {
            count.inc();
            // Compact rendering guarantees error replies start with this
            // prefix (asserted in the protocol tests), so shed + hard
            // errors are counted without re-parsing the reply.
            if out.0.starts_with(r#"{"ok":false"#) {
                errors.inc();
            }
            if let Some(t0) = t0 {
                latency.record(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
            }
        }
        if span.is_active() {
            // Shed/degraded outcomes are always worth keeping, whatever the
            // head-sampling decision said.
            if out.0.contains(r#""code":"overloaded""#) {
                span.force_sample();
                span.tag("outcome", "shed");
            } else if out.0.contains(r#""code":"degraded""#) || out.0.contains(r#""degraded":true"#)
            {
                span.force_sample();
                span.tag("outcome", "degraded");
            }
        }
        out
    }

    /// Whether a read-plane request must be shed to protect the write
    /// plane. The check is a couple of relaxed counter loads.
    fn overloaded(&self) -> bool {
        self.stats.pending() > self.max_backlog
    }

    fn shed_read(&self) -> (String, bool) {
        self.stats.overloaded.inc();
        (
            Response::err_code(
                CODE_OVERLOADED,
                format!(
                    "overloaded: trainer backlog {} exceeds {}",
                    self.stats.pending(),
                    self.max_backlog
                ),
            ),
            false,
        )
    }

    fn handle_request(
        &self,
        req: Request,
        reader: &mut SnapshotReader,
        span_ctx: Option<seqge_obs::TraceCtx>,
    ) -> (String, bool) {
        match req {
            Request::Ping => (Response::ok().field("pong", true).build(), false),
            Request::Stats => {
                let snap = reader.current();
                let mut resp = Response::ok()
                    .field("version", snap.version)
                    .field("nodes", snap.num_nodes())
                    .field("edges", snap.num_edges)
                    .field("dim", snap.dim())
                    .field("walks_trained", snap.walks_trained)
                    .field("edges_inserted", snap.edges_inserted)
                    .field("edges_removed", snap.edges_removed)
                    .field("backend", (*self.backend).clone())
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
                    // Always-on freshness readout: how old the published
                    // snapshot is right now (no obs env flag required).
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
                (resp.build(), false)
            }
            Request::GetEmbedding { node } => {
                if self.overloaded() {
                    return self.shed_read();
                }
                let snap = reader.current();
                match snap.embedding(node) {
                    Some(row) => {
                        let vec: Vec<Value> = row.iter().map(|&x| Value::F64(x as f64)).collect();
                        (
                            Response::ok()
                                .field("node", node)
                                .field("version", snap.version)
                                .field("embedding", Value::Array(vec))
                                .build(),
                            false,
                        )
                    }
                    None => (
                        Response::err(format!(
                            "node {node} out of range (0..{})",
                            snap.num_nodes()
                        )),
                        false,
                    ),
                }
            }
            Request::TopK { node, k, op, filter, mode, probes } => {
                if self.overloaded() {
                    return self.shed_read();
                }
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
                match answered {
                    Some((hits, fallback)) => {
                        let items: Vec<Value> = hits
                            .into_iter()
                            .map(|(v, s)| {
                                Value::Object(vec![
                                    ("node".to_string(), Value::U64(v as u64)),
                                    ("score".to_string(), Value::F64(s)),
                                ])
                            })
                            .collect();
                        let mut resp = Response::ok()
                            .field("node", node)
                            .field("op", op_name(op))
                            .field("mode", mode.as_str())
                            .field("version", snap.version)
                            .field("results", Value::Array(items));
                        if let Some(fb) = fallback {
                            resp = resp.field("fallback", fb);
                        }
                        (resp.build(), false)
                    }
                    None => (
                        Response::err(format!(
                            "node {node} out of range (0..{})",
                            snap.num_nodes()
                        )),
                        false,
                    ),
                }
            }
            Request::ScoreLink { u, v, op } => {
                if self.overloaded() {
                    return self.shed_read();
                }
                let snap = reader.current();
                match snap.score(u, v, op) {
                    Some(s) => (
                        Response::ok()
                            .field("u", u)
                            .field("v", v)
                            .field("op", op_name(op))
                            .field("version", snap.version)
                            .field("score", s)
                            .build(),
                        false,
                    ),
                    None => (
                        Response::err(format!(
                            "node pair ({u}, {v}) out of range (0..{})",
                            snap.num_nodes()
                        )),
                        false,
                    ),
                }
            }
            Request::AddEdge { u, v, ref write_id }
            | Request::RemoveEdge { u, v, ref write_id } => {
                let n = reader.current().num_nodes();
                if u as usize >= n || v as usize >= n {
                    return (
                        Response::err(format!("node pair ({u}, {v}) out of range (0..{n})")),
                        false,
                    );
                }
                if u == v {
                    return (Response::err("self loops are not allowed"), false);
                }
                // A retry of an already-acked write: answer success without
                // re-applying (the original ack was lost, not the write).
                if let Some(wid) = write_id {
                    let table = self.dedup.lock().expect("dedup table poisoned");
                    if table.already_acked(wid) {
                        drop(table);
                        self.stats.deduped.inc();
                        return (
                            Response::ok().field("queued", true).field("deduped", true).build(),
                            false,
                        );
                    }
                }
                let event = match &req {
                    Request::AddEdge { .. } => EdgeEvent::Add(u, v),
                    _ => EdgeEvent::Remove(u, v),
                };
                // The write's observability context rides the in-memory
                // queue only (never the on-disk WAL format — replay stays
                // bit-identical): the trainer closes the write-to-visibility
                // measurement when the edge's effect lands in a published
                // snapshot.
                let wctx = WriteCtx::at_enqueue(span_ctx);
                // `Some(seq)` when WAL-logged, `None` when queued directly.
                let queued: Option<u64> = match &self.wal {
                    Some(wal) => {
                        let t0 =
                            if seqge_obs::timing_enabled() { Some(Instant::now()) } else { None };
                        let appended = wal.append_then(event, &self.fault, |seq| {
                            self.trainer_tx.send(TrainerMsg::Event(seq, event, wctx.clone()))
                        });
                        if let Some(t0) = t0 {
                            self.stats
                                .wal_append_ns
                                .record(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
                        }
                        match appended {
                            Ok(seq) => Some(seq),
                            Err(e) if e.kind() == ErrorKind::BrokenPipe => {
                                return (Response::err("trainer is shut down"), true);
                            }
                            Err(e) => {
                                self.stats.wal_append_errors.set_to(wal.append_errors());
                                return (Response::err(format!("wal append failed: {e}")), false);
                            }
                        }
                    }
                    None => match self.trainer_tx.send(TrainerMsg::Event(0, event, wctx)) {
                        Ok(()) => None,
                        Err(_) => return (Response::err("trainer is shut down"), true),
                    },
                };
                // Only now — after the event is durably logged and queued —
                // does the write count as acked for dedup purposes. A
                // failed append above must leave the retry replayable.
                if let Some(wid) = write_id {
                    self.dedup.lock().expect("dedup table poisoned").record(wid);
                }
                self.stats.enqueued.inc();
                self.stats.update_backlog();
                let mut resp =
                    Response::ok().field("queued", true).field("pending", self.stats.pending());
                if let Some(seq) = queued {
                    resp = resp.field("seq", seq);
                }
                (resp.build(), false)
            }
            Request::Flush => {
                let (ack_tx, ack_rx) = channel();
                if self.trainer_tx.send(TrainerMsg::Flush(ack_tx)).is_err() {
                    return (Response::err("trainer is shut down"), true);
                }
                match ack_rx.recv_timeout(Duration::from_secs(120)) {
                    Ok(version) => (Response::ok().field("version", version).build(), false),
                    Err(_) => (Response::err("flush timed out"), false),
                }
            }
            Request::Snapshot => {
                let (ack_tx, ack_rx) = channel();
                if self.trainer_tx.send(TrainerMsg::Snapshot(ack_tx)).is_err() {
                    return (Response::err("trainer is shut down"), true);
                }
                match ack_rx.recv_timeout(Duration::from_secs(120)) {
                    Ok(Ok((model, graph))) => (
                        Response::ok()
                            .field("model", model.display().to_string())
                            .field("graph", graph.display().to_string())
                            .build(),
                        false,
                    ),
                    Ok(Err(e)) => (Response::err(e), false),
                    Err(_) => (Response::err("snapshot timed out"), false),
                }
            }
            Request::Metrics { format } => {
                if let Some(wal) = &self.wal {
                    self.stats.sync_wal(wal);
                }
                self.stats.sync_faults(&self.fault);
                let regs: [&Registry; 2] = [self.registry.as_ref(), Registry::global()];
                let body = match format {
                    MetricsFormat::Prometheus => export::prometheus(&regs),
                    MetricsFormat::Json => export::dump_json(&regs),
                };
                (Response::ok().field("format", format.as_str()).field("body", body).build(), false)
            }
            Request::Trace { after } => {
                let (spans, next) = seqge_obs::trace::snapshot_since(after);
                let items: Vec<Value> = spans.iter().map(span_value).collect();
                (
                    Response::ok()
                        .field("spans", Value::Array(items))
                        .field("next", next)
                        .field("sample_every", seqge_obs::trace::sample_every() as u64)
                        .field("pid", std::process::id() as u64)
                        .build(),
                    false,
                )
            }
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
        }
    }
}
