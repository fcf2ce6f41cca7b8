//! The scatter-gather router: one TCP front end speaking the exact serve
//! protocol, fanning work across the shard plane.
//!
//! Routing rules per op:
//!
//! * **writes** (`add_edge`/`remove_edge`) — forwarded *verbatim* (the
//!   client's `WriteId` rides along unchanged) to the edge's **single
//!   owner**, the owner of the lower-numbered endpoint (see
//!   [`crate::partition::edge_owner`]; the edge is undirected, so routing
//!   is invariant to the order the client wrote the endpoints in —
//!   `add_edge(u,v)` and `remove_edge(v,u)` reach the same shard).
//!   Exactly one shard applies and
//!   trains each edge, so added shards divide the work; if the owner is
//!   unreachable the router answers `overloaded: shard N unavailable…`,
//!   which the serve client treats as backoff-and-retry **with the same
//!   WriteId** — a shard that already acked dedups the resend.
//! * **`topk`** — scattered to every shard with the residue-class filter
//!   `{"mod": shards, "rem": s}` injected, so each shard competes only
//!   its own slice; the router merges the per-shard heaps under the
//!   protocol's total order (score desc, node id asc). Client-supplied
//!   `mod`/`rem` are rejected: in cluster mode the partition owns that
//!   filter.
//! * **`get_embedding` / `score_link`** — forwarded to the owner shard;
//!   on failure the router falls back to the peer owner (`score_link`)
//!   and then to the shard's read replica snapshot, tagging the response
//!   `"source": "replica"`.
//! * **fan-out reads** (`stats`, `flush`, `snapshot`) — sent
//!   to every shard with one shared deadline; responses that miss it are
//!   dropped and the reply carries `"degraded": true` plus the missing
//!   shard list. `flush` is the exception: it is a barrier, so a missing
//!   shard turns the whole call into `overloaded` (retryable) rather
//!   than a silently partial barrier.
//!
//! Partial and fallback replies are classifiable without string-matching:
//! every degraded success (`degraded:true`, `source:"replica"`) and every
//! degraded/overloaded failure carries the protocol's machine-readable
//! `code` field (see `seqge_serve::protocol`), and a shard's `overloaded`
//! code passes through writes intact so client retry policy keeps working
//! end to end.
//!
//! Every fan-out is pipelined — requests are written to all shards
//! before any response is read — so the wall clock is the slowest shard,
//! not the sum. Per-worker connections are cached and tagged with the
//! shard's incarnation epoch; a respawned shard (new epoch, possibly new
//! port) invalidates the cache lazily on next use.

use crate::partition::{edge_owner, owner};
use crate::shard::{mark_unhealthy, shard_info, ShardTable};
use seqge_eval::EdgeOp;
use seqge_obs::{export, Counter, Registry};
use seqge_serve::protocol::{
    self, op_name, span_value, MetricsFormat, Request, Response, CODE_DEGRADED, CODE_OVERLOADED,
};
use seqge_serve::server::serve_lines;
use seqge_serve::snapshot::SnapshotCell;
use seqge_serve::{Client, ClientConfig};
use serde_json::Value;
use std::collections::VecDeque;
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Router knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Worker threads serving client connections.
    pub workers: usize,
    /// Per-shard fan-out budget: one scatter-gather never waits longer
    /// than this on any single shard before degrading.
    pub deadline: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig { workers: 2, deadline: Duration::from_millis(2_000) }
    }
}

/// Read-side fallback state the router holds per shard.
#[derive(Clone)]
pub struct ReplicaView {
    /// The replica's published snapshot cell.
    pub cell: Arc<SnapshotCell>,
    /// Highest WAL sequence the replica has applied (for status/lag).
    pub applied: Arc<AtomicU64>,
}

/// A running router. Dropping without [`RouterHandle::shutdown`] detaches
/// the threads.
pub struct RouterHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    registry: Arc<Registry>,
    threads: Vec<JoinHandle<()>>,
}

impl RouterHandle {
    /// The bound front-end address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The stop flag (a `shutdown` command or signal handler sets it).
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        self.stop.clone()
    }

    /// The router's metrics registry.
    pub fn registry(&self) -> Arc<Registry> {
        self.registry.clone()
    }

    /// Blocks until the stop flag is set, then joins the threads.
    pub fn wait(self) -> io::Result<()> {
        while !self.stop.load(Ordering::SeqCst) {
            thread::sleep(Duration::from_millis(50));
        }
        self.shutdown()
    }

    /// Stops accepting and joins every router thread.
    pub fn shutdown(self) -> io::Result<()> {
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads {
            t.join().map_err(|_| io::Error::other("router thread panicked"))?;
        }
        Ok(())
    }
}

/// Starts the router on `addr` over an existing shard table. `replicas`
/// holds one optional [`ReplicaView`] per shard (index-aligned).
pub fn start_router(
    addr: &str,
    shards: ShardTable,
    replicas: Vec<Option<ReplicaView>>,
    cfg: RouterConfig,
) -> io::Result<RouterHandle> {
    assert!(cfg.workers >= 1, "need at least one router worker");
    assert_eq!(replicas.len(), shards.len(), "one replica slot per shard");
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let registry = Arc::new(Registry::new());
    let stop = Arc::new(AtomicBool::new(false));
    let queue: Arc<(Mutex<VecDeque<TcpStream>>, Condvar)> =
        Arc::new((Mutex::new(VecDeque::new()), Condvar::new()));
    let mut threads = Vec::new();

    for i in 0..cfg.workers {
        let ctx = RouterCtx {
            queue: queue.clone(),
            stop: stop.clone(),
            shards: shards.clone(),
            replicas: replicas.clone(),
            registry: registry.clone(),
            degraded_total: registry.counter("seqge_cluster_degraded_total"),
            shard_errors: registry.counter("seqge_cluster_shard_errors_total"),
            protocol_errors: registry.counter("seqge_cluster_protocol_errors_total"),
            started: Instant::now(),
            cfg: cfg.clone(),
        };
        threads.push(
            thread::Builder::new().name(format!("seqge-router-{i}")).spawn(move || ctx.run())?,
        );
    }

    // Acceptor (same shed-at-the-door shape as the serve front end).
    {
        let queue = queue.clone();
        let stop = stop.clone();
        threads.push(thread::Builder::new().name("seqge-router-accept".to_string()).spawn(
            move || loop {
                if stop.load(Ordering::SeqCst) {
                    queue.1.notify_all();
                    return;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        let mut q = queue.0.lock().expect("router conn queue poisoned");
                        q.push_back(stream);
                        queue.1.notify_one();
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(20));
                    }
                    Err(_) => thread::sleep(Duration::from_millis(20)),
                }
            },
        )?);
    }

    Ok(RouterHandle { addr, stop, registry, threads })
}

/// Per-worker cached shard connections, tagged with the incarnation
/// epoch they were dialed against.
type Conns = Vec<Option<(u64, Client)>>;

struct RouterCtx {
    queue: Arc<(Mutex<VecDeque<TcpStream>>, Condvar)>,
    stop: Arc<AtomicBool>,
    shards: ShardTable,
    replicas: Vec<Option<ReplicaView>>,
    registry: Arc<Registry>,
    degraded_total: Arc<Counter>,
    shard_errors: Arc<Counter>,
    protocol_errors: Arc<Counter>,
    started: Instant,
    cfg: RouterConfig,
}

impl RouterCtx {
    fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn run(self) {
        let mut conns: Conns = (0..self.num_shards()).map(|_| None).collect();
        loop {
            let conn = {
                let guard = self.queue.0.lock().expect("router conn queue poisoned");
                let (mut guard, _) = self
                    .queue
                    .1
                    .wait_timeout_while(guard, Duration::from_millis(100), |q| q.is_empty())
                    .expect("router conn queue poisoned");
                guard.pop_front()
            };
            if let Some(stream) = conn {
                // Identical framing to the serve front end: its loop.
                let _ =
                    serve_lines(stream, &self.stop, |line| Some(self.dispatch(line, &mut conns)));
            }
            if self.stop.load(Ordering::SeqCst) {
                return;
            }
        }
    }

    fn dispatch(&self, line: &str, conns: &mut Conns) -> (String, bool) {
        if line.is_empty() {
            self.protocol_errors.inc();
            return (Response::err("empty request line"), false);
        }
        // Router-only command, not part of the shard grammar.
        if let Ok(v) = serde_json::from_str::<Value>(line) {
            if v.get("cmd").and_then(Value::as_str) == Some("cluster_status") {
                self.count_op("cluster_status");
                return (self.cluster_status(conns), false);
            }
        }
        let (req, wire_ctx) = match protocol::parse_request_traced(line) {
            Ok(r) => r,
            Err(e) => {
                self.protocol_errors.inc();
                return (Response::err(e), false);
            }
        };
        self.count_op(req.op().name);
        // The fan-out root: per-shard children open under it (via the
        // thread-local stack) inside `scatter_gather` / `forward_one`.
        let mut span = seqge_obs::trace::start_span(req.op().cluster_span, wire_ctx);
        let (out, close) = match req {
            Request::Ping => {
                (Response::ok().field("pong", true).field("role", "router").build(), false)
            }
            Request::Stats => (self.stats(conns), false),
            Request::Metrics { format } => (self.metrics(format, conns), false),
            Request::GetEmbedding { node } => (self.get_embedding(node, line, conns), false),
            Request::TopK { node, k, op, filter, mode, probes } => {
                if filter.is_some() {
                    self.protocol_errors.inc();
                    return (
                        Response::err(
                            "mod/rem are router-internal: the cluster owns the shard filter",
                        ),
                        false,
                    );
                }
                (self.topk(node, k, op, mode, probes, conns), false)
            }
            Request::ScoreLink { u, v, op } => (self.score_link(u, v, op, line, conns), false),
            Request::AddEdge { u, v, .. } | Request::RemoveEdge { u, v, .. } => {
                (self.write(u, v, line, conns), false)
            }
            Request::Flush => (self.flush(conns), false),
            Request::Snapshot => (self.snapshot(conns), false),
            Request::Trace { after } => (self.trace_dump(after), false),
            Request::Flightrec => (self.flightrec(conns), false),
            Request::Shutdown => {
                self.stop.store(true, Ordering::SeqCst);
                (Response::ok().field("stopping", true).build(), true)
            }
        };
        if span.is_active() {
            // Degraded and shed replies are the traces worth keeping
            // regardless of the head-sampling rate.
            if out.contains("\"code\":\"overloaded\"") {
                span.force_sample();
                span.tag("outcome", "shed");
            } else if out.contains("\"code\":\"degraded\"") || out.contains("\"degraded\":true") {
                span.force_sample();
                span.tag("outcome", "degraded");
            }
        }
        (out, close)
    }

    fn count_op(&self, op: &str) {
        self.registry.counter_with("seqge_cluster_requests_total", &[("op", op)]).inc();
    }

    /// Fetches (dialing if needed) the cached connection for shard `s`.
    fn client<'c>(&self, conns: &'c mut Conns, s: usize) -> Option<&'c mut Client> {
        let info = shard_info(&self.shards, s);
        if let Some((epoch, _)) = &conns[s] {
            if *epoch != info.epoch {
                conns[s] = None; // stale incarnation
            }
        }
        if conns[s].is_none() {
            let ccfg = ClientConfig {
                timeout: self.cfg.deadline,
                retries: 0,
                client_id: format!("router-s{s}"),
                ..ClientConfig::default()
            };
            match Client::connect_with(info.addr, ccfg) {
                Ok(c) => conns[s] = Some((info.epoch, c)),
                Err(_) => {
                    self.shard_errors.inc();
                    mark_unhealthy(&self.shards, s);
                    return None;
                }
            }
        }
        conns[s].as_mut().map(|(_, c)| c)
    }

    fn drop_conn(&self, conns: &mut Conns, s: usize) {
        conns[s] = None;
        self.shard_errors.inc();
        mark_unhealthy(&self.shards, s);
    }

    /// Pipelined scatter-gather: sends `line(s)` to every target shard,
    /// then collects responses under one shared deadline. Returns one
    /// `Option<Value>` per target (`None` = unreachable or past
    /// deadline).
    fn scatter_gather(
        &self,
        conns: &mut Conns,
        targets: &[usize],
        line: impl Fn(usize) -> String,
    ) -> Vec<Option<Value>> {
        // All children share the dispatch root as their parent — explicit
        // ctx, because nested `start_span(.., None)` calls would chain the
        // siblings into a bogus ancestry.
        let parent = seqge_obs::trace::current_ctx();
        let mut sent = vec![false; targets.len()];
        let mut spans: Vec<Option<seqge_obs::Span>> = Vec::with_capacity(targets.len());
        for (i, &s) in targets.iter().enumerate() {
            let mut sp = seqge_obs::trace::start_span("cluster.shard", parent);
            if sp.is_active() {
                sp.tag("shard", s.to_string());
            }
            if let Some(c) = self.client(conns, s) {
                let l = line(s);
                // Each shard call carries the *child* context, so the
                // shard-side span parents to this fan-out leg.
                let l = match sp.ctx() {
                    Some(ctx) => protocol::attach_trace(&l, &ctx),
                    None => l,
                };
                match c.send_line(&l) {
                    Ok(()) => sent[i] = true,
                    Err(_) => self.drop_conn(conns, s),
                }
            }
            spans.push(Some(sp));
        }
        let deadline = Instant::now() + self.cfg.deadline;
        let mut out = Vec::with_capacity(targets.len());
        for (i, &s) in targets.iter().enumerate() {
            let mut sp = spans[i].take().expect("one span per target");
            if !sent[i] {
                if sp.is_active() {
                    sp.force_sample();
                    sp.tag("outcome", "unreachable");
                }
                out.push(None);
                continue;
            }
            let remaining =
                deadline.saturating_duration_since(Instant::now()).max(Duration::from_millis(1));
            let resp = {
                let c = conns[s].as_mut().map(|(_, c)| c).expect("sent implies connected");
                c.set_read_timeout(Some(remaining)).and_then(|()| c.recv_line())
            };
            match resp.ok().and_then(|r| serde_json::from_str::<Value>(&r).ok()) {
                Some(v) => {
                    // Restore the default timeout for future single calls.
                    if let Some((_, c)) = conns[s].as_mut() {
                        let _ = c.set_read_timeout(Some(self.cfg.deadline));
                    }
                    out.push(Some(v));
                }
                None => {
                    if sp.is_active() {
                        sp.force_sample();
                        sp.tag("outcome", "missed_deadline");
                    }
                    self.drop_conn(conns, s);
                    out.push(None);
                }
            }
        }
        out
    }

    /// Forwards one raw request line to shard `s`, returning the raw
    /// response line (verbatim passthrough, plus this hop's trace context
    /// so the shard span parents here).
    fn forward_one(&self, conns: &mut Conns, s: usize, line: &str) -> Option<String> {
        let mut sp = seqge_obs::trace::start_span("cluster.shard", None);
        if sp.is_active() {
            sp.tag("shard", s.to_string());
        }
        let Some(c) = self.client(conns, s) else {
            if sp.is_active() {
                sp.force_sample();
                sp.tag("outcome", "unreachable");
            }
            return None;
        };
        let resp = match sp.ctx() {
            Some(ctx) => c.call_traced(line, &ctx),
            None => c.call_raw(line),
        };
        match resp {
            Ok(resp) => Some(resp),
            Err(_) => {
                if sp.is_active() {
                    sp.force_sample();
                    sp.tag("outcome", "unreachable");
                }
                self.drop_conn(conns, s);
                None
            }
        }
    }

    fn all_shards(&self) -> Vec<usize> {
        (0..self.num_shards()).collect()
    }

    fn missing_field(missing: &[usize]) -> Value {
        Value::Array(missing.iter().map(|&s| Value::U64(s as u64)).collect())
    }

    /// Folds the per-shard training-backend descriptors (from their stats
    /// replies; `Null` for unreachable shards) into the cluster consensus:
    /// the common descriptor, plus whether any reachable shard disagreed.
    /// A heterogeneous cluster is a deployment error — snapshots and WAL
    /// replays are backend-specific, so a write routed to the odd shard
    /// trains under different arithmetic than its peers.
    fn backend_consensus(backends: &[Value]) -> (Value, bool) {
        let mut common: Option<&Value> = None;
        let mut mismatch = false;
        for b in backends {
            if matches!(b, Value::Null) {
                continue;
            }
            match common {
                None => common = Some(b),
                Some(c) if c == b => {}
                Some(_) => mismatch = true,
            }
        }
        (common.cloned().unwrap_or(Value::Null), mismatch)
    }

    fn stats(&self, conns: &mut Conns) -> String {
        let targets = self.all_shards();
        let got = self.scatter_gather(conns, &targets, |_| r#"{"cmd":"stats"}"#.to_string());
        let mut missing = Vec::new();
        let shards: Vec<Value> = got
            .into_iter()
            .enumerate()
            .map(|(s, v)| match v {
                Some(v) => v,
                None => {
                    missing.push(s);
                    Value::Null
                }
            })
            .collect();
        let backends: Vec<Value> =
            shards.iter().map(|s| s.get("backend").cloned().unwrap_or(Value::Null)).collect();
        let (backend, backend_mismatch) = Self::backend_consensus(&backends);
        let degraded = !missing.is_empty() || backend_mismatch;
        if degraded {
            self.degraded_total.inc();
        }
        // Every shard carries the full (global-id) node set, so any
        // reachable shard's count is the cluster's; surfacing it at the
        // top level lets clients (the load generator's node probe among
        // them) treat router and single-node stats uniformly.
        let nodes =
            shards.iter().filter_map(|s| s.get("nodes").and_then(Value::as_u64)).max().unwrap_or(0);
        let mut resp = Response::ok()
            .field("role", "router")
            .field("nodes", nodes)
            .field("num_shards", self.num_shards())
            .field("backend", backend)
            .field("backend_mismatch", backend_mismatch)
            .field("uptime_ms", self.started.elapsed().as_millis() as u64)
            .field("shards", Value::Array(shards))
            .field("degraded", degraded)
            .field("missing_shards", Self::missing_field(&missing));
        if degraded {
            resp = resp.field("code", CODE_DEGRADED);
        }
        resp.build()
    }

    /// Scatters a JSON metrics scrape to every shard and sums the serve
    /// plane into a scratch registry before rendering, so one scrape shows
    /// cluster-wide `seqge_serve_*` counters and gauges. Only that prefix
    /// is merged: each in-process shard's reply also embeds the
    /// process-global registry, which every shard shares — summing it
    /// would multiply library-level series by the shard count. Histograms
    /// are not merged (per-shard quantiles don't sum); scrape a shard
    /// directly for its latency distribution.
    fn metrics(&self, format: MetricsFormat, conns: &mut Conns) -> String {
        let targets = self.all_shards();
        let got = self.scatter_gather(conns, &targets, |_| {
            r#"{"cmd":"metrics","format":"json"}"#.to_string()
        });
        let merged = Registry::new();
        let mut missing = Vec::new();
        for (s, v) in got.into_iter().enumerate() {
            let body = v
                .filter(|v| v.get("ok") == Some(&Value::Bool(true)))
                .and_then(|v| v.get("body").and_then(Value::as_str).map(str::to_string));
            match body.and_then(|b| serde_json::from_str::<Value>(&b).ok()) {
                Some(doc) => Self::merge_serve_series_into(&merged, &doc),
                None => missing.push(s),
            }
        }
        if !missing.is_empty() {
            self.degraded_total.inc();
        }
        let regs: [&Registry; 3] = [&merged, self.registry.as_ref(), Registry::global()];
        let body = match format {
            MetricsFormat::Prometheus => export::prometheus(&regs),
            MetricsFormat::Json => export::dump_json(&regs),
        };
        let mut resp = Response::ok()
            .field("format", format.as_str())
            .field("body", body)
            .field("degraded", !missing.is_empty())
            .field("missing_shards", Self::missing_field(&missing));
        if !missing.is_empty() {
            resp = resp.field("code", CODE_DEGRADED);
        }
        resp.build()
    }

    fn get_embedding(&self, node: u32, line: &str, conns: &mut Conns) -> String {
        let s = owner(node, self.num_shards());
        if let Some(resp) = self.forward_one(conns, s, line) {
            return resp;
        }
        self.degraded_total.inc();
        if let Some(view) = &self.replicas[s] {
            let snap = view.cell.load();
            if let Some(row) = snap.embedding(node) {
                let vec: Vec<Value> = row.iter().map(|&x| Value::F64(x as f64)).collect();
                return Response::ok()
                    .field("node", node)
                    .field("version", snap.version)
                    .field("embedding", Value::Array(vec))
                    .field("source", "replica")
                    .field("code", CODE_DEGRADED)
                    .build();
            }
        }
        Response::err_code(
            CODE_DEGRADED,
            format!("degraded: shard {s} unavailable and no replica covers it"),
        )
    }

    fn score_link(&self, u: u32, v: u32, op: EdgeOp, line: &str, conns: &mut Conns) -> String {
        let a = owner(u, self.num_shards());
        let b = owner(v, self.num_shards());
        // Try each endpoint's owner in turn. Every shard holds a full
        // (global-id) embedding matrix, but only *owned* vertices receive
        // that vertex's incident-edge training there — the other
        // endpoint's local row is a locally-trained approximation, good
        // within the cross-shard tolerance documented in DESIGN.md
        // ("Cross-shard score comparability").
        for s in std::iter::once(a).chain((b != a).then_some(b)) {
            if let Some(resp) = self.forward_one(conns, s, line) {
                return resp;
            }
        }
        self.degraded_total.inc();
        if let Some(view) = &self.replicas[a] {
            let snap = view.cell.load();
            if let Some(score) = snap.score(u, v, op) {
                return Response::ok()
                    .field("u", u)
                    .field("v", v)
                    .field("op", op_name(op))
                    .field("version", snap.version)
                    .field("score", score)
                    .field("source", "replica")
                    .field("code", CODE_DEGRADED)
                    .build();
            }
        }
        Response::err_code(
            CODE_DEGRADED,
            format!("degraded: shard {a} unavailable and no replica covers it"),
        )
    }

    fn topk(
        &self,
        node: u32,
        k: usize,
        op: EdgeOp,
        mode: protocol::TopKMode,
        probes: usize,
        conns: &mut Conns,
    ) -> String {
        let n = self.num_shards();
        let targets = self.all_shards();
        // The recall knob rides through scatter-gather verbatim: each
        // shard runs ANN over its own residue class, and because every
        // candidate is re-ranked exactly shard-side, the merged order is
        // still the protocol total order.
        let got = self.scatter_gather(conns, &targets, |s| {
            format!(
                r#"{{"cmd":"topk","node":{node},"k":{k},"op":"{}","mode":"{}","probes":{probes},"mod":{n},"rem":{s}}}"#,
                op_name(op),
                mode.as_str()
            )
        });
        let mut missing = Vec::new();
        let mut errors = Vec::new();
        let mut merged: Vec<(u32, f64)> = Vec::new();
        for (s, v) in got.into_iter().enumerate() {
            let Some(v) = v else {
                missing.push(s);
                continue;
            };
            if v.get("ok") != Some(&Value::Bool(true)) {
                let msg = v.get("error").and_then(Value::as_str).unwrap_or("unknown").to_string();
                errors.push(msg);
                missing.push(s);
                continue;
            }
            if let Some(items) = v.get("results").and_then(Value::as_array) {
                for item in items {
                    let (Some(id), Some(score)) = (
                        item.get("node").and_then(Value::as_u64),
                        item.get("score").and_then(Value::as_f64),
                    ) else {
                        continue;
                    };
                    merged.push((id as u32, score));
                }
            }
        }
        // Every shard rejected the query (e.g. node out of range): that
        // is a real error, not degradation.
        if missing.len() == self.num_shards() {
            if let Some(e) = errors.first() {
                return Response::err(e);
            }
            self.degraded_total.inc();
            return Response::err_code(CODE_DEGRADED, "degraded: no shard reachable");
        }
        // Protocol total order: score desc, node id asc. Cross-shard ties
        // are resolved here under the same rule every shard uses locally.
        merged.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        merged.truncate(k);
        let items: Vec<Value> = merged
            .into_iter()
            .map(|(v, s)| {
                Value::Object(vec![
                    ("node".to_string(), Value::U64(v as u64)),
                    ("score".to_string(), Value::F64(s)),
                ])
            })
            .collect();
        if !missing.is_empty() {
            self.degraded_total.inc();
        }
        let mut resp = Response::ok()
            .field("node", node)
            .field("op", op_name(op))
            .field("results", Value::Array(items))
            .field("degraded", !missing.is_empty())
            .field("missing_shards", Self::missing_field(&missing));
        if !missing.is_empty() {
            resp = resp.field("code", CODE_DEGRADED);
        }
        resp.build()
    }

    fn write(&self, u: u32, v: u32, line: &str, conns: &mut Conns) -> String {
        // Single-owner routing: exactly one shard (the min endpoint's —
        // orientation-invariant, since (u,v) and (v,u) name the same
        // undirected edge) applies and trains this edge. No other shard
        // ever sees it, so cluster-wide each edge trains exactly once.
        let s = edge_owner(u, v, self.num_shards());
        let Some(resp) = self.forward_one(conns, s, line) else {
            self.degraded_total.inc();
            // Retryable by contract: the client backs off and resends the
            // same WriteId; a shard that already acked dedups it.
            return Response::err_code(
                CODE_OVERLOADED,
                format!("overloaded: shard {s} unavailable, retry"),
            );
        };
        let Ok(parsed) = serde_json::from_str::<Value>(&resp) else {
            return Response::err(format!("shard {s}: unparseable reply"));
        };
        if parsed.get("ok") != Some(&Value::Bool(true)) {
            let msg = parsed.get("error").and_then(Value::as_str).unwrap_or("unknown shard error");
            // Keep the client's retry classification intact: a shed reply
            // stays `code`-classified through the router.
            if parsed.get("code").and_then(Value::as_str) == Some(CODE_OVERLOADED) {
                return Response::err_code(CODE_OVERLOADED, msg);
            }
            return Response::err(format!("shard {s}: {msg}"));
        }
        let deduped = parsed.get("deduped") == Some(&Value::Bool(true));
        Response::ok()
            .field("queued", true)
            .field("deduped", deduped)
            .field("shards", Value::Array(vec![Value::U64(s as u64)]))
            .build()
    }

    fn flush(&self, conns: &mut Conns) -> String {
        let targets = self.all_shards();
        let got = self.scatter_gather(conns, &targets, |_| r#"{"cmd":"flush"}"#.to_string());
        let mut versions = Vec::with_capacity(targets.len());
        for (s, v) in got.into_iter().enumerate() {
            let version = v
                .filter(|v| v.get("ok") == Some(&Value::Bool(true)))
                .and_then(|v| v.get("version").and_then(Value::as_u64));
            match version {
                Some(ver) => versions.push(ver),
                None => {
                    self.degraded_total.inc();
                    // A partial barrier is not a barrier; make it
                    // retryable instead.
                    return Response::err_code(
                        CODE_OVERLOADED,
                        format!("overloaded: shard {s} unavailable, retry"),
                    );
                }
            }
        }
        let max = versions.iter().copied().max().unwrap_or(0);
        Response::ok()
            .field("version", max)
            .field("versions", Value::Array(versions.into_iter().map(Value::U64).collect()))
            .build()
    }

    /// `snapshot` on every shard, reporting the per-shard replies plus
    /// degradation.
    fn snapshot(&self, conns: &mut Conns) -> String {
        let targets = self.all_shards();
        let got = self.scatter_gather(conns, &targets, |_| r#"{"cmd":"snapshot"}"#.to_string());
        let mut missing = Vec::new();
        let shards: Vec<Value> = got
            .into_iter()
            .enumerate()
            .map(|(s, v)| match v {
                Some(v) => v,
                None => {
                    missing.push(s);
                    Value::Null
                }
            })
            .collect();
        if !missing.is_empty() {
            self.degraded_total.inc();
        }
        let mut resp = Response::ok()
            .field("shards", Value::Array(shards))
            .field("degraded", !missing.is_empty())
            .field("missing_shards", Self::missing_field(&missing));
        if !missing.is_empty() {
            resp = resp.field("code", CODE_DEGRADED);
        }
        resp.build()
    }

    /// See `metrics` for why only `seqge_serve_*` is summed and histograms
    /// are left out.
    fn merge_serve_series_into(reg: &Registry, doc: &Value) {
        for (section, is_counter) in [("counters", true), ("gauges", false)] {
            let Some(items) = doc.get(section).and_then(Value::as_array) else { continue };
            for item in items {
                let Some(name) = item.get("name").and_then(Value::as_str) else { continue };
                if !name.starts_with("seqge_serve_") {
                    continue;
                }
                let labels: Vec<(String, String)> = match item.get("labels") {
                    Some(Value::Object(entries)) => entries
                        .iter()
                        .filter_map(|(k, v)| v.as_str().map(|s| (k.clone(), s.to_string())))
                        .collect(),
                    _ => Vec::new(),
                };
                let refs: Vec<(&str, &str)> =
                    labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
                if is_counter {
                    if let Some(val) = item.get("value").and_then(Value::as_u64) {
                        reg.counter_with(name, &refs).add(val);
                    }
                } else if let Some(val) = item.get("value").and_then(Value::as_f64) {
                    reg.gauge_with(name, &refs).add(val as i64);
                }
            }
        }
    }

    /// Serves the `trace` op from this process's span ring. The in-process
    /// cluster (`seqge cluster`) runs router and shards in one process, so
    /// this one ring already holds the full cross-layer trees; a
    /// multi-process deployment scrapes each shard's own `trace` op.
    fn trace_dump(&self, after: u64) -> String {
        let (spans, next) = seqge_obs::trace::snapshot_since(after);
        let items: Vec<Value> = spans.iter().map(span_value).collect();
        Response::ok()
            .field("role", "router")
            .field("spans", Value::Array(items))
            .field("next", next)
            .field("sample_every", seqge_obs::trace::sample_every() as u64)
            .field("pid", std::process::id() as u64)
            .build()
    }

    /// Fans `flightrec` out to every shard and merges: the router's own
    /// document plus one per-shard document (or `null` past the deadline).
    fn flightrec(&self, conns: &mut Conns) -> String {
        let own = seqge_obs::flightrec::document("router");
        let own = serde_json::from_str::<Value>(&own).unwrap_or(Value::Str(own));
        let targets = self.all_shards();
        let got = self.scatter_gather(conns, &targets, |_| r#"{"cmd":"flightrec"}"#.to_string());
        let mut missing = Vec::new();
        let shards: Vec<Value> = got
            .into_iter()
            .enumerate()
            .map(|(s, v)| {
                let body = v
                    .filter(|v| v.get("ok") == Some(&Value::Bool(true)))
                    .and_then(|v| v.get("body").cloned());
                match body {
                    Some(doc) => doc,
                    None => {
                        missing.push(s);
                        Value::Null
                    }
                }
            })
            .collect();
        if !missing.is_empty() {
            self.degraded_total.inc();
        }
        let mut resp = Response::ok()
            .field("role", "router")
            .field("router", own)
            .field("shards", Value::Array(shards))
            .field("degraded", !missing.is_empty())
            .field("missing_shards", Self::missing_field(&missing));
        if !missing.is_empty() {
            resp = resp.field("code", CODE_DEGRADED);
        }
        resp.build()
    }

    fn cluster_status(&self, conns: &mut Conns) -> String {
        // One stats fan-out collects each shard's training-backend
        // descriptor so the status reply can assert homogeneity;
        // unreachable shards contribute `null` (absence is not a
        // mismatch — the health loop deals with dead shards).
        let targets = self.all_shards();
        let got = self.scatter_gather(conns, &targets, |_| r#"{"cmd":"stats"}"#.to_string());
        let backends: Vec<Value> = got
            .iter()
            .map(|v| v.as_ref().and_then(|v| v.get("backend").cloned()).unwrap_or(Value::Null))
            .collect();
        let (backend, backend_mismatch) = Self::backend_consensus(&backends);
        let shards: Vec<Value> = (0..self.num_shards())
            .map(|s| {
                let info = shard_info(&self.shards, s);
                let mut fields = vec![
                    ("shard".to_string(), Value::U64(s as u64)),
                    ("addr".to_string(), Value::Str(info.addr.to_string())),
                    ("epoch".to_string(), Value::U64(info.epoch)),
                    ("healthy".to_string(), Value::Bool(info.healthy)),
                    ("backend".to_string(), backends[s].clone()),
                ];
                match &self.replicas[s] {
                    Some(view) => fields.push((
                        "replica_applied_seq".to_string(),
                        Value::U64(view.applied.load(Ordering::SeqCst)),
                    )),
                    None => fields.push(("replica_applied_seq".to_string(), Value::Null)),
                }
                Value::Object(fields)
            })
            .collect();
        let healthy =
            shards.iter().filter(|v| v.get("healthy") == Some(&Value::Bool(true))).count();
        if backend_mismatch {
            self.degraded_total.inc();
        }
        let mut resp = Response::ok()
            .field("role", "router")
            .field("num_shards", self.num_shards())
            .field("healthy_shards", healthy)
            .field("backend", backend)
            .field("backend_mismatch", backend_mismatch)
            .field("uptime_ms", self.started.elapsed().as_millis() as u64)
            .field("shards", Value::Array(shards))
            .field("degraded", backend_mismatch);
        if backend_mismatch {
            resp = resp.field("code", CODE_DEGRADED);
        }
        resp.build()
    }
}
