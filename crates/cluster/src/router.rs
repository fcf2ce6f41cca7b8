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
//!   protocol's total order (score desc, node id asc). A leg whose
//!   connection fails is redialed once, as in every fan-out below, so a
//!   shard that lost one connection still answers. Client-supplied
//!   `mod`/`rem` are rejected: in cluster mode the partition owns that
//!   filter.
//! * **`get_embedding` / `score_link`** — forwarded to the owner shard,
//!   redialed once within the deadline if the exchange fails; then the
//!   router falls back to the peer owner (`score_link`) and then to the
//!   shard's read replica snapshot, tagging the response
//!   `"source": "replica"`.
//! * **fan-outs** (`stats`, `metrics`, `flush`, `snapshot`, `flightrec`,
//!   `cluster_status`) — one `gather` sends the line to every shard with
//!   one shared deadline, redialing a leg whose connection failed once
//!   within it; responses that miss it are dropped and the reply
//!   carries `"degraded": true` plus the missing shard list. `flush` is
//!   the exception: it is a barrier, so a missing shard turns the whole
//!   call into `overloaded` (retryable) rather than a silently partial
//!   barrier.
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
//!
//! Accepting, queueing, line framing, parsing and per-op telemetry
//! (`seqge_cluster_*`) are the serve front end's ([`seqge_serve::front`]);
//! the router is the [`Service`] behind it.

use crate::partition::{edge_owner, owner};
use crate::shard::{mark_health, shard_info, ShardTable};
use seqge_eval::EdgeOp;
use seqge_obs::{Counter, Registry, TraceCtx};
use seqge_serve::front::{self, FrontHandle, Plane, Service};
use seqge_serve::protocol::{
    self, op_name, MetricsFormat, Request, Response, CODE_DEGRADED, CODE_OVERLOADED,
};
use seqge_serve::snapshot::SnapshotCell;
use seqge_serve::{Client, ClientConfig};
use serde_json::Value;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
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

/// A running router: the serve front end with the router behind it.
pub type RouterHandle = FrontHandle;

/// Starts the router on `addr` over an existing shard table. `replicas`
/// holds one optional [`ReplicaView`] per shard (index-aligned).
pub fn start_router(
    addr: &str,
    shards: ShardTable,
    replicas: Vec<Option<ReplicaView>>,
    cfg: RouterConfig,
) -> io::Result<RouterHandle> {
    assert_eq!(replicas.len(), shards.len(), "one replica slot per shard");
    let registry = Arc::new(Registry::new());
    let stop = Arc::new(AtomicBool::new(false));
    let router = Router {
        shards,
        replicas,
        registry: registry.clone(),
        degraded_total: registry.counter("seqge_cluster_degraded_total"),
        shard_errors: registry.counter("seqge_cluster_shard_errors_total"),
        protocol_errors: registry.counter("seqge_cluster_protocol_errors_total"),
        started: Instant::now(),
        deadline: cfg.deadline,
        stop: stop.clone(),
    };
    front::start(addr, cfg.workers, registry, stop, router)
}

/// Per-worker cached shard connections, tagged with the incarnation
/// epoch they were dialed against.
type Conns = Vec<Option<(u64, Client)>>;

/// One all-shard fan-out's outcome: each shard's picked reply (`null`
/// where none arrived) and the shards that gave none.
struct Gathered {
    shards: Vec<Value>,
    missing: Vec<usize>,
}

/// `v` if it is an `ok:true` reply.
fn ok(v: Value) -> Option<Value> {
    (v.get("ok") == Some(&Value::Bool(true))).then_some(v)
}

struct Router {
    shards: ShardTable,
    replicas: Vec<Option<ReplicaView>>,
    registry: Arc<Registry>,
    degraded_total: Arc<Counter>,
    shard_errors: Arc<Counter>,
    protocol_errors: Arc<Counter>,
    started: Instant,
    deadline: Duration,
    stop: Arc<AtomicBool>,
}

impl Service for Router {
    const PLANE: Plane = Plane::Cluster;
    type Worker = Conns;

    fn worker(&self) -> Conns {
        (0..self.num_shards()).map(|_| None).collect()
    }

    /// The op's `cluster.<op>` span is the fan-out root: per-shard children
    /// open under it (via the thread-local stack) inside `gather` /
    /// `forward_one`.
    fn handle(
        &self,
        conns: &mut Conns,
        req: Request,
        line: &str,
        _trace: Option<TraceCtx>,
    ) -> (String, bool) {
        let out = match req {
            Request::Ping => Response::ok().field("pong", true).field("role", "router").build(),
            Request::Stats => self.stats(conns),
            Request::Metrics { format } => self.metrics(format, conns),
            Request::GetEmbedding { node } => self.get_embedding(node, line, conns),
            Request::TopK { filter: Some(_), .. } => {
                self.protocol_errors.inc();
                Response::err("mod/rem are router-internal: the cluster owns the shard filter")
            }
            Request::TopK { node, k, op, filter: None, mode, probes } => {
                self.topk(node, k, op, mode, probes, conns)
            }
            Request::ScoreLink { u, v, op } => self.score_link(u, v, op, line, conns),
            Request::AddEdge { u, v, .. } | Request::RemoveEdge { u, v, .. } => {
                self.write(u, v, line, conns)
            }
            Request::Flush => self.flush(conns),
            Request::Snapshot => self.snapshot(conns),
            Request::Trace { after } => {
                // The in-process cluster (`seqge cluster`) runs router and
                // shards in one process, so this one ring already holds the
                // full cross-layer trees; a multi-process deployment
                // scrapes each shard's own `trace` op.
                Response::ok().field("role", "router").trace(after).build()
            }
            Request::Flightrec => self.flightrec(conns),
            Request::ClusterStatus => self.cluster_status(conns),
            Request::Shutdown => {
                self.stop.store(true, Ordering::SeqCst);
                return (Response::ok().field("stopping", true).build(), true);
            }
        };
        (out, false)
    }
}

impl Router {
    fn num_shards(&self) -> usize {
        self.shards.len()
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
                timeout: self.deadline,
                retries: 0,
                client_id: format!("router-s{s}"),
                ..ClientConfig::default()
            };
            match Client::connect_with(info.addr, ccfg) {
                Ok(c) => conns[s] = Some((info.epoch, c)),
                Err(_) => {
                    self.shard_errors.inc();
                    mark_health(&self.shards, s, false);
                    return None;
                }
            }
        }
        conns[s].as_mut().map(|(_, c)| c)
    }

    fn drop_conn(&self, conns: &mut Conns, s: usize) {
        conns[s] = None;
        self.shard_errors.inc();
        mark_health(&self.shards, s, false);
    }

    /// Pipelined scatter-gather over every shard: sends `line(s)` to each
    /// shard `s`, then collects the replies under one shared deadline and
    /// reduces each with `pick`. Every fan-out is idempotent, so a leg whose
    /// exchange failed is redialed once within that deadline. A shard that
    /// is still unreachable, past the deadline, or refused by `pick` is
    /// missing.
    fn gather(
        &self,
        conns: &mut Conns,
        line: impl Fn(usize) -> String,
        mut pick: impl FnMut(Value) -> Option<Value>,
    ) -> Gathered {
        // All children share the dispatch root as their parent — explicit
        // ctx, because nested `start_span(.., None)` calls would chain the
        // siblings into a bogus ancestry.
        let parent = seqge_obs::trace::current_ctx();
        let n = self.num_shards();
        let mut legs = Vec::with_capacity(n);
        for s in 0..n {
            let mut sent = false;
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
                    Ok(()) => sent = true,
                    Err(_) => self.drop_conn(conns, s),
                }
            }
            legs.push((sp, sent));
        }
        let deadline = Instant::now() + self.deadline;
        let mut g = Gathered { shards: Vec::with_capacity(n), missing: Vec::new() };
        for (s, (mut sp, sent)) in legs.into_iter().enumerate() {
            let reply = if sent {
                let c = conns[s].as_mut().map(|(_, c)| c).expect("sent implies connected");
                let remaining = deadline.saturating_duration_since(Instant::now());
                let reply = c
                    .set_read_timeout(Some(remaining.max(Duration::from_millis(1))))
                    .and_then(|()| c.recv_line());
                let reply = reply.ok().and_then(|r| serde_json::from_str::<Value>(&r).ok());
                match reply {
                    // Restore the default timeout for future single calls.
                    Some(_) => {
                        _ = c.set_read_timeout(Some(self.deadline));
                        mark_health(&self.shards, s, true);
                    }
                    None => self.drop_conn(conns, s),
                }
                reply
            } else {
                None
            };
            if reply.is_none() && sp.is_active() {
                sp.force_sample();
                sp.tag("outcome", if sent { "missed_deadline" } else { "unreachable" });
            }
            drop(sp);
            let reply = reply.or_else(|| {
                let resp = self.redial(conns, s, &line(s), deadline)?;
                serde_json::from_str::<Value>(&resp).ok()
            });
            match reply.and_then(&mut pick) {
                Some(v) => g.shards.push(v),
                None => {
                    g.shards.push(Value::Null);
                    g.missing.push(s);
                }
            }
        }
        g
    }

    /// Forwards one raw request line to shard `s`, returning the raw
    /// response line (verbatim passthrough, plus this hop's trace context
    /// so the shard span parents here). `timeout` shortens the wait for the
    /// reply below the connection's default `deadline`.
    fn forward_one(
        &self,
        conns: &mut Conns,
        s: usize,
        line: &str,
        timeout: Option<Duration>,
    ) -> Option<String> {
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
        let shortened = timeout.map_or(Ok(()), |t| c.set_read_timeout(Some(t)));
        let resp = shortened.and_then(|()| match sp.ctx() {
            Some(ctx) => c.call_traced(line, &ctx),
            None => c.call_raw(line),
        });
        match resp {
            Ok(resp) => {
                if timeout.is_some() {
                    _ = c.set_read_timeout(Some(self.deadline));
                }
                mark_health(&self.shards, s, true);
                Some(resp)
            }
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

    /// One more exchange with shard `s` after a failed one, if `deadline`
    /// leaves time for it. Only idempotent requests take it: writes go back
    /// to the client, whose resend carries the same `WriteId`.
    fn redial(&self, conns: &mut Conns, s: usize, line: &str, deadline: Instant) -> Option<String> {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining < Duration::from_millis(1) {
            return None;
        }
        self.forward_one(conns, s, line, Some(remaining))
    }

    /// [`Router::forward_one`] for a single-shard read, redialed once
    /// within one `deadline` before the shard counts as unavailable.
    fn read_one(&self, conns: &mut Conns, s: usize, line: &str) -> Option<String> {
        let deadline = Instant::now() + self.deadline;
        self.forward_one(conns, s, line, None).or_else(|| self.redial(conns, s, line, deadline))
    }

    /// Appends `degraded`, `missing_shards` and — when degraded, that is
    /// when a shard is missing or `also` holds — `code`, counting the
    /// degradation once.
    fn degrade(&self, resp: Response, missing: &[usize], also: bool) -> Response {
        let degraded = !missing.is_empty() || also;
        let missing = Value::Array(missing.iter().map(|&s| Value::U64(s as u64)).collect());
        let resp = resp.field("degraded", degraded).field("missing_shards", missing);
        if !degraded {
            return resp;
        }
        self.degraded_total.inc();
        resp.field("code", CODE_DEGRADED)
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
        let Gathered { shards, missing } =
            self.gather(conns, |_| r#"{"cmd":"stats"}"#.into(), Some);
        let backends: Vec<Value> =
            shards.iter().map(|s| s.get("backend").cloned().unwrap_or(Value::Null)).collect();
        let (backend, backend_mismatch) = Self::backend_consensus(&backends);
        // Every shard carries the full (global-id) node set, so any
        // reachable shard's count is the cluster's; surfacing it at the
        // top level lets clients (the load generator's node probe among
        // them) treat router and single-node stats uniformly.
        let nodes =
            shards.iter().filter_map(|s| s.get("nodes").and_then(Value::as_u64)).max().unwrap_or(0);
        let resp = Response::ok()
            .field("role", "router")
            .field("nodes", nodes)
            .field("num_shards", self.num_shards())
            .field("backend", backend)
            .field("backend_mismatch", backend_mismatch)
            .field("uptime_ms", self.started.elapsed().as_millis() as u64)
            .field("shards", Value::Array(shards));
        self.degrade(resp, &missing, backend_mismatch).build()
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
        let g = self.gather(
            conns,
            |_| r#"{"cmd":"metrics","format":"json"}"#.into(),
            |v| serde_json::from_str(ok(v)?.get("body")?.as_str()?).ok(),
        );
        let merged = Registry::new();
        for doc in &g.shards {
            Self::merge_serve_series_into(&merged, doc);
        }
        let regs: [&Registry; 3] = [&merged, self.registry.as_ref(), Registry::global()];
        self.degrade(Response::ok().metrics(format, &regs), &g.missing, false).build()
    }

    fn get_embedding(&self, node: u32, line: &str, conns: &mut Conns) -> String {
        let s = owner(node, self.num_shards());
        if let Some(resp) = self.read_one(conns, s, line) {
            return resp;
        }
        self.degraded_total.inc();
        if let Some(view) = &self.replicas[s] {
            let snap = view.cell.load();
            if let Some(row) = snap.embedding(node) {
                // The node's reply, marked as the replica's.
                let reply = Response::embedding(node, snap.version, row);
                return reply.field("source", "replica").field("code", CODE_DEGRADED).build();
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
            if let Some(resp) = self.read_one(conns, s, line) {
                return resp;
            }
        }
        self.degraded_total.inc();
        if let Some(view) = &self.replicas[a] {
            let snap = view.cell.load();
            if let Some(score) = snap.score(u, v, op) {
                let reply = Response::score(u, v, op, snap.version, score);
                return reply.field("source", "replica").field("code", CODE_DEGRADED).build();
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
        // The recall knob rides through scatter-gather verbatim: each
        // shard runs ANN over its own residue class, and because every
        // candidate is re-ranked exactly shard-side, the merged order is
        // still the protocol total order.
        let mut errors = Vec::new();
        let g = self.gather(
            conns,
            |s| {
                format!(
                    r#"{{"cmd":"topk","node":{node},"k":{k},"op":"{}","mode":"{}","probes":{probes},"mod":{n},"rem":{s}}}"#,
                    op_name(op),
                    mode.as_str()
                )
            },
            |v| {
                if v.get("ok") == Some(&Value::Bool(true)) {
                    return Some(v.get("results").cloned().unwrap_or(Value::Null));
                }
                errors.push(v.get("error").and_then(Value::as_str).unwrap_or("unknown").to_string());
                None
            },
        );
        // Every shard rejected the query (e.g. node out of range): that
        // is a real error, not degradation.
        if g.missing.len() == n {
            if let Some(e) = errors.first() {
                return Response::err(e);
            }
            self.degraded_total.inc();
            return Response::err_code(CODE_DEGRADED, "degraded: no shard reachable");
        }
        let hits = g.shards.iter().filter_map(Value::as_array).flatten();
        let mut merged: Vec<(u32, f64)> = hits
            .filter_map(|hit| {
                Some((hit.get("node")?.as_u64()? as u32, hit.get("score")?.as_f64()?))
            })
            .collect();
        // Protocol total order: score desc, node id asc. Cross-shard ties
        // are resolved here under the same rule every shard uses locally.
        merged.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        merged.truncate(k);
        let resp = Response::ok().field("node", node).field("op", op_name(op)).results(merged);
        self.degrade(resp, &g.missing, false).build()
    }

    fn write(&self, u: u32, v: u32, line: &str, conns: &mut Conns) -> String {
        // Single-owner routing: exactly one shard (the min endpoint's —
        // orientation-invariant, since (u,v) and (v,u) name the same
        // undirected edge) applies and trains this edge. No other shard
        // ever sees it, so cluster-wide each edge trains exactly once.
        let s = edge_owner(u, v, self.num_shards());
        let Some(resp) = self.forward_one(conns, s, line, None) else {
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
        let g = self.gather(
            conns,
            |_| r#"{"cmd":"flush"}"#.into(),
            |v| Some(Value::U64(ok(v)?.get("version")?.as_u64()?)),
        );
        if let Some(s) = g.missing.first() {
            self.degraded_total.inc();
            // A partial barrier is not a barrier; make it retryable instead.
            return Response::err_code(
                CODE_OVERLOADED,
                format!("overloaded: shard {s} unavailable, retry"),
            );
        }
        let max = g.shards.iter().filter_map(Value::as_u64).max().unwrap_or(0);
        Response::ok().field("version", max).field("versions", Value::Array(g.shards)).build()
    }

    /// `snapshot` on every shard, reporting the per-shard replies plus
    /// degradation.
    fn snapshot(&self, conns: &mut Conns) -> String {
        let Gathered { shards, missing } =
            self.gather(conns, |_| r#"{"cmd":"snapshot"}"#.into(), Some);
        let resp = Response::ok().field("shards", Value::Array(shards));
        self.degrade(resp, &missing, false).build()
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
                let labels: Vec<(&str, &str)> = match item.get("labels") {
                    Some(Value::Object(entries)) => entries
                        .iter()
                        .filter_map(|(k, v)| Some((k.as_str(), v.as_str()?)))
                        .collect(),
                    _ => Vec::new(),
                };
                if is_counter {
                    if let Some(val) = item.get("value").and_then(Value::as_u64) {
                        reg.counter_with(name, &labels).add(val);
                    }
                } else if let Some(val) = item.get("value").and_then(Value::as_f64) {
                    reg.gauge_with(name, &labels).add(val as i64);
                }
            }
        }
    }

    /// Fans `flightrec` out to every shard and merges: the router's own
    /// document plus one per-shard document (or `null` past the deadline).
    fn flightrec(&self, conns: &mut Conns) -> String {
        let own = seqge_obs::flightrec::document("router");
        let own = serde_json::from_str::<Value>(&own).unwrap_or(Value::Str(own));
        let Gathered { shards, missing } = self.gather(
            conns,
            |_| r#"{"cmd":"flightrec"}"#.into(),
            |v| ok(v)?.get("body").cloned(),
        );
        let resp = Response::ok()
            .field("role", "router")
            .field("router", own)
            .field("shards", Value::Array(shards));
        self.degrade(resp, &missing, false).build()
    }

    fn cluster_status(&self, conns: &mut Conns) -> String {
        // One stats fan-out collects each shard's training-backend
        // descriptor so the status reply can assert homogeneity;
        // unreachable shards contribute `null` (absence is not a
        // mismatch — the health loop deals with dead shards).
        let backends = self
            .gather(conns, |_| r#"{"cmd":"stats"}"#.into(), |v| v.get("backend").cloned())
            .shards;
        let (backend, backend_mismatch) = Self::backend_consensus(&backends);
        let shards: Vec<Value> = (0..self.num_shards())
            .map(|s| {
                let info = shard_info(&self.shards, s);
                let replica_applied = match &self.replicas[s] {
                    Some(view) => Value::U64(view.applied.load(Ordering::SeqCst)),
                    None => Value::Null,
                };
                Value::Object(vec![
                    ("shard".to_string(), Value::U64(s as u64)),
                    ("addr".to_string(), Value::Str(info.addr.to_string())),
                    ("epoch".to_string(), Value::U64(info.epoch)),
                    ("healthy".to_string(), Value::Bool(info.healthy)),
                    ("backend".to_string(), backends[s].clone()),
                    ("replica_applied_seq".to_string(), replica_applied),
                ])
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

#[cfg(test)]
mod tests {
    use super::*;
    use seqge_serve::protocol::WIRE_OPS;

    #[test]
    fn metrics_lists_every_op_before_any_traffic() {
        let table = crate::shard::shard_table(&[]);
        let router = start_router("127.0.0.1:0", table, Vec::new(), RouterConfig::default())
            .expect("router boots");
        let body = Client::connect(router.addr())
            .and_then(|mut c| c.metrics("prometheus"))
            .expect("metrics answered");
        for op in WIRE_OPS {
            let series = format!("seqge_cluster_requests_total{{op=\"{}\"}} 0", op.name);
            assert!(body.contains(&series), "{series} missing:\n{body}");
        }
        router.shutdown().expect("router stops");
    }
}
