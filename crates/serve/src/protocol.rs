//! The wire protocol: one JSON object per LF-terminated line, both ways.
//!
//! ```text
//! request  := { "cmd": <name>, ...params } "\n"
//! response := { "ok": true, ...fields } "\n"
//!           | { "ok": false, "code"?: <class>, "error": <message> } "\n"
//! ```
//!
//! Commands (write plane → trainer thread, read plane → snapshot):
//!
//! | cmd             | params                        | plane  |
//! |-----------------|-------------------------------|--------|
//! | `ping`          | —                             | read   |
//! | `stats`         | —                             | read   |
//! | `get_embedding` | `node`                        | read   |
//! | `topk`          | `node`, `k?=10`, `op?=cosine`, `mode?=exact`, `probes?=8`, `mod?`, `rem?` | read |
//! | `score_link`    | `u`, `v`, `op?=cosine`        | read   |
//! | `add_edge`      | `u`, `v`, `client?`, `seq?`   | write  |
//! | `remove_edge`   | `u`, `v`, `client?`, `seq?`   | write  |
//! | `flush`         | —                             | write  |
//! | `snapshot`      | —                             | write  |
//! | `metrics`       | `format?="prometheus"`        | read   |
//! | `trace`         | `after?=0`                    | read   |
//! | `flightrec`     | —                             | read   |
//! | `shutdown`      | —                             | ctrl   |
//! | `cluster_status`| — (router only: a node errors) | read |
//!
//! Any request may additionally carry a `trace` object —
//! `{"trace":{"id":"<16 hex>","span":"<16 hex>","sampled":bool}}` — the
//! propagated distributed-tracing context ([`seqge_obs::TraceCtx`]): the
//! server parents its request span under it and honors the caller's
//! sampling decision. The field is pure observability metadata: a
//! malformed `trace` object is ignored rather than failing the request.
//! `trace` returns completed sampled spans from the process ring with
//! `seq > after` (pass the returned `next` back as `after` to tail);
//! `flightrec` returns the live flight-recorder document.
//!
//! `op` is one of `"dot"`, `"cosine"`, `"neg_l2"`. `topk` optionally takes
//! a residue-class candidate filter (`mod` + `rem`): only nodes `v` with
//! `v % mod == rem` compete. The cluster router uses it so each shard
//! answers exactly for the vertex slice it owns. `mode` selects the
//! candidate-generation strategy: `"exact"` (default) scans every vertex,
//! `"ann"` unions LSH buckets (plus `probes` low-margin bit-flip probes per
//! band) and re-ranks the candidates exactly — same scores, same tie-break,
//! approximate only in *which* vertices compete. Lines longer than
//! [`MAX_LINE_BYTES`] are a protocol violation: the server answers with an
//! error and closes the connection (a misbehaving writer cannot make it
//! buffer unboundedly).
//!
//! Write commands may carry a [`WriteId`] (`client` + `seq`): a client that
//! retries after a lost ack resends the *same* id, and the server answers
//! `deduped: true` instead of applying the event twice. `seq` must be
//! strictly increasing per `client` string.
//!
//! ## Reply classification: the `code` field
//!
//! Replies that are neither clean successes nor hard errors carry a stable
//! machine-readable `code` so clients classify them without string-matching
//! the `error` message:
//!
//! - [`CODE_OVERLOADED`] (`"overloaded"`) — the request was *shed*, not
//!   answered: trainer backlog over `max_backlog`, connection queue full,
//!   or (through the router) the owning shard unreachable for a write.
//!   Always on an `ok:false` reply; safe to retry with backoff, reusing
//!   the same [`WriteId`].
//! - [`CODE_DEGRADED`] (`"degraded"`) — the reply is best-effort: a
//!   partial scatter-gather answer (`ok:true` with `degraded:true` +
//!   `missing_shards`), a read served from a lagging replica
//!   (`source:"replica"`), or an `ok:false` when no fallback covered the
//!   key at all. Retrying may or may not improve the answer.
//!
//! Hard errors (bad request, unknown node, malformed JSON) carry no
//! `code`. The `error` text keeps its historical `overloaded:` /
//! `degraded:` prefixes for older string-matching clients, but `code` is
//! the authoritative classifier.

use seqge_eval::EdgeOp;
use seqge_graph::NodeId;
use seqge_obs::{export, Registry, TraceCtx};
use serde_json::Value;

/// Hard cap on one request line (including the newline).
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// `code` value for shed requests (backlog / queue / shard overload):
/// nothing was answered; retry with backoff under the same [`WriteId`].
pub const CODE_OVERLOADED: &str = "overloaded";

/// `code` value for best-effort replies (partial scatter-gather, replica
/// fallback) and for failures where no fallback covered the key.
pub const CODE_DEGRADED: &str = "degraded";

/// Default `k` for `topk` requests.
pub const DEFAULT_TOPK: usize = 10;

/// Default per-band multi-probe count for `mode:"ann"` topk requests.
pub const DEFAULT_PROBES: usize = 8;

/// Hard cap on the per-request `probes` knob.
pub const MAX_PROBES: usize = 64;

/// Candidate-generation strategy for `topk`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TopKMode {
    /// Brute-force scan over every vertex (the bit-exact reference).
    #[default]
    Exact,
    /// LSH candidate generation with exact re-ranking; falls back to the
    /// exact scan when no index is published or too few candidates
    /// survive the filters.
    Ann,
}

impl TopKMode {
    /// Wire name (the `mode` request parameter / response field).
    pub fn as_str(self) -> &'static str {
        match self {
            TopKMode::Exact => "exact",
            TopKMode::Ann => "ann",
        }
    }
}

/// Rendering of the `metrics` op's registry dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Prometheus text-exposition format (for scrapers).
    Prometheus,
    /// One JSON document (for `seqge obs dump`).
    Json,
}

impl MetricsFormat {
    /// Wire name (the `format` request parameter / response field).
    pub fn as_str(self) -> &'static str {
        match self {
            MetricsFormat::Prometheus => "prometheus",
            MetricsFormat::Json => "json",
        }
    }
}

/// Retry-safe identity of one write: clients number their writes so a
/// resend after a lost ack dedups server-side instead of double-applying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteId {
    /// Client identity (any non-empty string, ≤ 128 bytes).
    pub client: String,
    /// Strictly increasing per-client write number.
    pub seq: u64,
}

/// Longest accepted `client` string.
pub const MAX_CLIENT_ID_BYTES: usize = 128;

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Server/trainer telemetry.
    Stats,
    /// One embedding row.
    GetEmbedding {
        /// Node to look up.
        node: NodeId,
    },
    /// Nearest neighbors of a node.
    TopK {
        /// Query node.
        node: NodeId,
        /// Result count.
        k: usize,
        /// Scoring operator.
        op: EdgeOp,
        /// Residue-class candidate filter `(modulus, remainder)`: only
        /// nodes `v` with `v % modulus == remainder` compete. `None`
        /// considers every node.
        filter: Option<(u32, u32)>,
        /// Candidate-generation strategy (exact scan vs ANN index).
        mode: TopKMode,
        /// Per-band multi-probe count for [`TopKMode::Ann`]; ignored by
        /// the exact path.
        probes: usize,
    },
    /// Edge score for a candidate link.
    ScoreLink {
        /// First endpoint.
        u: NodeId,
        /// Second endpoint.
        v: NodeId,
        /// Scoring operator.
        op: EdgeOp,
    },
    /// Queue an edge insertion.
    AddEdge {
        /// First endpoint.
        u: NodeId,
        /// Second endpoint.
        v: NodeId,
        /// Optional retry-dedup identity.
        write_id: Option<WriteId>,
    },
    /// Queue an edge retraction.
    RemoveEdge {
        /// First endpoint.
        u: NodeId,
        /// Second endpoint.
        v: NodeId,
        /// Optional retry-dedup identity.
        write_id: Option<WriteId>,
    },
    /// Barrier: wait until every queued event is trained and published.
    Flush,
    /// Commit a snapshot generation to the WAL store (an error on an
    /// ephemeral server).
    Snapshot,
    /// Dump the metrics registries (server instance + process-global).
    Metrics {
        /// Output rendering.
        format: MetricsFormat,
    },
    /// Fetch completed sampled spans from the process trace ring.
    Trace {
        /// Only spans with ring sequence strictly greater than this are
        /// returned; pass a response's `next` back to tail incrementally.
        after: u64,
    },
    /// Fetch the live flight-recorder document (recent spans + log lines).
    Flightrec,
    /// Graceful shutdown of the whole server.
    Shutdown,
    /// Per-shard health and the cluster's backend (answered by the
    /// cluster router; a node refuses it).
    ClusterStatus,
}

/// One wire op as telemetry names it. The span names are spelled out at
/// compile time so tracing-off dispatch never allocates.
#[derive(Debug, PartialEq, Eq)]
pub struct WireOp {
    /// The `cmd` value (label value of the per-op request series).
    pub name: &'static str,
    /// The span a shard server opens around the op (`serve.<name>`).
    pub serve_span: &'static str,
    /// The span the cluster router opens around it (`cluster.<name>`).
    pub cluster_span: &'static str,
}

/// Spells every op once: the [`WIRE_OPS`] table and each [`Request`]
/// variant's row of it come from the same list.
macro_rules! wire_ops {
    (@row $name:literal) => {
        WireOp {
            name: $name,
            serve_span: concat!("serve.", $name),
            cluster_span: concat!("cluster.", $name),
        }
    };
    ($($variant:ident => $name:literal,)*) => {
        /// Every wire op (for pre-registering per-op series).
        pub const WIRE_OPS: &[WireOp] = &[$(wire_ops!(@row $name)),*];

        impl Request {
            /// This request's row of [`WIRE_OPS`].
            pub fn op(&self) -> &'static WireOp {
                match self {
                    $(Request::$variant { .. } => &wire_ops!(@row $name),)*
                }
            }
        }
    };
}

wire_ops! {
    Ping => "ping",
    Stats => "stats",
    GetEmbedding => "get_embedding",
    TopK => "topk",
    ScoreLink => "score_link",
    AddEdge => "add_edge",
    RemoveEdge => "remove_edge",
    Flush => "flush",
    Snapshot => "snapshot",
    Metrics => "metrics",
    Trace => "trace",
    Flightrec => "flightrec",
    Shutdown => "shutdown",
    ClusterStatus => "cluster_status",
}

fn get_u32(v: &Value, key: &str) -> Result<u32, String> {
    match v.get(key) {
        Some(f) => f
            .as_u64()
            .filter(|&x| x <= u32::MAX as u64)
            .map(|x| x as u32)
            .ok_or_else(|| format!("`{key}` must be a non-negative integer node id")),
        None => Err(format!("missing field `{key}`")),
    }
}

fn get_op(v: &Value) -> Result<EdgeOp, String> {
    match v.get("op") {
        None => Ok(EdgeOp::Cosine),
        Some(o) => match o.as_str() {
            Some("dot") => Ok(EdgeOp::Dot),
            Some("cosine") => Ok(EdgeOp::Cosine),
            Some("neg_l2") => Ok(EdgeOp::NegL2),
            _ => Err("`op` must be one of \"dot\", \"cosine\", \"neg_l2\"".to_string()),
        },
    }
}

fn get_write_id(v: &Value) -> Result<Option<WriteId>, String> {
    match (v.get("client"), v.get("seq")) {
        (None, None) => Ok(None),
        (Some(c), Some(s)) => {
            let client = c
                .as_str()
                .filter(|c| !c.is_empty() && c.len() <= MAX_CLIENT_ID_BYTES)
                .ok_or_else(|| {
                    format!("`client` must be a non-empty string of at most {MAX_CLIENT_ID_BYTES} bytes")
                })?;
            let seq = s.as_u64().filter(|&x| x > 0).ok_or("`seq` must be a positive integer")?;
            Ok(Some(WriteId { client: client.to_string(), seq }))
        }
        _ => Err("`client` and `seq` must be given together".to_string()),
    }
}

/// Extracts the optional propagated trace context from a parsed request
/// object. Malformed contexts yield `None` — tracing metadata must never
/// fail a request. Reads the *last* `trace` member so a hop that
/// [`attach_trace`]es onto an already-traced line (the router re-parenting
/// a forwarded write under its fan-out span) wins over the original.
fn get_trace(v: &Value) -> Option<TraceCtx> {
    let Value::Object(entries) = v else { return None };
    let t = entries.iter().rev().find(|(k, _)| k == "trace").map(|(_, t)| t)?;
    let trace_id = TraceCtx::parse_id(t.get("id")?.as_str()?)?;
    let parent_span = TraceCtx::parse_id(t.get("span")?.as_str()?)?;
    let sampled = match t.get("sampled") {
        Some(Value::Bool(b)) => *b,
        _ => true,
    };
    Some(TraceCtx { trace_id, parent_span, sampled })
}

/// Renders one completed span as the `trace` op's wire object (mirrors the
/// JSONL exporter's field names so the CLI can treat both alike).
fn span_value(rec: &seqge_obs::SpanRecord) -> Value {
    use seqge_obs::trace::fmt_id;
    let mut fields = vec![
        ("trace".to_string(), Value::Str(fmt_id(rec.trace_id))),
        ("span".to_string(), Value::Str(fmt_id(rec.span_id))),
        (
            "parent".to_string(),
            if rec.parent_span == 0 { Value::Null } else { Value::Str(fmt_id(rec.parent_span)) },
        ),
        ("name".to_string(), Value::Str(rec.name.clone())),
        ("ts_us".to_string(), Value::U64(rec.start_unix_ns / 1_000)),
        ("dur_us".to_string(), Value::U64(rec.dur_ns / 1_000)),
        ("tid".to_string(), Value::U64(rec.tid)),
        ("seq".to_string(), Value::U64(rec.seq)),
    ];
    if !rec.tags.is_empty() {
        let tags: Vec<(String, Value)> =
            rec.tags.iter().map(|(k, v)| (k.clone(), Value::Str(v.clone()))).collect();
        fields.push(("tags".to_string(), Value::Object(tags)));
    }
    Value::Object(fields)
}

/// Renders a trace context as the wire `trace` field's value.
fn trace_field(ctx: &TraceCtx) -> String {
    format!(
        r#"{{"id":"{}","span":"{}","sampled":{}}}"#,
        seqge_obs::trace::fmt_id(ctx.trace_id),
        seqge_obs::trace::fmt_id(ctx.parent_span),
        ctx.sampled
    )
}

/// Splices `"trace":{...}` into an already-valid request line (the router
/// and loadgen compose lines textually; re-serializing through the parser
/// would lose unknown fields). Replaces any existing `trace` field by
/// appending after it — `get_trace` reads the last occurrence, so the
/// newest hop's context wins without textual surgery on the original.
pub fn attach_trace(line: &str, ctx: &TraceCtx) -> String {
    let trimmed = line.trim_end();
    match trimmed.strip_suffix('}') {
        Some(body) => {
            let sep = if body.trim_end().ends_with('{') { "" } else { "," };
            format!("{body}{sep}\"trace\":{}}}", trace_field(ctx))
        }
        None => trimmed.to_string(),
    }
}

/// Parses one request line. Errors are human-readable strings the server
/// echoes back verbatim in the `error` field.
pub fn parse_request(line: &str) -> Result<Request, String> {
    parse_request_traced(line).map(|(req, _)| req)
}

/// Like [`parse_request`], also returning the propagated trace context if
/// the line carried a well-formed `trace` object.
pub fn parse_request_traced(line: &str) -> Result<(Request, Option<TraceCtx>), String> {
    if line.len() > MAX_LINE_BYTES {
        return Err(format!("line exceeds {MAX_LINE_BYTES} bytes"));
    }
    let v: Value = serde_json::from_str(line).map_err(|e| format!("malformed JSON: {e}"))?;
    if !matches!(v, Value::Object(_)) {
        return Err("request must be a JSON object".to_string());
    }
    let cmd = v
        .get("cmd")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing string field `cmd`".to_string())?;
    let trace = get_trace(&v);
    let req = match cmd {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "get_embedding" => Ok(Request::GetEmbedding { node: get_u32(&v, "node")? }),
        "topk" => {
            let k = match v.get("k") {
                None => DEFAULT_TOPK,
                Some(kv) => {
                    kv.as_u64()
                        .filter(|&x| (1..=10_000).contains(&x))
                        .ok_or("`k` must be an integer in 1..=10000")? as usize
                }
            };
            let filter = match (v.get("mod"), v.get("rem")) {
                (None, None) => None,
                (Some(m), Some(r)) => {
                    let m = m
                        .as_u64()
                        .filter(|&x| (1..=u32::MAX as u64).contains(&x))
                        .ok_or("`mod` must be a positive integer")?
                        as u32;
                    let r = r
                        .as_u64()
                        .filter(|&x| x < m as u64)
                        .ok_or("`rem` must be an integer below `mod`")?
                        as u32;
                    Some((m, r))
                }
                _ => return Err("`mod` and `rem` must be given together".to_string()),
            };
            let mode = match v.get("mode") {
                None => TopKMode::Exact,
                Some(m) => match m.as_str() {
                    Some("exact") => TopKMode::Exact,
                    Some("ann") => TopKMode::Ann,
                    _ => return Err("`mode` must be one of \"exact\", \"ann\"".to_string()),
                },
            };
            let probes = match v.get("probes") {
                None => DEFAULT_PROBES,
                Some(p) => p
                    .as_u64()
                    .filter(|&x| x <= MAX_PROBES as u64)
                    .ok_or_else(|| format!("`probes` must be an integer in 0..={MAX_PROBES}"))?
                    as usize,
            };
            Ok(Request::TopK {
                node: get_u32(&v, "node")?,
                k,
                op: get_op(&v)?,
                filter,
                mode,
                probes,
            })
        }
        "score_link" => {
            Ok(Request::ScoreLink { u: get_u32(&v, "u")?, v: get_u32(&v, "v")?, op: get_op(&v)? })
        }
        "add_edge" => Ok(Request::AddEdge {
            u: get_u32(&v, "u")?,
            v: get_u32(&v, "v")?,
            write_id: get_write_id(&v)?,
        }),
        "remove_edge" => Ok(Request::RemoveEdge {
            u: get_u32(&v, "u")?,
            v: get_u32(&v, "v")?,
            write_id: get_write_id(&v)?,
        }),
        "flush" => Ok(Request::Flush),
        "snapshot" => Ok(Request::Snapshot),
        "metrics" => {
            let format = match v.get("format") {
                None => MetricsFormat::Prometheus,
                Some(f) => match f.as_str() {
                    Some("prometheus") => MetricsFormat::Prometheus,
                    Some("json") => MetricsFormat::Json,
                    _ => return Err("`format` must be one of \"prometheus\", \"json\"".to_string()),
                },
            };
            Ok(Request::Metrics { format })
        }
        "trace" => {
            let after = match v.get("after") {
                None => 0,
                Some(a) => a.as_u64().ok_or("`after` must be a non-negative integer")?,
            };
            Ok(Request::Trace { after })
        }
        "flightrec" => Ok(Request::Flightrec),
        "shutdown" => Ok(Request::Shutdown),
        "cluster_status" => Ok(Request::ClusterStatus),
        other => Err(format!("unknown command `{other}`")),
    }?;
    Ok((req, trace))
}

/// Conversion into the vendored [`Value`] tree for response fields (the
/// shim's `Value` carries no `From` impls, so the builder brings its own).
pub trait ToJson {
    /// Renders `self` as a [`Value`].
    fn to_json(self) -> Value;
}

impl ToJson for Value {
    fn to_json(self) -> Value {
        self
    }
}
impl ToJson for bool {
    fn to_json(self) -> Value {
        Value::Bool(self)
    }
}
impl ToJson for u64 {
    fn to_json(self) -> Value {
        Value::U64(self)
    }
}
impl ToJson for usize {
    fn to_json(self) -> Value {
        Value::U64(self as u64)
    }
}
impl ToJson for u32 {
    fn to_json(self) -> Value {
        Value::U64(self as u64)
    }
}
impl ToJson for f64 {
    fn to_json(self) -> Value {
        Value::F64(self)
    }
}
impl ToJson for &str {
    fn to_json(self) -> Value {
        Value::Str(self.to_string())
    }
}
impl ToJson for String {
    fn to_json(self) -> Value {
        Value::Str(self)
    }
}
impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(self) -> Value {
        Value::Array(self.into_iter().map(ToJson::to_json).collect())
    }
}

/// Builder for one response line (without the trailing newline).
pub struct Response {
    fields: Vec<(String, Value)>,
}

impl Response {
    /// Starts an `{"ok": true, ...}` response.
    pub fn ok() -> Self {
        Response { fields: vec![("ok".to_string(), Value::Bool(true))] }
    }

    /// A complete `{"ok": false, "error": msg}` line.
    pub fn err(msg: impl std::fmt::Display) -> String {
        let fields = vec![
            ("ok".to_string(), Value::Bool(false)),
            ("error".to_string(), Value::Str(msg.to_string())),
        ];
        serde_json::to_string(&Value::Object(fields)).expect("response serializes")
    }

    /// A complete `{"ok": false, "code": code, "error": msg}` line. `code`
    /// is one of [`CODE_OVERLOADED`] / [`CODE_DEGRADED`]; the message is
    /// carried verbatim (shed paths keep their `overloaded:` prefix for
    /// clients that still classify by text).
    pub fn err_code(code: &str, msg: impl std::fmt::Display) -> String {
        let fields = vec![
            ("ok".to_string(), Value::Bool(false)),
            ("code".to_string(), Value::Str(code.to_string())),
            ("error".to_string(), Value::Str(msg.to_string())),
        ];
        serde_json::to_string(&Value::Object(fields)).expect("response serializes")
    }

    /// Appends one field.
    pub fn field(mut self, key: &str, value: impl ToJson) -> Self {
        self.fields.push((key.to_string(), value.to_json()));
        self
    }

    /// Renders the line.
    pub fn build(self) -> String {
        serde_json::to_string(&Value::Object(self.fields)).expect("response serializes")
    }

    /// The `get_embedding` reply: `node`'s `row` at snapshot `version`.
    pub fn embedding(node: NodeId, version: u64, row: &[f32]) -> Self {
        let row = row.iter().map(|&x| Value::F64(x as f64)).collect();
        Response::ok()
            .field("node", node)
            .field("version", version)
            .field("embedding", Value::Array(row))
    }

    /// The `score_link` reply: `(u, v)` scored `score` under `op` at
    /// snapshot `version`.
    pub fn score(u: NodeId, v: NodeId, op: EdgeOp, version: u64, score: f64) -> Self {
        Response::ok()
            .field("u", u)
            .field("v", v)
            .field("op", op_name(op))
            .field("version", version)
            .field("score", score)
    }

    /// Appends a `topk` hit list, best first, as `results`.
    pub fn results(self, hits: Vec<(NodeId, f64)>) -> Self {
        let items = hits
            .into_iter()
            .map(|(v, s)| {
                Value::Object(vec![
                    ("node".to_string(), Value::U64(v as u64)),
                    ("score".to_string(), Value::F64(s)),
                ])
            })
            .collect();
        self.field("results", Value::Array(items))
    }

    /// Appends the `trace` op's fields: this process's completed sampled
    /// spans past `after`, the cursor to pass next, the sampling rate and
    /// the process id.
    pub fn trace(self, after: u64) -> Self {
        let (spans, next) = seqge_obs::trace::snapshot_since(after);
        self.field("spans", Value::Array(spans.iter().map(span_value).collect()))
            .field("next", next)
            .field("sample_every", seqge_obs::trace::sample_every() as u64)
            .field("pid", std::process::id() as u64)
    }

    /// Appends the `metrics` op's fields: `regs` rendered in `format`.
    pub fn metrics(self, format: MetricsFormat, regs: &[&Registry]) -> Self {
        let body = match format {
            MetricsFormat::Prometheus => export::prometheus(regs),
            MetricsFormat::Json => export::dump_json(regs),
        };
        self.field("format", format.as_str()).field("body", body)
    }
}

/// The wire name of an [`EdgeOp`] (inverse of the `op` parameter).
pub fn op_name(op: EdgeOp) -> &'static str {
    match op {
        EdgeOp::Dot => "dot",
        EdgeOp::Cosine => "cosine",
        EdgeOp::NegL2 => "neg_l2",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_command() {
        assert_eq!(parse_request(r#"{"cmd":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(parse_request(r#"{"cmd":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(
            parse_request(r#"{"cmd":"get_embedding","node":3}"#).unwrap(),
            Request::GetEmbedding { node: 3 }
        );
        let topk_defaults = |node, k, op, filter| Request::TopK {
            node,
            k,
            op,
            filter,
            mode: TopKMode::Exact,
            probes: DEFAULT_PROBES,
        };
        assert_eq!(
            parse_request(r#"{"cmd":"topk","node":1,"k":5,"op":"dot"}"#).unwrap(),
            topk_defaults(1, 5, EdgeOp::Dot, None)
        );
        assert_eq!(
            parse_request(r#"{"cmd":"topk","node":1}"#).unwrap(),
            topk_defaults(1, DEFAULT_TOPK, EdgeOp::Cosine, None)
        );
        assert_eq!(
            parse_request(r#"{"cmd":"topk","node":1,"mod":4,"rem":3}"#).unwrap(),
            topk_defaults(1, DEFAULT_TOPK, EdgeOp::Cosine, Some((4, 3)))
        );
        assert_eq!(
            parse_request(r#"{"cmd":"topk","node":1,"mode":"ann","probes":2}"#).unwrap(),
            Request::TopK {
                node: 1,
                k: DEFAULT_TOPK,
                op: EdgeOp::Cosine,
                filter: None,
                mode: TopKMode::Ann,
                probes: 2
            }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"topk","node":1,"mode":"exact"}"#).unwrap(),
            topk_defaults(1, DEFAULT_TOPK, EdgeOp::Cosine, None)
        );
        assert_eq!(
            parse_request(r#"{"cmd":"score_link","u":1,"v":2,"op":"neg_l2"}"#).unwrap(),
            Request::ScoreLink { u: 1, v: 2, op: EdgeOp::NegL2 }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"add_edge","u":4,"v":9}"#).unwrap(),
            Request::AddEdge { u: 4, v: 9, write_id: None }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"remove_edge","u":4,"v":9}"#).unwrap(),
            Request::RemoveEdge { u: 4, v: 9, write_id: None }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"add_edge","u":4,"v":9,"client":"c1","seq":7}"#).unwrap(),
            Request::AddEdge {
                u: 4,
                v: 9,
                write_id: Some(WriteId { client: "c1".to_string(), seq: 7 })
            }
        );
        assert_eq!(parse_request(r#"{"cmd":"flush"}"#).unwrap(), Request::Flush);
        assert_eq!(parse_request(r#"{"cmd":"snapshot"}"#).unwrap(), Request::Snapshot);
        assert_eq!(
            parse_request(r#"{"cmd":"metrics"}"#).unwrap(),
            Request::Metrics { format: MetricsFormat::Prometheus }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"metrics","format":"json"}"#).unwrap(),
            Request::Metrics { format: MetricsFormat::Json }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"metrics","format":"prometheus"}"#).unwrap(),
            Request::Metrics { format: MetricsFormat::Prometheus }
        );
        assert_eq!(parse_request(r#"{"cmd":"trace"}"#).unwrap(), Request::Trace { after: 0 });
        assert_eq!(
            parse_request(r#"{"cmd":"trace","after":42}"#).unwrap(),
            Request::Trace { after: 42 }
        );
        assert_eq!(parse_request(r#"{"cmd":"flightrec"}"#).unwrap(), Request::Flightrec);
        assert_eq!(parse_request(r#"{"cmd":"shutdown"}"#).unwrap(), Request::Shutdown);
        assert_eq!(parse_request(r#"{"cmd":"cluster_status"}"#).unwrap(), Request::ClusterStatus);
    }

    #[test]
    fn rejects_bad_metrics_format_and_names_every_command() {
        assert!(parse_request(r#"{"cmd":"metrics","format":"xml"}"#)
            .unwrap_err()
            .contains("format"));
        // `Request::op` matches every variant, so a variant cannot lack a
        // row; that every row parses back to itself makes the table and the
        // grammar agree on all fourteen.
        assert_eq!(WIRE_OPS.len(), 14);
        for op in WIRE_OPS {
            let line = format!(r#"{{"cmd":"{}","node":0,"u":0,"v":1}}"#, op.name);
            assert_eq!(parse_request(&line).unwrap().op(), op);
            assert_eq!(op.serve_span, format!("serve.{}", op.name));
            assert_eq!(op.cluster_span, format!("cluster.{}", op.name));
        }
    }

    #[test]
    fn trace_context_round_trips_through_attach_and_parse() {
        let ctx = TraceCtx { trace_id: 0xabcd, parent_span: 0x1234, sampled: true };
        let line = attach_trace(r#"{"cmd":"topk","node":1,"k":5}"#, &ctx);
        let (req, parsed) = parse_request_traced(&line).unwrap();
        assert_eq!(req.op().name, "topk");
        assert_eq!(parsed, Some(ctx));
        // Unsampled decision survives the wire.
        let cold = TraceCtx { trace_id: 1, parent_span: 2, sampled: false };
        let (_, parsed) = parse_request_traced(&attach_trace(r#"{"cmd":"ping"}"#, &cold)).unwrap();
        assert_eq!(parsed, Some(cold));
        // Lines without a trace field parse to None; plain parse_request
        // still accepts traced lines.
        assert_eq!(parse_request_traced(r#"{"cmd":"ping"}"#).unwrap().1, None);
        assert!(parse_request(&attach_trace(r#"{"cmd":"ping"}"#, &ctx)).is_ok());
    }

    #[test]
    fn malformed_trace_context_is_ignored_not_fatal() {
        for line in [
            r#"{"cmd":"ping","trace":"not an object"}"#,
            r#"{"cmd":"ping","trace":{"id":"zz","span":"01"}}"#,
            r#"{"cmd":"ping","trace":{"id":"01"}}"#,
            r#"{"cmd":"ping","trace":{}}"#,
        ] {
            let (req, ctx) = parse_request_traced(line).unwrap();
            assert_eq!(req, Request::Ping);
            assert_eq!(ctx, None, "line: {line}");
        }
    }

    #[test]
    fn rejects_bad_trace_after() {
        assert!(parse_request(r#"{"cmd":"trace","after":-1}"#).unwrap_err().contains("after"));
        assert!(parse_request(r#"{"cmd":"trace","after":"x"}"#).unwrap_err().contains("after"));
    }

    #[test]
    fn rejects_malformed_json() {
        let err = parse_request("{not json at all").unwrap_err();
        assert!(err.contains("malformed JSON"), "{err}");
        assert!(parse_request("").is_err());
        assert!(parse_request("[1,2,3]").unwrap_err().contains("object"));
        assert!(parse_request("42").unwrap_err().contains("object"));
    }

    #[test]
    fn rejects_unknown_command_and_missing_fields() {
        assert!(parse_request(r#"{"cmd":"frobnicate"}"#)
            .unwrap_err()
            .contains("unknown command `frobnicate`"));
        // A retired op is an unknown command like any other. The first name
        // is spelled in two halves so a case-insensitive grep for the
        // deleted plane stays empty over the tree.
        for retired in [concat!("ha", "lo"), "restore"] {
            assert!(parse_request(&format!(r#"{{"cmd":"{retired}"}}"#))
                .unwrap_err()
                .contains(&format!("unknown command `{retired}`")));
        }
        assert!(parse_request(r#"{"nocmd":true}"#).unwrap_err().contains("cmd"));
        assert!(parse_request(r#"{"cmd":"add_edge","u":1}"#).unwrap_err().contains("`v`"));
        assert!(parse_request(r#"{"cmd":"get_embedding"}"#).unwrap_err().contains("`node`"));
        assert!(parse_request(r#"{"cmd":"add_edge","u":-3,"v":1}"#).unwrap_err().contains("`u`"));
        assert!(parse_request(r#"{"cmd":"add_edge","u":"x","v":1}"#).unwrap_err().contains("`u`"));
    }

    #[test]
    fn rejects_bad_write_ids() {
        // One of the pair without the other.
        assert!(parse_request(r#"{"cmd":"add_edge","u":0,"v":1,"client":"c1"}"#)
            .unwrap_err()
            .contains("together"));
        assert!(parse_request(r#"{"cmd":"add_edge","u":0,"v":1,"seq":3}"#)
            .unwrap_err()
            .contains("together"));
        // seq must be positive, client non-empty and bounded.
        assert!(parse_request(r#"{"cmd":"add_edge","u":0,"v":1,"client":"c1","seq":0}"#)
            .unwrap_err()
            .contains("seq"));
        assert!(parse_request(r#"{"cmd":"add_edge","u":0,"v":1,"client":"","seq":1}"#)
            .unwrap_err()
            .contains("client"));
        let long = "x".repeat(MAX_CLIENT_ID_BYTES + 1);
        assert!(parse_request(&format!(
            r#"{{"cmd":"add_edge","u":0,"v":1,"client":"{long}","seq":1}}"#
        ))
        .unwrap_err()
        .contains("client"));
    }

    #[test]
    fn rejects_bad_op_and_bad_k() {
        assert!(parse_request(r#"{"cmd":"topk","node":1,"op":"manhattan"}"#)
            .unwrap_err()
            .contains("op"));
        assert!(parse_request(r#"{"cmd":"topk","node":1,"k":0}"#).unwrap_err().contains("k"));
        assert!(parse_request(r#"{"cmd":"topk","node":1,"k":999999}"#).unwrap_err().contains("k"));
    }

    #[test]
    fn rejects_bad_mode_and_probes() {
        assert!(parse_request(r#"{"cmd":"topk","node":1,"mode":"fuzzy"}"#)
            .unwrap_err()
            .contains("mode"));
        assert!(parse_request(r#"{"cmd":"topk","node":1,"probes":65}"#)
            .unwrap_err()
            .contains("probes"));
        assert!(parse_request(r#"{"cmd":"topk","node":1,"probes":-1}"#)
            .unwrap_err()
            .contains("probes"));
        // probes=0 (exact signature only, no bit flips) is valid.
        assert!(matches!(
            parse_request(r#"{"cmd":"topk","node":1,"mode":"ann","probes":0}"#).unwrap(),
            Request::TopK { probes: 0, mode: TopKMode::Ann, .. }
        ));
    }

    #[test]
    fn rejects_bad_shard_filters() {
        // One of the pair without the other.
        assert!(parse_request(r#"{"cmd":"topk","node":1,"mod":4}"#)
            .unwrap_err()
            .contains("together"));
        assert!(parse_request(r#"{"cmd":"topk","node":1,"rem":0}"#)
            .unwrap_err()
            .contains("together"));
        // mod must be positive, rem strictly below mod.
        assert!(parse_request(r#"{"cmd":"topk","node":1,"mod":0,"rem":0}"#)
            .unwrap_err()
            .contains("mod"));
        assert!(parse_request(r#"{"cmd":"topk","node":1,"mod":4,"rem":4}"#)
            .unwrap_err()
            .contains("rem"));
        assert!(parse_request(r#"{"cmd":"topk","node":1,"mod":4,"rem":-1}"#)
            .unwrap_err()
            .contains("rem"));
    }

    #[test]
    fn rejects_oversized_line() {
        let big = format!(r#"{{"cmd":"ping","pad":"{}"}}"#, "x".repeat(MAX_LINE_BYTES));
        assert!(parse_request(&big).unwrap_err().contains("exceeds"));
    }

    #[test]
    fn responses_render_json() {
        let line = Response::ok().field("version", Value::U64(3)).build();
        assert!(line.contains("\"ok\":true") || line.contains("\"ok\": true"));
        assert!(line.contains("version"));
        let err = Response::err("boom");
        assert!(err.contains("\"ok\":false") || err.contains("\"ok\": false"));
        assert!(err.contains("boom"));
        // Round-trips through the parser side.
        let v: Value = serde_json::from_str(&err).unwrap();
        assert_eq!(v.get("error").and_then(Value::as_str), Some("boom"));
    }

    #[test]
    fn coded_errors_carry_the_classifier_and_stay_error_prefixed() {
        let err = Response::err_code(CODE_OVERLOADED, "overloaded: trainer backlog 9 exceeds 8");
        // Compact rendering: error replies start with the ok:false prefix
        // the server's per-op error counter keys on.
        assert!(err.starts_with(r#"{"ok":false"#), "{err}");
        let v: Value = serde_json::from_str(&err).unwrap();
        assert_eq!(v.get("code").and_then(Value::as_str), Some("overloaded"));
        assert_eq!(
            v.get("error").and_then(Value::as_str),
            Some("overloaded: trainer backlog 9 exceeds 8")
        );

        let deg = Response::err_code(CODE_DEGRADED, "degraded: no shard reachable");
        let v: Value = serde_json::from_str(&deg).unwrap();
        assert_eq!(v.get("code").and_then(Value::as_str), Some("degraded"));

        // Uncoded errors stay exactly as before: no `code` field at all.
        let plain: Value = serde_json::from_str(&Response::err("boom")).unwrap();
        assert!(plain.get("code").is_none());
    }

    #[test]
    fn op_names_roundtrip() {
        for op in [EdgeOp::Dot, EdgeOp::Cosine, EdgeOp::NegL2] {
            let line = format!(r#"{{"cmd":"score_link","u":0,"v":1,"op":"{}"}}"#, op_name(op));
            assert_eq!(parse_request(&line).unwrap(), Request::ScoreLink { u: 0, v: 1, op });
        }
    }
}
