//! Trace-propagation tests against a live server.
//!
//! The wire contract under test: a request carrying `"trace":{...}` must
//! produce server spans whose `trace`/`parent` are exactly the attached
//! context — never another connection's — and an unsampled context must
//! produce no spans at all. The write plane additionally closes a
//! `write.visible` span at publish, and the freshness plane stays readable
//! (`snapshot_staleness_ms` in `stats`, `seqge_freshness_*` in metrics).
//!
//! The span ring is process-global, so every assertion filters by the
//! trace ids this test minted; concurrent tests in this binary only ever
//! add unrelated spans.

use proptest::prelude::*;
use seqge_backend::BackendSpec;
use seqge_graph::generators::classic::erdos_renyi;
use seqge_obs::trace::{fmt_id, next_id};
use seqge_obs::TraceCtx;
use seqge_sampling::UpdatePolicy;
use seqge_serve::protocol::attach_trace;
use seqge_serve::{start_backend, ServeConfig};
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;

const DIM: usize = 4;
const SEED: u64 = 9;

/// One shared server for every case; tracing forced on, sampling left to
/// the per-request context (explicit wire contexts bypass 1-in-N).
fn server_addr() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        seqge_obs::set_timing_enabled(true);
        let graph = erdos_renyi(12, 0.3, 42);
        let mut cfg = seqge_core::TrainConfig::paper_defaults(DIM);
        cfg.walk.walk_length = 8;
        cfg.walk.walks_per_node = 1;
        let ocfg = seqge_core::OsElmConfig {
            model: cfg.model,
            ..seqge_core::OsElmConfig::paper_defaults(DIM)
        };
        let mut backend =
            BackendSpec::float(cfg, ocfg, UpdatePolicy::every_edge(), SEED).cold(graph.num_nodes());
        backend.bootstrap(&graph);
        // A worker serves one connection at a time, and the three tests
        // here run concurrently holding 4 + 2 + 1 connections at their
        // peaks; with fewer workers than that, each test's last connect
        // can queue behind the others' idle ones until the read timeout.
        let config = ServeConfig { workers: 8, ..ServeConfig::default() };
        let handle =
            start_backend("127.0.0.1:0", graph, backend, config).expect("trace server boots");
        let addr = handle.addr();
        std::mem::forget(handle);
        addr
    })
}

fn connect() -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(server_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (stream, reader)
}

fn send(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Value {
    stream.write_all(line.as_bytes()).expect("write line");
    stream.write_all(b"\n").expect("write newline");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("server replies");
    let v: Value = serde_json::from_str(reply.trim_end())
        .unwrap_or_else(|e| panic!("reply is not JSON ({e}): {reply}"));
    assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "request must succeed: {reply}");
    v
}

/// Fetches the whole span ring and keeps only spans whose `trace` is one
/// of `ours` (hex strings), returned as `(trace, parent, name)` triples.
fn our_spans(ours: &[String]) -> Vec<(String, String, String)> {
    let (mut stream, mut reader) = connect();
    let v = send(&mut stream, &mut reader, r#"{"cmd":"trace","after":0}"#);
    let spans = v.get("spans").and_then(Value::as_array).expect("spans array");
    spans
        .iter()
        .filter_map(|s| {
            let trace = s.get("trace")?.as_str()?.to_string();
            if !ours.contains(&trace) {
                return None;
            }
            let parent = s.get("parent").and_then(Value::as_str).unwrap_or("").to_string();
            let name = s.get("name")?.as_str()?.to_string();
            Some((trace, parent, name))
        })
        .collect()
}

/// The read-plane ops a generated schedule can pick from.
const OPS: &[&str] = &[
    r#"{"cmd":"ping"}"#,
    r#"{"cmd":"get_embedding","node":3}"#,
    r#"{"cmd":"topk","node":1,"k":3,"op":"dot"}"#,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary interleavings of sampled/unsampled traced requests across
    /// three connections: every recorded span parents to exactly the
    /// context its own request carried, and unsampled contexts leave no
    /// spans. Trace ids are minted fresh per request, so a parent from one
    /// connection showing up under another connection's trace id would be
    /// a cross-connection context leak.
    #[test]
    fn interleaved_traced_requests_never_mix_contexts(
        schedule in proptest::collection::vec((0usize..3, any::<bool>(), 0usize..3), 1..20),
    ) {
        let mut conns: Vec<_> = (0..3).map(|_| connect()).collect();
        // (trace hex, parent hex, sampled) per request sent.
        let mut sent: Vec<(String, String, bool)> = Vec::new();
        for &(conn, sampled, op) in &schedule {
            let ctx = TraceCtx { trace_id: next_id(), parent_span: next_id(), sampled };
            let line = attach_trace(OPS[op], &ctx);
            let (stream, reader) = &mut conns[conn];
            send(stream, reader, &line);
            sent.push((fmt_id(ctx.trace_id), fmt_id(ctx.parent_span), sampled));
        }

        let ours: Vec<String> = sent.iter().map(|(t, _, _)| t.clone()).collect();
        let spans = our_spans(&ours);
        for (trace, parent, sampled) in &sent {
            let mine: Vec<_> = spans.iter().filter(|(t, _, _)| t == trace).collect();
            if *sampled {
                prop_assert!(
                    !mine.is_empty(),
                    "sampled request {trace} left no span in the ring"
                );
                for (_, got_parent, name) in &mine {
                    prop_assert_eq!(
                        got_parent, parent,
                        "span {} of trace {} parents to a foreign context", name, trace
                    );
                }
            } else {
                prop_assert!(
                    mine.is_empty(),
                    "unsampled request {trace} must leave no spans, got {mine:?}"
                );
            }
        }
    }
}

/// A traced write closes a `write.visible` span at publish carrying the
/// writer's trace id, and the always-on freshness plane shows up in both
/// `stats` and the Prometheus export.
#[test]
fn traced_write_closes_visibility_span_and_freshness_is_readable() {
    let (mut stream, mut reader) = connect();
    let ctx = TraceCtx { trace_id: next_id(), parent_span: next_id(), sampled: true };
    let line = attach_trace(r#"{"cmd":"add_edge","u":2,"v":9}"#, &ctx);
    send(&mut stream, &mut reader, &line);
    // The flush barrier returns only after the write's snapshot published,
    // which is when close_freshness records the span.
    send(&mut stream, &mut reader, r#"{"cmd":"flush"}"#);

    let trace = fmt_id(ctx.trace_id);
    let spans = our_spans(std::slice::from_ref(&trace));
    assert!(
        spans.iter().any(|(_, _, name)| name == "write.visible"),
        "publish must close a write.visible span for trace {trace}, got {spans:?}"
    );
    assert!(
        spans.iter().any(|(_, _, name)| name == "serve.add_edge"),
        "the write op itself must record a span, got {spans:?}"
    );

    let stats = send(&mut stream, &mut reader, r#"{"cmd":"stats"}"#);
    assert!(
        stats.get("snapshot_staleness_ms").and_then(Value::as_u64).is_some(),
        "stats must always report snapshot_staleness_ms: {stats:?}"
    );

    let metrics = send(&mut stream, &mut reader, r#"{"cmd":"metrics","format":"prometheus"}"#);
    let body = metrics.get("body").and_then(Value::as_str).expect("prometheus body");
    assert!(body.contains("seqge_freshness_events_total"), "freshness counter missing from export");
    assert!(body.contains("seqge_freshness_ns"), "freshness histogram missing from export");
}

/// A malformed trace object must never fail the request — it is treated
/// as untraced (no span with a parseable foreign id, and the op succeeds).
#[test]
fn malformed_trace_context_is_ignored_not_fatal() {
    let (mut stream, mut reader) = connect();
    for line in [
        r#"{"cmd":"ping","trace":{"id":"xyz","span":"0"}}"#,
        r#"{"cmd":"ping","trace":{"id":42}}"#,
        r#"{"cmd":"ping","trace":"not-an-object"}"#,
        r#"{"cmd":"ping","trace":null}"#,
    ] {
        send(&mut stream, &mut reader, line);
    }
}
