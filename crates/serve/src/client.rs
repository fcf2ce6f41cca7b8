//! A small scriptable client for the serve protocol.
//!
//! One request per call, blocking, line-delimited — exactly what the smoke
//! script and the end-to-end tests need, and a reference implementation of
//! the wire format for other languages.
//!
//! The client is failure-aware (see [`ClientConfig`]): every call has a
//! read deadline, transport errors and `overloaded` shedding are retried a
//! bounded number of times with jittered exponential backoff (reconnecting
//! when the transport died), and write ops carry a
//! [`crate::protocol::WriteId`] — the *same* sequence number is resent on
//! every retry of one logical write, so a retry whose original ack was
//! lost dedups server-side instead of double-applying.

use seqge_eval::EdgeOp;
use seqge_graph::NodeId;
use seqge_obs::{Counter, Registry};
use serde_json::Value;
use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::protocol::{op_name, CODE_OVERLOADED};

/// Process-wide counter for generated client ids.
static CLIENT_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Client resilience knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Per-call read deadline (a server stalled longer counts as a
    /// transport failure and is retried).
    pub timeout: Duration,
    /// Extra attempts after the first failure (0 = fail fast, the PR 2
    /// behavior).
    pub retries: u32,
    /// Base backoff; attempt `n` sleeps `base * 2^n` plus deterministic
    /// jitter, capped at one second.
    pub backoff: Duration,
    /// Dedup identity sent with writes. Defaults to a process-unique id;
    /// set explicitly when several processes must share one write stream.
    pub client_id: String,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            timeout: Duration::from_secs(300),
            retries: 0,
            backoff: Duration::from_millis(20),
            client_id: format!(
                "c{}-{}",
                std::process::id(),
                CLIENT_COUNTER.fetch_add(1, Ordering::Relaxed)
            ),
        }
    }
}

/// A connected protocol client.
pub struct Client {
    addr: SocketAddr,
    cfg: ClientConfig,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// Next write sequence number (strictly increasing per client id).
    next_seq: u64,
    /// Deterministic jitter state (seeded from the client id).
    jitter: u64,
    retries_total: Arc<Counter>,
    reconnects_total: Arc<Counter>,
    gaveup_total: Arc<Counter>,
}

fn bad_data(msg: impl std::fmt::Display) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, msg.to_string())
}

/// Whether a transport failure is worth a retry (after reconnecting).
fn transport_retry(e: &io::Error) -> RetryKind {
    match e.kind() {
        ErrorKind::TimedOut
        | ErrorKind::WouldBlock
        | ErrorKind::UnexpectedEof
        | ErrorKind::ConnectionReset
        | ErrorKind::ConnectionAborted
        | ErrorKind::ConnectionRefused
        | ErrorKind::BrokenPipe => RetryKind::Reconnect,
        _ => RetryKind::No,
    }
}

/// What [`Client::call`] does about a failed attempt: transport failures
/// reconnect first, a reply shed with [`CODE_OVERLOADED`] is resent on the
/// same connection after backoff, anything else is final.
#[derive(PartialEq)]
enum RetryKind {
    No,
    Backoff,
    Reconnect,
}

fn open_stream(
    addr: SocketAddr,
    cfg: &ClientConfig,
) -> io::Result<(TcpStream, BufReader<TcpStream>)> {
    let writer = TcpStream::connect(addr)?;
    writer.set_nodelay(true).ok();
    writer.set_read_timeout(Some(cfg.timeout))?;
    writer.set_write_timeout(Some(cfg.timeout))?;
    let reader = BufReader::new(writer.try_clone()?);
    Ok((writer, reader))
}

impl Client {
    /// Connects with default (fail-fast) configuration.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit timeout/retry configuration.
    pub fn connect_with<A: ToSocketAddrs>(addr: A, cfg: ClientConfig) -> io::Result<Client> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(ErrorKind::InvalidInput, "address resolved to nothing")
        })?;
        let (writer, reader) = open_stream(addr, &cfg)?;
        let global = Registry::global();
        let jitter = cfg
            .client_id
            .bytes()
            .fold(0x9E37_79B9_7F4A_7C15u64, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01B3));
        Ok(Client {
            addr,
            writer,
            reader,
            next_seq: 1,
            jitter: jitter | 1,
            retries_total: global.counter("seqge_serve_client_retries_total"),
            reconnects_total: global.counter("seqge_serve_client_reconnects_total"),
            gaveup_total: global.counter("seqge_serve_client_gaveup_total"),
            cfg,
        })
    }

    /// The configured dedup identity.
    pub fn client_id(&self) -> &str {
        &self.cfg.client_id
    }

    fn reconnect(&mut self) -> io::Result<()> {
        let (writer, reader) = open_stream(self.addr, &self.cfg)?;
        self.writer = writer;
        self.reader = reader;
        self.reconnects_total.inc();
        Ok(())
    }

    fn backoff(&mut self, attempt: u32) {
        // xorshift64* jitter — deterministic per client id, so chaos runs
        // with a fixed id replay the same pacing.
        self.jitter ^= self.jitter << 13;
        self.jitter ^= self.jitter >> 7;
        self.jitter ^= self.jitter << 17;
        let base = self.cfg.backoff.saturating_mul(1u32 << attempt.min(8));
        let capped = base.min(Duration::from_secs(1));
        let jitter_ns = self.jitter % (capped.as_nanos().max(1) as u64 / 2 + 1);
        std::thread::sleep(capped + Duration::from_nanos(jitter_ns));
    }

    /// Sends one raw request line, returns the raw response line. Single
    /// attempt — retry policy lives in [`Client::call`].
    pub fn call_raw(&mut self, line: &str) -> io::Result<String> {
        self.send_line(line)?;
        self.recv_line()
    }

    /// [`Client::call_raw`] with a trace context spliced into the request
    /// line, so the server's span parents to the caller's.
    pub fn call_traced(&mut self, line: &str, ctx: &seqge_obs::TraceCtx) -> io::Result<String> {
        self.call_raw(&crate::protocol::attach_trace(line, ctx))
    }

    /// Pipelining half 1: writes one request line without waiting for the
    /// response. The cluster router fans a query out by sending to every
    /// shard first, then collecting responses — wall clock is the slowest
    /// shard, not the sum.
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    /// Pipelining half 2: reads one response line (blocking up to the
    /// configured timeout, see [`Client::set_read_timeout`]).
    pub fn recv_line(&mut self) -> io::Result<String> {
        let mut resp = String::new();
        let n = self.reader.read_line(&mut resp)?;
        if n == 0 {
            return Err(io::Error::new(ErrorKind::UnexpectedEof, "server closed connection"));
        }
        Ok(resp.trim_end().to_string())
    }

    /// Overrides the socket read timeout for subsequent receives. The
    /// router shrinks this to each shard's *remaining* deadline while
    /// gathering a fan-out, so one slow shard cannot hold the whole reply
    /// past the budget.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.writer.set_read_timeout(timeout)
    }

    fn call_once(&mut self, line: &str) -> Result<Value, (io::Error, RetryKind)> {
        let resp = self.call_raw(line).map_err(|e| {
            let kind = transport_retry(&e);
            (e, kind)
        })?;
        let fatal = |msg: String| (bad_data(msg), RetryKind::No);
        let v: Value =
            serde_json::from_str(&resp).map_err(|e| fatal(format!("bad response: {e}")))?;
        match v.get("ok") {
            Some(Value::Bool(true)) => Ok(v),
            Some(Value::Bool(false)) => {
                let msg = v.get("error").and_then(Value::as_str).unwrap_or("unknown server error");
                // The machine-readable `code` is authoritative: it decides
                // the retry, and leads the error message unless the text
                // already does.
                let code = v.get("code").and_then(Value::as_str);
                let shed = code == Some(CODE_OVERLOADED);
                let msg = match code {
                    Some(code) if !msg.starts_with(code) => format!("{code}: {msg}"),
                    _ => msg.to_string(),
                };
                Err((bad_data(msg), if shed { RetryKind::Backoff } else { RetryKind::No }))
            }
            _ => Err(fatal("response missing `ok` field".to_string())),
        }
    }

    /// Sends one request line and parses the response, mapping
    /// `{"ok": false}` to an `InvalidData` error carrying the message.
    /// Transport failures and `overloaded` shedding are retried up to
    /// `cfg.retries` times with backoff (reconnecting as needed); the line
    /// is resent verbatim, so writes must already carry their
    /// [`crate::protocol::WriteId`].
    pub fn call(&mut self, line: &str) -> io::Result<Value> {
        let mut attempt = 0u32;
        loop {
            match self.call_once(line) {
                Ok(v) => return Ok(v),
                Err((e, kind)) => {
                    if kind == RetryKind::No || attempt >= self.cfg.retries {
                        if kind != RetryKind::No {
                            self.gaveup_total.inc();
                        }
                        return Err(e);
                    }
                    self.retries_total.inc();
                    self.backoff(attempt);
                    if kind == RetryKind::Reconnect {
                        // Best-effort: a refused reconnect burns this
                        // attempt and backs off again.
                        let _ = self.reconnect();
                    }
                    attempt += 1;
                }
            }
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> io::Result<()> {
        self.call(r#"{"cmd":"ping"}"#).map(|_| ())
    }

    /// Server telemetry as the raw response object.
    pub fn stats(&mut self) -> io::Result<Value> {
        self.call(r#"{"cmd":"stats"}"#)
    }

    /// The merged metrics registries; `format` is `"prometheus"` or
    /// `"json"`. Returns the unescaped body (Prometheus text exposition or
    /// one JSON document).
    pub fn metrics(&mut self, format: &str) -> io::Result<String> {
        let v = self.call(&format!(r#"{{"cmd":"metrics","format":"{format}"}}"#))?;
        v.get("body")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| bad_data("metrics: no body"))
    }

    fn write_edge(&mut self, cmd: &str, u: NodeId, v: NodeId) -> io::Result<Value> {
        // The sequence number is fixed *before* the retry loop: every
        // resend of this logical write carries the same id.
        let seq = self.next_seq;
        self.next_seq += 1;
        let line = format!(
            r#"{{"cmd":"{cmd}","u":{u},"v":{v},"client":"{}","seq":{seq}}}"#,
            self.cfg.client_id
        );
        self.call(&line)
    }

    /// Queues an edge insertion (retry-safe: dedups server-side).
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> io::Result<()> {
        self.write_edge("add_edge", u, v).map(|_| ())
    }

    /// Queues an edge retraction (retry-safe: dedups server-side).
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> io::Result<()> {
        self.write_edge("remove_edge", u, v).map(|_| ())
    }

    /// Barrier: returns the snapshot version that includes every event
    /// queued before this call.
    pub fn flush(&mut self) -> io::Result<u64> {
        let v = self.call(r#"{"cmd":"flush"}"#)?;
        v.get("version").and_then(Value::as_u64).ok_or_else(|| bad_data("flush: no version"))
    }

    /// One embedding row.
    pub fn get_embedding(&mut self, node: NodeId) -> io::Result<Vec<f32>> {
        let v = self.call(&format!(r#"{{"cmd":"get_embedding","node":{node}}}"#))?;
        let arr = v
            .get("embedding")
            .and_then(Value::as_array)
            .ok_or_else(|| bad_data("get_embedding: no embedding array"))?;
        arr.iter()
            .map(|x| x.as_f64().map(|f| f as f32).ok_or_else(|| bad_data("non-numeric element")))
            .collect()
    }

    /// Nearest neighbors, best first (exact scan).
    pub fn topk(&mut self, node: NodeId, k: usize, op: EdgeOp) -> io::Result<Vec<(NodeId, f64)>> {
        let line = format!(r#"{{"cmd":"topk","node":{node},"k":{k},"op":"{}"}}"#, op_name(op));
        self.parse_topk(&line)
    }

    /// Nearest neighbors via the ANN index: the `128·(probes + 1)` vertices
    /// with the nearest hyperplane codes are re-ranked exactly.
    /// The server falls back to the exact scan when no index is published.
    pub fn topk_ann(
        &mut self,
        node: NodeId,
        k: usize,
        op: EdgeOp,
        probes: usize,
    ) -> io::Result<Vec<(NodeId, f64)>> {
        let line = format!(
            r#"{{"cmd":"topk","node":{node},"k":{k},"op":"{}","mode":"ann","probes":{probes}}}"#,
            op_name(op)
        );
        self.parse_topk(&line)
    }

    fn parse_topk(&mut self, line: &str) -> io::Result<Vec<(NodeId, f64)>> {
        let v = self.call(line)?;
        let arr = v
            .get("results")
            .and_then(Value::as_array)
            .ok_or_else(|| bad_data("topk: no results"))?;
        arr.iter()
            .map(|item| {
                let node = item
                    .get("node")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| bad_data("topk: bad node"))?;
                let score = item
                    .get("score")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| bad_data("topk: bad score"))?;
                Ok((node as NodeId, score))
            })
            .collect()
    }

    /// Link score for a candidate edge.
    pub fn score_link(&mut self, u: NodeId, v: NodeId, op: EdgeOp) -> io::Result<f64> {
        let line = format!(r#"{{"cmd":"score_link","u":{u},"v":{v},"op":"{}"}}"#, op_name(op));
        let resp = self.call(&line)?;
        resp.get("score").and_then(Value::as_f64).ok_or_else(|| bad_data("score_link: no score"))
    }

    /// Commits a snapshot generation server-side; returns the model path.
    pub fn snapshot(&mut self) -> io::Result<String> {
        let v = self.call(r#"{"cmd":"snapshot"}"#)?;
        v.get("model")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| bad_data("snapshot: no model path"))
    }

    /// Asks the server to shut down gracefully.
    pub fn shutdown_server(&mut self) -> io::Result<()> {
        self.call(r#"{"cmd":"shutdown"}"#).map(|_| ())
    }
}
