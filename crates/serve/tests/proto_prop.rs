//! Adversarial protocol-framing property tests.
//!
//! The serve plane talks line-delimited JSON to whoever connects; nothing
//! guarantees the peer is our client. These tests throw arbitrary bytes,
//! truncated requests, type-confused JSON, and oversized lines at a live
//! server and assert the contract from DESIGN.md: every complete line gets
//! exactly one reply (`ok:false` with an `error` string for garbage), the
//! connection survives everything except the line-length cap, and the
//! server never panics or wedges — a valid `ping` still answers afterward.

use proptest::prelude::*;
use seqge_backend::BackendSpec;
use seqge_graph::generators::classic::erdos_renyi;
use seqge_sampling::UpdatePolicy;
use seqge_serve::protocol::MAX_LINE_BYTES;
use seqge_serve::{start_backend, ServeConfig};
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;

const DIM: usize = 4;
const SEED: u64 = 9;

/// One shared server for every generated case (cases are connection-local,
/// so isolation is per-TCP-stream, exactly like production). The handle is
/// forgotten: the server lives for the test binary's lifetime.
fn server_addr() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
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
        let handle = start_backend("127.0.0.1:0", graph, backend, ServeConfig::default())
            .expect("prop server boots");
        let addr = handle.addr();
        std::mem::forget(handle);
        addr
    })
}

fn connect() -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(server_addr()).expect("connect");
    // A reply slower than this counts as a hang — the property under test.
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (stream, reader)
}

/// Sends one raw line and returns the reply line (without newline).
fn send_raw(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &[u8]) -> String {
    stream.write_all(line).expect("write line");
    stream.write_all(b"\n").expect("write newline");
    let mut reply = String::new();
    let n = reader.read_line(&mut reply).expect("server must reply, not hang");
    assert!(n > 0, "server closed instead of replying");
    reply.trim_end().to_string()
}

/// Asserts the reply is a JSON object with `ok:false` and an error string.
fn assert_error_reply(reply: &str) -> String {
    let v: Value =
        serde_json::from_str(reply).unwrap_or_else(|e| panic!("reply is not JSON ({e}): {reply}"));
    assert_eq!(v.get("ok"), Some(&Value::Bool(false)), "garbage must be refused: {reply}");
    v.get("error").and_then(Value::as_str).expect("error string present").to_string()
}

/// Asserts the connection still works by round-tripping a ping.
fn assert_alive(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>) {
    let reply = send_raw(stream, reader, br#"{"cmd":"ping"}"#);
    let v: Value = serde_json::from_str(&reply).expect("ping reply is JSON");
    assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "ping after garbage: {reply}");
}

/// Valid-JSON-but-wrong requests: unknown commands, missing fields, type
/// confusion, nested junk. Indexed so the strategy stays a plain range.
const CONFUSED: &[&str] = &[
    r#"{"cmd":"no_such_op"}"#,
    r#"{"cmd":42}"#,
    r#"{"cmd":null}"#,
    r#"{}"#,
    r#"[]"#,
    r#""ping""#,
    r#"{"cmd":"add_edge"}"#,
    r#"{"cmd":"add_edge","u":"zero","v":1}"#,
    r#"{"cmd":"add_edge","u":-1,"v":1}"#,
    r#"{"cmd":"topk","node":0,"k":"five"}"#,
    r#"{"cmd":"topk","node":{"nested":[]},"k":1}"#,
    r#"{"cmd":"get_embedding","node":1e99}"#,
    r#"{"cmd":"score_link","u":0}"#,
    r#"{"cmd":"metrics","format":7}"#,
    r#"{"CMD":"ping"}"#,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary non-newline bytes: one error reply per line, connection
    /// survives, and a ping still answers.
    #[test]
    fn arbitrary_bytes_get_an_error_reply_and_never_wedge(
        raw in proptest::collection::vec(any::<u8>(), 1..200),
    ) {
        let line: Vec<u8> = raw.iter().map(|&b| if b == b'\n' { b' ' } else { b }).collect();
        let (mut stream, mut reader) = connect();
        let reply = send_raw(&mut stream, &mut reader, &line);
        // An all-whitespace line is "empty request line"; anything else is
        // a parse error. Either way: ok:false, connection intact.
        assert_error_reply(&reply);
        assert_alive(&mut stream, &mut reader);
    }

    /// Every proper prefix of a valid request is refused without closing
    /// the connection (a cut can never silently apply a write).
    #[test]
    fn truncated_requests_are_refused_not_applied(
        u in 0u32..12, v in 0u32..12, pct in 0usize..100,
    ) {
        let full = format!(r#"{{"cmd":"add_edge","u":{u},"v":{v}}}"#);
        let cut = pct * (full.len() - 1) / 100; // always a *proper* prefix
        let (mut stream, mut reader) = connect();
        let reply = send_raw(&mut stream, &mut reader, &full.as_bytes()[..cut]);
        assert_error_reply(&reply);
        assert_alive(&mut stream, &mut reader);
    }

    /// Well-formed JSON that is not a well-formed request: refused with an
    /// error naming the problem, never a panic or a fallthrough success.
    #[test]
    fn type_confused_json_is_refused(idx in 0usize..15) {
        let (mut stream, mut reader) = connect();
        let reply = send_raw(&mut stream, &mut reader, CONFUSED[idx].as_bytes());
        let err = assert_error_reply(&reply);
        assert!(!err.is_empty(), "error message must not be empty");
        assert_alive(&mut stream, &mut reader);
    }

    /// A line that grows past the cap gets one error reply and a close —
    /// the server must not buffer unboundedly or hang mid-line.
    #[test]
    fn oversized_lines_are_answered_then_closed(pad in 1usize..1024) {
        let (mut stream, mut reader) = connect();
        let line = vec![b'x'; MAX_LINE_BYTES + pad];
        stream.write_all(&line).expect("write oversized");
        // No newline sent: the cap must trip on the unterminated line.
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("cap reply, not a hang");
        let err = assert_error_reply(reply.trim_end());
        prop_assert!(err.contains("exceeds"), "cap error names the limit: {}", err);
        let mut rest = String::new();
        let n = reader.read_line(&mut rest).expect("read after cap reply");
        prop_assert_eq!(n, 0, "server must close after the cap reply");
    }
}
