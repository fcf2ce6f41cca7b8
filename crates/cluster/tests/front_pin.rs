//! Pins the wire both line-protocol servers speak: an ephemeral node and a
//! 2-shard in-process cluster's router are sent the same fixed script, and
//! every reply is hashed after the keys that depend on timing or on paths
//! are deleted at any depth. The series names each `metrics` op lists are
//! pinned beside the hashes.
//!
//! The script covers every op with a deterministic answer (`ping`,
//! `stats`, `get_embedding`, exact and ANN `topk`, `score_link` under all
//! three operators, a write with a `WriteId` and its retry, a removal,
//! `flush` after every write, `snapshot`), the router's `cluster_status`,
//! and the error paths: an empty line, malformed JSON, an unknown `cmd`, a
//! type-confused field, and a client-supplied `mod`/`rem` filter.

use seqge_backend::BackendKind;
use seqge_cluster::{Cluster, ClusterConfig};
use seqge_graph::generators::classic::erdos_renyi;
use seqge_graph::Graph;
use seqge_serve::{shard_spec, start_backend, Client, ServeConfig};
use serde_json::Value;
use std::collections::BTreeSet;
use std::net::SocketAddr;

const DIM: usize = 8;
const SEED: u64 = 11;

const SCRIPT: &[&str] = &[
    r#"{"cmd":"ping"}"#,
    r#"{"cmd":"stats"}"#,
    r#"{"cmd":"get_embedding","node":3}"#,
    r#"{"cmd":"topk","node":1,"k":5}"#,
    r#"{"cmd":"topk","node":1,"k":5,"mode":"ann","probes":4}"#,
    r#"{"cmd":"score_link","u":1,"v":2,"op":"dot"}"#,
    r#"{"cmd":"score_link","u":1,"v":2,"op":"cosine"}"#,
    r#"{"cmd":"score_link","u":1,"v":2,"op":"neg_l2"}"#,
    r#"{"cmd":"add_edge","u":0,"v":9,"client":"pin","seq":1}"#,
    r#"{"cmd":"flush"}"#,
    r#"{"cmd":"add_edge","u":0,"v":9,"client":"pin","seq":1}"#,
    r#"{"cmd":"flush"}"#,
    r#"{"cmd":"remove_edge","u":0,"v":9,"client":"pin","seq":2}"#,
    r#"{"cmd":"flush"}"#,
    r#"{"cmd":"add_edge","u":3,"v":17,"client":"pin","seq":3}"#,
    r#"{"cmd":"flush"}"#,
    r#"{"cmd":"get_embedding","node":0}"#,
    r#"{"cmd":"topk","node":3,"k":4,"op":"dot"}"#,
    r#"{"cmd":"snapshot"}"#,
    r#"{"cmd":"stats"}"#,
    r#"{"cmd":"cluster_status"}"#,
    "",
    r#"{"cmd":"get_embedding""#,
    r#"{"cmd":"frobnicate"}"#,
    r#"{"cmd":"get_embedding","node":"three"}"#,
    r#"{"cmd":"topk","node":1,"k":3,"mod":2,"rem":0}"#,
    r#"{"cmd":"ping"}"#,
];

/// Keys whose values depend on timing or on paths.
const MASKED: &[&str] = &[
    "uptime_ms",
    "snapshot_staleness_ms",
    "pending",
    "pid",
    "next",
    "spans",
    "body",
    "router",
    "addr",
    "epoch",
    "model",
    "graph",
];

/// FNV-1a 64 of each masked node reply, one per [`SCRIPT`] line.
const NODE_REPLIES: [u64; 27] = [
    0xfb3e8683b9dfe8f5,
    0x215a5e5ce2f335a5,
    0x184d95bb66477830,
    0xf5e5e32023b6e813,
    0x63ff7968157467aa,
    0x8aeb06c7fb9d6c16,
    0x5c6676f68027647f,
    0xa4a7b7b440bfea85,
    0x3b67458468981f04,
    0xd227fd24ec9fe0e1,
    0x372f71fb9d166a2f,
    0xd22bf924eca3c2ec,
    0x3b67458468981f04,
    0xd231fd24eca83566,
    0x3b67458468981f04,
    0xd238f924ecae4d48,
    0x6fc894b5f77a11e3,
    0x9e746187a06af589,
    0x61bd2f4f9c8e6c38,
    0xa65b4e4cd49078b1,
    0x2f5165b12633f1f4,
    0xf0fd841b4e8d6294,
    0x2d624342a9631ddc,
    0x8e21b5a79debf372,
    0x576296b5c8025b5d,
    0xe8d53c8a7fda3283,
    0xfb3e8683b9dfe8f5,
];

/// The same for the router.
const ROUTER_REPLIES: [u64; 27] = [
    0xecd7c9f5ac26748a,
    0x545bf0ddc252481a,
    0x9958f9178d1be5a1,
    0x2e8a6af4ad2fd583,
    0x2e8a6af4ad2fd583,
    0xb88d87d9eaab8f8c,
    0xe266796803e8408f,
    0xf021abdd38708bbc,
    0x075742faacc90ef9,
    0x6b5a0f089c0ff875,
    0xce77eb9f393dd5e2,
    0xe5dc751c84f00b60,
    0x075742faacc90ef9,
    0xaa7483fa1edcfb4f,
    0xff2119faa842d932,
    0xe2709d2bd82c6601,
    0x632cd0a7eb7434f0,
    0xf15d39369b5965ed,
    0x82d09a473312a319,
    0x669509ad1b94cd11,
    0x8147c8f53ce29a4d,
    0xf0fd841b4e8d6294,
    0x2d624342a9631ddc,
    0x8e21b5a79debf372,
    0x576296b5c8025b5d,
    0x16c1d8498fbb2cbd,
    0xecd7c9f5ac26748a,
];

/// Sorted series names of the node's JSON `metrics` scrape.
const NODE_SERIES: &[&str] = &[
    "seqge_ann_candidates",
    "seqge_ann_dirty_ppm",
    "seqge_ann_fallbacks_total",
    "seqge_ann_indexed_points",
    "seqge_ann_queries_total",
    "seqge_ann_rehashed_total",
    "seqge_ann_sync_ns",
    "seqge_backend_cycles_total",
    "seqge_backend_deviation",
    "seqge_backend_measured_ingest_eps",
    "seqge_backend_predicted_ingest_eps",
    "seqge_backend_saturations_total",
    "seqge_core_bootstrap_ns",
    "seqge_core_contexts_total",
    "seqge_core_ingest_ns",
    "seqge_core_walks_trained_total",
    "seqge_freshness_events_total",
    "seqge_freshness_ns",
    "seqge_pipeline_queue_depth",
    "seqge_pipeline_walk_gen_ns",
    "seqge_pipeline_walks_total",
    "seqge_serve_client_gaveup_total",
    "seqge_serve_client_reconnects_total",
    "seqge_serve_client_retries_total",
    "seqge_serve_conn_shed_total",
    "seqge_serve_deduped_total",
    "seqge_serve_errors_total",
    "seqge_serve_events_applied_total",
    "seqge_serve_events_enqueued_total",
    "seqge_serve_events_rejected_total",
    "seqge_serve_fault_injected_total",
    "seqge_serve_ingest_batch_size",
    "seqge_serve_open_connections",
    "seqge_serve_overloaded_total",
    "seqge_serve_protocol_errors_total",
    "seqge_serve_refreshes_total",
    "seqge_serve_request_latency_ns",
    "seqge_serve_requests_total",
    "seqge_serve_snapshot_write_ns",
    "seqge_serve_snapshots_written_total",
    "seqge_serve_trainer_backlog",
    "seqge_serve_wal_append_errors_total",
    "seqge_serve_wal_append_ns",
    "seqge_serve_wal_appends_total",
    "seqge_serve_wal_fsyncs_total",
    "seqge_serve_wal_replayed_total",
    "seqge_serve_wal_rotations_total",
    "seqge_serve_walks_trained_total",
    "seqge_snapshot_staleness_ms",
];

/// The same for the router (its own, the shards' merged `seqge_serve_*`
/// counters and gauges, and the process-global registry).
const ROUTER_SERIES: &[&str] = &[
    "seqge_cluster_conn_shed_total",
    "seqge_cluster_degraded_total",
    "seqge_cluster_errors_total",
    "seqge_cluster_open_connections",
    "seqge_cluster_protocol_errors_total",
    "seqge_cluster_request_latency_ns",
    "seqge_cluster_requests_total",
    "seqge_cluster_shard_errors_total",
    "seqge_core_bootstrap_ns",
    "seqge_core_contexts_total",
    "seqge_core_ingest_ns",
    "seqge_core_walks_trained_total",
    "seqge_pipeline_queue_depth",
    "seqge_pipeline_walk_gen_ns",
    "seqge_pipeline_walks_total",
    "seqge_serve_client_gaveup_total",
    "seqge_serve_client_reconnects_total",
    "seqge_serve_client_retries_total",
    "seqge_serve_conn_shed_total",
    "seqge_serve_deduped_total",
    "seqge_serve_errors_total",
    "seqge_serve_events_applied_total",
    "seqge_serve_events_enqueued_total",
    "seqge_serve_events_rejected_total",
    "seqge_serve_fault_injected_total",
    "seqge_serve_open_connections",
    "seqge_serve_overloaded_total",
    "seqge_serve_protocol_errors_total",
    "seqge_serve_refreshes_total",
    "seqge_serve_requests_total",
    "seqge_serve_snapshots_written_total",
    "seqge_serve_trainer_backlog",
    "seqge_serve_wal_append_errors_total",
    "seqge_serve_wal_appends_total",
    "seqge_serve_wal_fsyncs_total",
    "seqge_serve_wal_replayed_total",
    "seqge_serve_wal_rotations_total",
    "seqge_serve_walks_trained_total",
];

fn mask(v: &mut Value) {
    match v {
        Value::Object(fields) => {
            fields.retain(|(k, _)| !MASKED.contains(&k.as_str()));
            fields.iter_mut().for_each(|(_, x)| mask(x));
        }
        Value::Array(items) => items.iter_mut().for_each(mask),
        _ => {}
    }
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// The masked replies to [`SCRIPT`], their hashes, and the sorted series
/// names of a JSON `metrics` scrape.
fn drive(addr: SocketAddr) -> (Vec<String>, Vec<u64>, Vec<String>) {
    let mut c = Client::connect(addr).expect("client connects");
    let mut replies = Vec::new();
    for line in SCRIPT {
        let raw = c.call_raw(line).expect("every line is answered");
        let mut v: Value = serde_json::from_str(&raw).expect("reply is JSON");
        mask(&mut v);
        replies.push(serde_json::to_string(&v).expect("reply serializes"));
    }
    let hashes = replies.iter().map(|r| fnv(r.as_bytes())).collect();
    let doc: Value = serde_json::from_str(&c.metrics("json").expect("metrics")).expect("JSON body");
    let mut names = BTreeSet::new();
    for section in ["counters", "gauges", "histograms"] {
        for item in doc.get(section).and_then(Value::as_array).expect("section present") {
            names.insert(item.get("name").and_then(Value::as_str).expect("name").to_string());
        }
    }
    (replies, hashes, names.into_iter().collect())
}

/// What moved against the literals, as a readable report (empty when
/// nothing did).
fn moved(
    who: &str,
    (replies, hashes, names): &(Vec<String>, Vec<u64>, Vec<String>),
    want: &[u64],
    series: &[&str],
) -> String {
    let mut out = String::new();
    for i in (0..SCRIPT.len()).filter(|&i| hashes[i] != want[i]) {
        out += &format!("{who} [{i}] {:?} -> {}\n", SCRIPT[i], replies[i]);
    }
    if !out.is_empty() {
        let literal: Vec<String> = hashes.iter().map(|h| format!("{h:#018x}")).collect();
        out += &format!("{who} hashes: [{}]\n", literal.join(", "));
    }
    if names != series {
        out += &format!("{who} series: {names:?}\n");
    }
    out
}

fn graph() -> Graph {
    erdos_renyi(24, 0.25, 5)
}

#[test]
fn node_and_router_replies_are_pinned() {
    let spec = shard_spec(BackendKind::Float, DIM, SEED);
    let g = graph();
    let mut backend = spec.cold(g.num_nodes());
    backend.bootstrap(&g);
    let node =
        start_backend("127.0.0.1:0", g, backend, ServeConfig::default()).expect("node boots");
    let from_node = drive(node.addr());
    node.shutdown().expect("node stops");

    let base = std::env::temp_dir().join(format!("seqge_front_pin_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let cluster = Cluster::start(&ClusterConfig::in_process(2, base.clone(), DIM, SEED), &graph())
        .expect("cluster boots");
    let from_router = drive(cluster.addr());
    cluster.shutdown().expect("cluster stops");
    let _ = std::fs::remove_dir_all(&base);

    let report = moved("node", &from_node, &NODE_REPLIES, NODE_SERIES)
        + &moved("router", &from_router, &ROUTER_REPLIES, ROUTER_SERIES);
    assert!(report.is_empty(), "the wire moved:\n{report}");
}
