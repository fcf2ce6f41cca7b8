//! Loadgen-vs-server end-to-end: the client-side ledger must agree with
//! the server's own books.
//!
//! A load generator that miscounts is worse than none — its SLO verdicts
//! would be fiction. So the contract test here is double-entry: run a
//! scenario against a real in-process server, then reconcile the report's
//! per-op counts with the server's `seqge_serve_requests_total{op}`
//! counters scraped over the wire. Every scheduled op must appear exactly
//! once on both sides. A second leg drives the 2-shard cluster router and
//! checks the satellite guarantees: zero hard protocol errors, and the
//! router's merged metrics carrying the per-shard `seqge_serve_*` series
//! the loadgen traffic implies.

use seqge_backend::BackendSpec;
use seqge_cluster::{Cluster, ClusterConfig};
use seqge_core::{OsElmConfig, TrainConfig};
use seqge_graph::generators::sbm::{PlantedPartition, SbmParams};
use seqge_loadgen::{builtin, materialize, run, LoadOpts};
use seqge_sampling::UpdatePolicy;
use seqge_serve::{start_backend, Client, ServeConfig};
use std::time::Duration;

const DIM: usize = 8;
const SEED: u64 = 11;
const NODES: u32 = 180;

fn sbm_graph() -> seqge_graph::Graph {
    PlantedPartition::new(SbmParams::new(NODES as usize, 1200, 4))
        .expect("valid SBM params")
        .generate(SEED)
}

fn sbm_server() -> seqge_serve::ServerHandle {
    let graph = sbm_graph();
    let mut cfg = TrainConfig::paper_defaults(DIM);
    cfg.walk.walk_length = 12;
    cfg.walk.walks_per_node = 2;
    let ocfg = OsElmConfig { model: cfg.model, ..OsElmConfig::paper_defaults(DIM) };
    let mut backend =
        BackendSpec::float(cfg, ocfg, UpdatePolicy::every_edge(), SEED).cold(graph.num_nodes());
    backend.bootstrap(&graph);
    start_backend("127.0.0.1:0", graph, backend, ServeConfig::default()).expect("server starts")
}

/// Scrapes one counter value from a Prometheus text body, summed over
/// every matching labeled series.
fn scrape_sum(body: &str, name: &str, label: &str) -> u64 {
    body.lines()
        .filter(|l| l.starts_with(name) && l.contains(label))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum()
}

fn small_opts(target: String) -> LoadOpts {
    LoadOpts {
        target,
        connections: 2,
        seed: 7,
        scale: 0.05,
        nodes: Some(NODES),
        k: 5,
        timeout: Duration::from_secs(30),
    }
}

/// Single node: every op the report claims was sent must be on the
/// server's request counters, op for op, with zero errors anywhere.
#[test]
fn report_counts_reconcile_with_server_counters() {
    let handle = sbm_server();
    let scenario = builtin("hot_read", 0.05).unwrap();
    let opts = small_opts(handle.addr().to_string());
    let (schedules, hash) = materialize(&scenario, NODES, opts.k, opts.connections, opts.seed);
    let scheduled: usize =
        schedules.iter().map(|s| s.phases.iter().map(Vec::len).sum::<usize>()).sum();

    let report = run(&scenario, &opts).expect("run completes");
    assert_eq!(report.schedule_hash, hash, "run must replay the materialized schedule");
    assert_eq!(report.total_ops as usize, scheduled, "every scheduled op accounted exactly once");

    let steady = &report.windows[0];
    let fault = &report.windows[1];
    for w in [steady, fault] {
        assert_eq!(w.hard_errors, 0, "{} window saw hard errors", w.window);
        assert_eq!(w.transport_errors, 0, "{} window saw transport errors", w.window);
    }
    assert!(report.steady_ok_rate > 0.999);

    // Double-entry: client ledger vs server counters, per op. The server
    // books both topk modes under one wire op.
    let mut c = Client::connect(handle.addr()).expect("client connects");
    let body = c.metrics("prometheus").expect("metrics scrape");
    let count_for = |label: &str| -> u64 {
        [steady, fault]
            .iter()
            .flat_map(|w| &w.per_op)
            .filter(|o| o.op == label)
            .map(|o| o.count)
            .sum()
    };
    for wire_op in ["add_edge", "remove_edge", "get_embedding", "score_link"] {
        let client_side = count_for(wire_op);
        let server_side =
            scrape_sum(&body, "seqge_serve_requests_total", &format!("op=\"{wire_op}\""));
        assert_eq!(
            client_side, server_side,
            "{wire_op}: report says {client_side}, server counted {server_side}"
        );
    }
    let client_topk = count_for("topk_exact") + count_for("topk_ann");
    let server_topk = scrape_sum(&body, "seqge_serve_requests_total", "op=\"topk\"");
    assert_eq!(client_topk, server_topk, "topk modes must sum to the wire op");
    assert!(client_topk > 0, "hot_read must exercise topk");

    // Satellite 2: the open-connection gauge exists and has settled back
    // to this scrape's own connection.
    let open = scrape_sum(&body, "seqge_serve_open_connections", "");
    assert!(open >= 1, "gauge must count at least the scraping client, got {open}");

    // The workload itself must be clean server-side too: no error replies
    // on the workload ops (queued writes are acked, rejects happen async).
    for op in ["add_edge", "remove_edge", "get_embedding", "topk", "score_link"] {
        let errs = scrape_sum(&body, "seqge_serve_errors_total", &format!("op=\"{op}\""));
        assert_eq!(errs, 0, "server counted {errs} error replies for {op}");
    }

    handle.shutdown().expect("clean shutdown");
}

/// Same seed, two materializations, one live run: the schedule hash is
/// the determinism witness the CI smoke asserts on.
#[test]
fn schedule_hash_is_stable_across_materializations() {
    let scenario = builtin("edge_churn", 0.02).unwrap();
    let (_, h1) = materialize(&scenario, NODES, 5, 3, 99);
    let (_, h2) = materialize(&scenario, NODES, 5, 3, 99);
    assert_eq!(h1, h2);
    let (_, h3) = materialize(&scenario, NODES, 5, 3, 100);
    assert_ne!(h1, h3);
}

/// Cluster leg: drive the 2-shard router, expect zero hard errors (shed
/// and degraded are acceptable outcomes, bugs are not) and the merged
/// per-shard `seqge_serve_*` series in the router's metrics reply.
#[test]
fn cluster_router_serves_loadgen_and_merges_shard_metrics() {
    let base = std::env::temp_dir().join(format!("seqge_loadgen_e2e_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let graph = sbm_graph();
    let cfg = ClusterConfig::in_process(2, base.clone(), DIM, SEED);
    let cluster = Cluster::start(&cfg, &graph).expect("cluster boots");

    let scenario = builtin("edge_churn", 0.03).unwrap();
    let opts = small_opts(cluster.addr().to_string());
    let report = run(&scenario, &opts).expect("run completes");

    assert!(report.total_ops > 0);
    for w in &report.windows {
        assert_eq!(w.hard_errors, 0, "{} window saw hard protocol errors", w.window);
        assert_eq!(w.transport_errors, 0, "{} window saw transport errors", w.window);
    }

    // Satellite 2 through the router: the merged scrape must expose the
    // shard-side request counters for the traffic just sent.
    let mut c = Client::connect(cluster.addr()).expect("client connects to router");
    let body = c.metrics("prometheus").expect("router metrics scrape");
    let adds = scrape_sum(&body, "seqge_serve_requests_total", "op=\"add_edge\"");
    // Each write reaches exactly one owning shard, so the shard-side
    // count is at least the client-side one (retries can push it higher).
    let client_adds: u64 = report
        .windows
        .iter()
        .flat_map(|w| &w.per_op)
        .filter(|o| o.op == "add_edge")
        .map(|o| o.count)
        .sum();
    assert!(client_adds > 0, "edge_churn must add edges");
    assert!(adds >= client_adds, "router merge lost shard counters: {adds} < {client_adds}");

    cluster.shutdown().expect("clean cluster shutdown");
    let _ = std::fs::remove_dir_all(&base);
}
