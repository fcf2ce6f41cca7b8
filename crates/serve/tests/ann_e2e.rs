//! End-to-end tests for the ANN read path: a real server over a seeded
//! planted-partition graph, ANN queries over TCP, recall against the exact
//! scan, and the `seqge_ann_*` metric series that make the index's
//! incremental behavior observable.

use seqge_backend::BackendSpec;
use seqge_core::{OsElmConfig, TrainConfig};
use seqge_eval::EdgeOp;
use seqge_graph::generators::sbm::{PlantedPartition, SbmParams};
use seqge_graph::Graph;
use seqge_sampling::UpdatePolicy;
use seqge_serve::{start_backend, Client, ServeConfig, DEFAULT_PROBES};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DIM: usize = 8;
const SEED: u64 = 11;
const K: usize = 10;

fn train_cfg() -> TrainConfig {
    let mut cfg = TrainConfig::paper_defaults(DIM);
    cfg.walk.walk_length = 12;
    cfg.walk.walks_per_node = 2;
    cfg
}

fn sbm_graph() -> Graph {
    PlantedPartition::new(SbmParams::new(180, 1200, 4)).expect("valid SBM params").generate(SEED)
}

/// Boots a server over a seeded SBM: clustered geometry is exactly what the
/// LSH index is supposed to exploit, so recall here is the regression floor,
/// not a lucky draw.
fn sbm_server() -> seqge_serve::ServerHandle {
    let graph = sbm_graph();
    let cfg = train_cfg();
    let ocfg = OsElmConfig { model: cfg.model, ..OsElmConfig::paper_defaults(DIM) };
    let mut backend =
        BackendSpec::float(cfg, ocfg, UpdatePolicy::every_edge(), SEED).cold(graph.num_nodes());
    backend.bootstrap(&graph);
    start_backend("127.0.0.1:0", graph, backend, ServeConfig::default()).expect("server starts")
}

/// `mode:"ann"` at the default probe count answers over TCP with recall@10
/// ≥ 0.9 against the exact scan on the same snapshot, and the query-side
/// `seqge_ann_*` series show up in the metrics scrape with the counts the
/// traffic implies.
#[test]
fn ann_mode_meets_recall_floor_and_exports_metrics() {
    let handle = sbm_server();
    let mut c = Client::connect(handle.addr()).expect("client connects");

    let queries: Vec<u32> = (0..180).step_by(6).collect();
    let mut recall_sum = 0.0f64;
    for &q in &queries {
        let exact = c.topk(q, K, EdgeOp::Cosine).unwrap();
        let ann = c.topk_ann(q, K, EdgeOp::Cosine, DEFAULT_PROBES).unwrap();
        assert!(ann.len() <= K);
        assert!(ann.iter().all(|&(n, _)| n != q), "query node excluded");
        assert!(ann.windows(2).all(|w| w[0].1 >= w[1].1), "sorted best-first");
        let hit = ann.iter().filter(|h| exact.iter().any(|e| e.0 == h.0)).count();
        recall_sum += hit as f64 / exact.len().clamp(1, K) as f64;
    }
    let recall = recall_sum / queries.len() as f64;
    assert!(recall >= 0.9, "recall@10 {recall:.3} below the 0.9 floor at default probes");

    // The wire response names the mode and whether the index answered.
    let raw = c
        .call_raw(&format!(
            r#"{{"cmd":"topk","node":0,"k":5,"mode":"ann","probes":{DEFAULT_PROBES}}}"#
        ))
        .unwrap();
    assert!(raw.contains(r#""mode":"ann""#), "{raw}");
    assert!(raw.contains(r#""fallback":"#), "{raw}");

    // Every ANN family is registered and the query-path counters moved.
    let text = c.metrics("prometheus").unwrap();
    for needle in [
        "seqge_ann_queries_total",
        "seqge_ann_fallbacks_total",
        "seqge_ann_candidates",
        "seqge_ann_sync_ns",
        "seqge_ann_rehashed_total",
        "seqge_ann_indexed_points 180",
        "seqge_ann_dirty_ppm",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }
    let queries_line = text
        .lines()
        .find(|l| l.starts_with("seqge_ann_queries_total"))
        .expect("ann query counter present");
    let served: u64 = queries_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(
        served >= queries.len() as u64,
        "expected >= {} ann queries counted, saw {served}",
        queries.len()
    );

    handle.shutdown().unwrap();
}

/// `mode:"exact"` on the wire is the default path spelled out: the raw
/// response line is byte-identical to the same query with no mode at all.
#[test]
fn explicit_exact_mode_is_byte_identical_to_default() {
    let handle = sbm_server();
    let mut c = Client::connect(handle.addr()).unwrap();
    for node in [0u32, 7, 63, 179] {
        let plain = c.call_raw(&format!(r#"{{"cmd":"topk","node":{node},"k":5}}"#)).unwrap();
        let spelled = c
            .call_raw(&format!(r#"{{"cmd":"topk","node":{node},"k":5,"mode":"exact","probes":3}}"#))
            .unwrap();
        assert_eq!(plain, spelled, "explicit exact mode must not change the reply");
        assert!(plain.contains(r#""mode":"exact""#), "{plain}");
    }
    handle.shutdown().unwrap();
}

/// Republishing with <1% dirty vertices re-hashes only the dirty region —
/// asserted through the same `seqge_ann_*` series the trainer exports, not
/// through index internals: after a full build of `n` rows and a re-sync
/// with `d` dirtied rows, `seqge_ann_rehashed_total` reads exactly `n + d`
/// and `seqge_ann_dirty_ppm` reads `d * 1e6 / n`.
#[test]
fn republish_with_sparse_dirt_rehashes_only_the_dirty_region() {
    use seqge_ann::{AnnBuilder, AnnConfig};
    use seqge_linalg::Mat;
    use seqge_obs::Registry;
    use seqge_serve::ServeStats;

    let registry = Registry::new();
    let stats = ServeStats::new(&registry);
    let n = 1_000usize;

    let emb = Mat::from_fn(n, DIM, |r, c| ((r * 31 + c * 7) % 13) as f32 - 6.0);
    let mut builder = AnnBuilder::new(AnnConfig::default());
    let (_, full) = builder.sync(&Arc::new(emb.clone()));
    stats.record_ann_sync(&full);
    assert_eq!((full.total, full.dirty, full.rehashed), (n, n, n), "first sync is a full build");

    // Dirty 7 rows — 0.7% of the vertex set — and republish.
    let mut emb2 = emb.clone();
    for r in [3usize, 150, 311, 500, 747, 900, 999] {
        emb2.row_mut(r)[0] += 1.0;
    }
    let (_, incr) = builder.sync(&Arc::new(emb2.clone()));
    stats.record_ann_sync(&incr);
    assert_eq!(incr.rehashed, 7, "only the dirty region is re-hashed");
    assert!(incr.rehashed * 100 < n, "dirty region stays under 1%");

    let text = seqge_obs::export::prometheus(&[&registry]);
    let series = |name: &str| -> i64 {
        text.lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .unwrap_or_else(|| panic!("missing `{name}` in:\n{text}"))
            .rsplit(' ')
            .next()
            .unwrap()
            .parse::<f64>()
            .unwrap() as i64
    };
    assert_eq!(series("seqge_ann_rehashed_total"), (n + 7) as i64);
    assert_eq!(series("seqge_ann_indexed_points"), n as i64);
    assert_eq!(series("seqge_ann_dirty_ppm"), 7_000, "7/1000 dirty = 7000 ppm");

    // A no-op republish touches nothing.
    let (_, quiet) = builder.sync(&Arc::new(emb2));
    stats.record_ann_sync(&quiet);
    assert_eq!((quiet.dirty, quiet.rehashed), (0, 0));
    let text = seqge_obs::export::prometheus(&[&registry]);
    assert!(
        text.contains("seqge_ann_dirty_ppm 0"),
        "quiet republish must export zero dirty ppm:\n{text}"
    );
}

/// A flush with nothing trained since the write's publish re-publishes the
/// same model: its snapshot is one version newer, shares the write's
/// embedding and index `Arc`s, and its index sync re-hashes nothing.
#[test]
fn flush_after_a_write_shares_the_writes_view_and_index() {
    let graph = sbm_graph();
    let (u, v) = (0..180u32)
        .flat_map(|u| (u + 1..180).map(move |v| (u, v)))
        .find(|&(u, v)| !graph.has_edge(u, v))
        .expect("the SBM is not complete");
    let handle = sbm_server();
    let (cell, stats) = (handle.cell(), handle.stats());
    let mut c = Client::connect(handle.addr()).unwrap();
    let boot = cell.version();
    c.add_edge(u, v).unwrap();
    // The write's own publish: the trainer folds the event in and publishes.
    let deadline = Instant::now() + Duration::from_secs(30);
    while cell.version() == boot {
        assert!(Instant::now() < deadline, "the write was never published");
        std::thread::sleep(Duration::from_millis(1));
    }
    let write = cell.load();
    let rehashed = stats.ann_rehashed.get();
    assert!(rehashed > 0, "boot and the write re-hash rows");

    let version = c.flush().unwrap();
    let flush = cell.load();
    assert_eq!((version, flush.version), (write.version + 1, write.version + 1));
    assert!(Arc::ptr_eq(&flush.emb, &write.emb), "the flush shares the write's view");
    let (flush_ann, write_ann) = (flush.ann.as_ref().unwrap(), write.ann.as_ref().unwrap());
    assert!(Arc::ptr_eq(flush_ann, write_ann), "the flush shares the write's index");
    assert_eq!(stats.ann_rehashed.get(), rehashed, "the flush's sync re-hashes nothing");
    handle.shutdown().unwrap();
}
