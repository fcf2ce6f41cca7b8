//! Cluster end-to-end suite.
//!
//! Scenarios:
//!
//! 1. **1-shard equivalence** — a one-shard cluster is byte-for-byte the
//!    single-node service: every embedding row matches an in-process
//!    reference trainer fed the same event stream.
//! 2. **kill -9 one shard** — a 4-shard child-backed cluster loses one
//!    shard mid-stream; writes targeting it answer `overloaded` (the
//!    client backs off and retries with the same WriteId), the health
//!    loop respawns it, WAL replay restores its state, and the final
//!    embeddings are bit-identical to an uninterrupted run of the same
//!    stream. Seeds come from `SEQGE_CLUSTER_SEED` (comma-separated; CI
//!    fans a matrix).
//! 3. **cross-shard topk agreement** — on a planted-community graph
//!    (communities laid along residue classes mod 4, so each community
//!    is shard-pure), the sharded `topk` recovers the same community
//!    structure as a single-node run. Exact score equality across the
//!    two deployments is *not* expected — shard-local training sees
//!    only edges touching its slice, and the OS-ELM `P` matrix and walk
//!    RNG are global state in single-node training — so the assertion
//!    is structural, as documented in DESIGN.md.
//! 4. **degraded reads + replica fallback** — a router over a table with
//!    one dead shard serves `topk` with `degraded: true` + the missing
//!    shard list, and serves `get_embedding` for the dead shard's nodes
//!    from a WAL-fed replica tagged `"source": "replica"`.
//! 5. **exactly-once training** — every edge has one owner
//!    (`edge_owner(u, v) = owner(min(u, v))`), so per-shard
//!    `edges_inserted` / `edges_removed` counters summed over a 4-shard
//!    cluster reconcile with the stream length, and an edge added in one
//!    orientation and removed in the other reaches the same shard.
//! 6. **cross-shard `score_link` comparability** — the measurement
//!    behind DESIGN.md "Cross-shard score comparability": how well routed
//!    `score_link` on cross-shard pairs separates same-community from
//!    cross-community pairs, next to a single node scoring the same pairs.
//! 7. **one apply rule** — with a refresh cadence of 3 over a stream of
//!    adds, removes and graph-rejected duplicates, the live trainer, WAL
//!    recovery and a replica at the same sequence number hold bit-identical
//!    embeddings: all three are the same `Fold` step over the same log.

use seqge_backend::{BackendKind, BackendSpec, TrainBackend};
use seqge_cluster::{
    edge_owner, owner, start_router, Backend, Cluster, ClusterConfig, ReplicaView, RouterConfig,
};
use seqge_graph::generators::classic::erdos_renyi;
use seqge_graph::{spanning_forest, EdgeEvent, Graph, NodeId};
use seqge_serve::{Client, ClientConfig};
use std::path::PathBuf;
use std::time::Duration;

const DIM: usize = 8;
const SEED: u64 = 11;

/// The training backend under test: `SEQGE_BACKEND=float|fpga-sim` (CI
/// runs the whole suite under both).
fn backend_kind() -> BackendKind {
    match std::env::var("SEQGE_BACKEND") {
        Ok(s) => BackendKind::parse(&s).expect("SEQGE_BACKEND"),
        Err(_) => BackendKind::Float,
    }
}

fn spec() -> BackendSpec {
    seqge_serve::shard_spec(backend_kind(), DIM, SEED)
}

/// The cluster config every scenario starts from, bound to the backend
/// under test.
fn cluster_cfg(shards: usize, base: PathBuf) -> ClusterConfig {
    ClusterConfig {
        train_backend: backend_kind(),
        ..ClusterConfig::in_process(shards, base, DIM, SEED)
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seqge_cluster_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn client(addr: &str) -> Client {
    Client::connect_with(
        addr,
        ClientConfig {
            timeout: Duration::from_secs(5),
            retries: 12,
            client_id: "e2e".to_string(),
            ..ClientConfig::default()
        },
    )
    .expect("client connects to router")
}

/// The chaos-suite graph: a spanning forest committed up front, the held
/// out edges streamed live. Erdős–Rényi edges land across residue
/// classes, so the stream is full of cross-shard edges.
fn test_stream(graph_seed: u64) -> (Graph, Vec<(u32, u32)>) {
    let full = erdos_renyi(40, 0.18, graph_seed);
    let split = spanning_forest(&full);
    let initial = split.initial_graph(&full);
    (initial, split.removed_edges)
}

fn embedding_rows(backend: &mut dyn TrainBackend) -> Vec<Vec<f32>> {
    let emb = backend.publish_view();
    (0..emb.rows()).map(|r| emb.as_slice()[r * emb.cols()..(r + 1) * emb.cols()].to_vec()).collect()
}

#[test]
fn one_shard_cluster_is_bit_identical_to_single_node() {
    let base = scratch("one");
    let (initial, edges) = test_stream(7);
    let cfg = cluster_cfg(1, base.clone());
    let cluster = Cluster::start(&cfg, &initial).expect("cluster boots");

    // Reference: the exact single-node construction, fed the same stream.
    // The shard boots through WAL recovery (bootstrap pass, commit,
    // recover), so the reference is a bootstrap-trained state driven by a
    // *fresh* driver — save then reload through the spec, exactly the
    // snapshot-restore construction recovery uses.
    let mut reference = {
        let mut boot = spec().cold(initial.num_nodes());
        boot.bootstrap(&initial);
        let tmp = base.join("reference.sge");
        boot.save_state(&tmp).expect("reference snapshot");
        spec().load(&tmp).expect("reference reload")
    };
    let mut reference_graph = initial.clone();

    let mut c = client(&cluster.addr().to_string());
    for &(u, v) in &edges {
        c.add_edge(u, v).expect("routed write acks");
        let _ = reference.ingest(&mut reference_graph, EdgeEvent::Add(u, v));
    }
    c.flush().expect("flush barrier");

    for (n, want) in embedding_rows(reference.as_mut()).iter().enumerate() {
        let got = c.get_embedding(n as u32).expect("row readable");
        assert_eq!(&got, want, "node {n}: one-shard cluster diverged from single-node");
    }
    // Sanity on the merged stats plane.
    let stats = c.stats().expect("stats fan-out");
    assert_eq!(stats.get("degraded"), Some(&serde_json::Value::Bool(false)));
    drop(c);
    cluster.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&base);
}

/// Seeds for the kill -9 scenario, from `SEQGE_CLUSTER_SEED` (CI matrix).
fn cluster_seeds() -> Vec<u64> {
    match std::env::var("SEQGE_CLUSTER_SEED") {
        Ok(s) => s
            .split(',')
            .map(|p| p.trim().parse().expect("SEQGE_CLUSTER_SEED: comma-separated u64s"))
            .collect(),
        Err(_) => vec![1],
    }
}

#[test]
fn kill9_one_shard_recovers_bit_identical_to_uninterrupted_run() {
    for seed in cluster_seeds() {
        run_kill9_scenario(seed);
    }
}

fn run_kill9_scenario(seed: u64) {
    const SHARDS: usize = 4;
    let exe = PathBuf::from(env!("CARGO_BIN_EXE_shardd"));
    let (initial, edges) = test_stream(7 ^ seed);
    assert!(edges.len() >= 20, "need a real stream, got {}", edges.len());
    let kill_at = edges.len() / 4 + (seed as usize % (edges.len() / 2));

    let mut runs: Vec<Vec<Vec<f32>>> = Vec::new();
    for interrupted in [true, false] {
        let tag = if interrupted { "kill9_a" } else { "kill9_b" };
        let base = scratch(&format!("{tag}_{seed}"));
        let cfg = ClusterConfig {
            replicas: 1,
            backend: Backend::Child { exe: exe.clone() },
            ..cluster_cfg(SHARDS, base.clone())
        };
        let cluster = Cluster::start(&cfg, &initial).expect("cluster boots");
        let mut c = client(&cluster.addr().to_string());

        for (i, &(u, v)) in edges.iter().enumerate() {
            if interrupted && i == kill_at {
                // SIGKILL the next write's owning shard: the write is
                // guaranteed to hit the dead shard and take the
                // overloaded-retry path.
                cluster.kill_child(edge_owner(u, v, SHARDS));
            }
            c.add_edge(u, v)
                .unwrap_or_else(|e| panic!("seed {seed}: write ({u},{v}) never succeeded: {e}"));
        }
        c.flush().expect("flush barrier");

        if interrupted {
            // The storm must have been observable: the router degraded at
            // least one call while the shard was down.
            let metrics = c.metrics("json").expect("metrics fan");
            assert!(
                metrics.contains("seqge_cluster_degraded_total")
                    || metrics.contains("seqge_cluster_shard_errors_total"),
                "seed {seed}: router metrics missing cluster series"
            );
            let status = c.call(r#"{"cmd":"cluster_status"}"#).expect("cluster_status");
            let shards = status.get("shards").and_then(serde_json::Value::as_array).unwrap();
            assert_eq!(shards.len(), SHARDS);
            // The killed shard respawned: epoch advanced past 1.
            let max_epoch = shards
                .iter()
                .filter_map(|s| s.get("epoch").and_then(serde_json::Value::as_u64))
                .max()
                .unwrap();
            assert!(max_epoch >= 2, "seed {seed}: no shard was ever respawned");
        }

        let rows: Vec<Vec<f32>> = (0..initial.num_nodes() as NodeId)
            .map(|n| c.get_embedding(n).expect("row readable"))
            .collect();
        runs.push(rows);
        drop(c);
        cluster.shutdown().expect("clean shutdown");
        let _ = std::fs::remove_dir_all(&base);
    }

    for (n, (a, b)) in runs[0].iter().zip(&runs[1]).enumerate() {
        assert_eq!(
            a, b,
            "seed {seed}, node {n}: kill -9 + WAL replay diverged from uninterrupted run"
        );
    }
}

/// Planted communities — dense inside, sparse across — under the given
/// vertex → community map. Every node also gets one neighbor in each
/// *other* residue class mod 4 (offsets 1..3): cross-shard score merging
/// assumes every shard has trained the query node's row, which holds
/// exactly when each node has an edge into every shard's slice (see
/// DESIGN.md, "Cross-shard score comparability").
fn community_graph(nodes: usize, community: impl Fn(u32) -> u32) -> Graph {
    const SHARDS: u32 = 4;
    let mut edges = Vec::new();
    for u in 0..nodes as u32 {
        for v in (u + 1)..nodes as u32 {
            if community(u) == community(v) {
                edges.push((u, v)); // intra-community clique
            }
        }
    }
    // Sparse inter-community rings touching every residue class.
    for u in 0..nodes as u32 {
        for off in 1..SHARDS {
            edges.push((u, (u + off) % nodes as u32));
        }
    }
    Graph::from_edges_lossy(nodes, &edges)
}

/// The single-node reference: one backend bootstrapped on the whole graph,
/// published as the snapshot a single `seqge serve` would answer from.
fn single_node_snapshot(graph: &Graph) -> seqge_serve::snapshot::EmbeddingSnapshot {
    let mut reference = spec().cold(graph.num_nodes());
    reference.bootstrap(graph);
    seqge_serve::snapshot::EmbeddingSnapshot {
        version: 0,
        emb: reference.publish_view(),
        num_edges: graph.num_edges(),
        walks_trained: 0,
        edges_inserted: 0,
        edges_removed: 0,
        ann: None,
    }
}

#[test]
fn four_shard_topk_agrees_with_single_node_on_community_structure() {
    const SHARDS: usize = 4;
    const NODES: usize = 48;
    const K: usize = 5;
    // Four shard-pure communities: community `c` is the residue class
    // `{c, c+4, …}`.
    let graph = community_graph(NODES, |v| v % SHARDS as u32);
    let single = single_node_snapshot(&graph);

    let base = scratch("topk");
    let cfg = cluster_cfg(SHARDS, base.clone());
    let cluster = Cluster::start(&cfg, &graph).expect("cluster boots");
    let mut c = client(&cluster.addr().to_string());

    let mut single_hits = 0usize;
    let mut cluster_hits = 0usize;
    let queries: Vec<u32> = (0..NODES as u32).collect();
    for &q in &queries {
        let want_comm = q % SHARDS as u32;
        let reference = single.topk(q, K, seqge_eval::EdgeOp::Cosine).expect("query node in range");
        single_hits += reference.iter().filter(|(v, _)| v % SHARDS as u32 == want_comm).count();
        let routed = c.topk(q, K, seqge_eval::EdgeOp::Cosine).expect("routed topk");
        assert_eq!(routed.len(), K, "router merged fewer than k results");
        cluster_hits += routed.iter().filter(|(v, _)| v % SHARDS as u32 == want_comm).count();
    }
    // Both deployments must recover the planted communities: on average
    // at least 2 of the top-5 neighbors are community members (the
    // comparability edges — one per foreign residue class per node — cap
    // the attainable purity well below a clean planted partition), and
    // the sharded deployment must not lag the single-node one by more
    // than a quarter. Exact rank agreement is impossible by construction:
    // each shard trains an independent model (own P matrix, own RNG), so
    // only the structural signal is comparable (see DESIGN.md).
    //
    // The fpga-sim floor is lower (avg 1.5 of 5, vs ~1.17 chance): the
    // deferred-Δ kernel is bit-faithful to its own float shadow (ppm-level
    // deviation, the Fig. 4 band), but deferred commits are a different
    // trajectory from the sequential float OS-ELM, and at this toy scale
    // (48 nodes, d=8, 2 walks/node) the separation it achieves is softer.
    // The cluster-vs-single ratio below is backend-independent.
    let floor = match backend_kind() {
        BackendKind::Float => queries.len() * 2,
        BackendKind::FpgaSim => queries.len() * 3 / 2,
    };
    eprintln!(
        "community recovery: single {single_hits}/{t}, cluster {cluster_hits}/{t}",
        t = queries.len() * K
    );
    assert!(
        single_hits >= floor,
        "single-node failed community recovery: {single_hits}/{} < {floor}",
        queries.len() * K
    );
    assert!(
        cluster_hits >= floor,
        "cluster failed community recovery: {cluster_hits}/{} < {floor}",
        queries.len() * K
    );
    assert!(
        cluster_hits * 4 >= single_hits * 3,
        "sharded topk lost the community signal: cluster {cluster_hits} vs single {single_hits}"
    );
    drop(c);
    cluster.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&base);
}

/// ROADMAP 3(b)'s number. A cross-shard `score_link(u, v)` is answered by
/// `owner(u)` from its own model, in which `v`'s row is a locally trained
/// approximation (only the edges that shard owns ever touched it). This
/// measures what that costs a client: over every ordered cross-shard pair,
/// the AUC of same-community vs cross-community scores through the
/// router, next to a single node scoring the same pairs.
///
/// The communities here are contiguous id blocks, not the residue classes
/// of the topk scenario: on shard-pure communities every cross-shard pair
/// is also cross-community and there is no positive class to rank.
/// Blocks of 12 put three vertices of every community on every shard.
///
/// Booting is deterministic (bootstrap pass only, no live writes), so both
/// figures repeat exactly; each is gated at its measured value minus 0.03.
#[test]
fn cross_shard_score_link_separates_communities_like_a_single_node() {
    const SHARDS: usize = 4;
    const NODES: u32 = 48;
    const BLOCK: u32 = 12;
    let community = |v: u32| v / BLOCK;
    let graph = community_graph(NODES as usize, community);
    let single = single_node_snapshot(&graph);

    let base = scratch("score_auc");
    let cluster =
        Cluster::start(&cluster_cfg(SHARDS, base.clone()), &graph).expect("cluster boots");
    let mut c = client(&cluster.addr().to_string());

    let op = seqge_eval::EdgeOp::Cosine;
    // [same-community, cross-community] scores, per deployment.
    let mut single_scores = [Vec::new(), Vec::new()];
    let mut cluster_scores = [Vec::new(), Vec::new()];
    for u in 0..NODES {
        for v in 0..NODES {
            if owner(u, SHARDS) == owner(v, SHARDS) {
                continue;
            }
            let class = usize::from(community(u) != community(v));
            single_scores[class].push(single.score(u, v, op).expect("pair in range"));
            cluster_scores[class].push(c.score_link(u, v, op).expect("routed score_link"));
        }
    }
    let single_auc = seqge_eval::pairwise_auc(&single_scores[0], &single_scores[1]);
    let cluster_auc = seqge_eval::pairwise_auc(&cluster_scores[0], &cluster_scores[1]);
    eprintln!(
        "cross-shard score_link AUC ({} same-community, {} cross-community ordered pairs, {}): \
         single-node {single_auc:.4}, {SHARDS}-shard cluster {cluster_auc:.4}",
        single_scores[0].len(),
        single_scores[1].len(),
        backend_kind()
    );
    // Measured (single-node, cluster) — also recorded in DESIGN.md.
    let (single_measured, cluster_measured) = match backend_kind() {
        BackendKind::Float => (0.9956, 0.8930),
        BackendKind::FpgaSim => (0.9528, 0.8764),
    };
    const MARGIN: f64 = 0.03;
    assert!(
        single_auc >= single_measured - MARGIN,
        "single-node AUC {single_auc:.4} fell more than {MARGIN} below {single_measured}"
    );
    assert!(
        cluster_auc >= cluster_measured - MARGIN,
        "cluster AUC {cluster_auc:.4} fell more than {MARGIN} below {cluster_measured}"
    );

    drop(c);
    cluster.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&base);
}

/// One `stats` counter from every shard, asked directly.
fn shard_counters(cluster: &Cluster, field: &str) -> Vec<u64> {
    cluster
        .shard_addrs()
        .iter()
        .map(|addr| {
            let stats = client(&addr.to_string()).call(r#"{"cmd":"stats"}"#).expect("shard stats");
            stats.get(field).and_then(serde_json::Value::as_u64).unwrap_or(0)
        })
        .collect()
}

/// Exactly-once: per-shard applied-edge counters sum to the stream
/// length. Under both-endpoint routing this sum would exceed the stream
/// by one per cross-shard edge.
#[test]
fn edges_train_exactly_once_across_four_shards() {
    const SHARDS: usize = 4;
    let base = scratch("once");
    let (initial, edges) = test_stream(7);
    assert!(
        edges.iter().any(|&(u, v)| owner(u, SHARDS) != owner(v, SHARDS)),
        "stream must contain cross-shard edges for the reconciliation to mean anything"
    );
    let cluster = Cluster::start(&cluster_cfg(SHARDS, base.clone()), &initial).expect("boots");
    let mut c = client(&cluster.addr().to_string());
    for &(u, v) in &edges {
        c.add_edge(u, v).expect("routed write acks");
    }
    c.flush().expect("flush barrier");

    let per_shard = shard_counters(&cluster, "edges_inserted");
    assert_eq!(
        per_shard.iter().sum::<u64>(),
        edges.len() as u64,
        "per-shard train counters must reconcile with the stream (per shard: {per_shard:?}) — \
         a mismatch means an edge was trained twice (or dropped)"
    );

    drop(c);
    cluster.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&base);
}

/// The graph is undirected, so a client may name one edge in either
/// orientation: `add_edge(v, u)` then `remove_edge(u, v)` must reach the
/// *same* owning shard, or the removal would land on a shard that never
/// saw the edge and the edge would survive forever on the real owner.
#[test]
fn reversed_endpoint_orientation_routes_to_the_same_owner() {
    const SHARDS: usize = 4;
    let base = scratch("reversed");
    let (initial, edges) = test_stream(19);
    let cross: Vec<(u32, u32)> = edges
        .iter()
        .copied()
        .filter(|&(u, v)| owner(u, SHARDS) != owner(v, SHARDS))
        .take(8)
        .collect();
    assert!(cross.len() >= 4, "need cross-shard edges, got {}", cross.len());
    let cluster = Cluster::start(&cluster_cfg(SHARDS, base.clone()), &initial).expect("boots");
    let mut c = client(&cluster.addr().to_string());

    let routed_shard = |resp: &serde_json::Value| -> usize {
        resp.get("shards")
            .and_then(serde_json::Value::as_array)
            .and_then(|a| a.first())
            .and_then(serde_json::Value::as_u64)
            .expect("write ack names the routed shard") as usize
    };
    for &(u, v) in &cross {
        // Add in reversed orientation…
        let add = c.call(&format!(r#"{{"cmd":"add_edge","u":{v},"v":{u}}}"#)).expect("add acks");
        assert_eq!(add.get("ok"), Some(&serde_json::Value::Bool(true)), "add (v,u): {add:?}");
        assert_eq!(
            routed_shard(&add),
            edge_owner(u, v, SHARDS),
            "add ({v},{u}) must route to the canonical owner"
        );
    }
    c.flush().expect("flush barrier");
    for &(u, v) in &cross {
        // …remove in the opposite orientation: same edge, same shard.
        let rm = c.call(&format!(r#"{{"cmd":"remove_edge","u":{u},"v":{v}}}"#)).expect("rm acks");
        assert_eq!(rm.get("ok"), Some(&serde_json::Value::Bool(true)), "remove (u,v): {rm:?}");
        assert_eq!(
            routed_shard(&rm),
            edge_owner(v, u, SHARDS),
            "remove ({u},{v}) must route to the canonical owner"
        );
    }
    c.flush().expect("flush barrier");

    // The owning shards really applied both orientations: cluster-wide
    // counters reconcile. A mis-routed removal hits a shard without the
    // edge and applies nothing, leaving the sum short.
    let inserted: u64 = shard_counters(&cluster, "edges_inserted").iter().sum();
    let removed: u64 = shard_counters(&cluster, "edges_removed").iter().sum();
    assert_eq!(inserted, cross.len() as u64, "every reversed add applied exactly once");
    assert_eq!(removed, cross.len() as u64, "every reversed removal found its edge");

    drop(c);
    cluster.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn dead_shard_degrades_topk_and_replica_serves_reads() {
    const SHARDS: usize = 2;
    let base = scratch("degraded");
    let (initial, edges) = test_stream(7);

    // Boot a real 2-shard in-process cluster, stream some edges, then
    // build a *second* router whose table points shard 1 at a dead port.
    let cfg = ClusterConfig { replicas: 1, ..cluster_cfg(SHARDS, base.clone()) };
    let cluster = Cluster::start(&cfg, &initial).expect("cluster boots");
    let mut c = client(&cluster.addr().to_string());
    for &(u, v) in &edges[..edges.len() / 2] {
        c.add_edge(u, v).expect("write acks");
    }
    c.flush().expect("flush");
    // Read every row through the healthy path first (replica will be
    // compared against these exact bytes).
    let healthy_rows: Vec<Vec<f32>> =
        (0..initial.num_nodes() as u32).map(|n| c.get_embedding(n).expect("row")).collect();

    // Give the replica a moment to drain the tail, then wire the broken
    // router: shard 0 live, shard 1 pointed at a port nothing listens on.
    let dead: std::net::SocketAddr = "127.0.0.1:9".parse().unwrap();
    let table = seqge_cluster::shard::shard_table(&[cluster.shard_addrs()[0], dead]);
    let replica = seqge_cluster::Replica::start(
        &base.join("shard-1"),
        seqge_cluster::ReplicaConfig {
            spec: spec(),
            refresh_every: 0,
            poll: Duration::from_millis(10),
        },
    )
    .expect("replica boots");
    // Wait for the replica to catch up to the primary's applied stream.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let snap = replica.cell().load();
        let owned_caught_up = (0..initial.num_nodes() as u32)
            .filter(|v| owner(*v, SHARDS) == 1)
            .all(|v| snap.embedding(v).map(|r| r == &healthy_rows[v as usize][..]) == Some(true));
        if owned_caught_up {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "replica never caught up to primary");
        std::thread::sleep(Duration::from_millis(20));
    }
    let views =
        vec![None, Some(ReplicaView { cell: replica.cell(), applied: replica.applied_counter() })];
    let router = start_router(
        "127.0.0.1:0",
        table,
        views,
        RouterConfig { deadline: Duration::from_millis(300), ..RouterConfig::default() },
    )
    .expect("broken router boots");

    let mut broken = Client::connect_with(
        router.addr(),
        ClientConfig { timeout: Duration::from_secs(5), retries: 0, ..ClientConfig::default() },
    )
    .expect("client connects");

    // topk: partial result, flagged.
    let v = broken.call(r#"{"cmd":"topk","node":0,"k":3}"#).expect("degraded topk still ok");
    assert_eq!(v.get("degraded"), Some(&serde_json::Value::Bool(true)));
    let missing = v.get("missing_shards").and_then(serde_json::Value::as_array).unwrap();
    assert_eq!(missing.len(), 1, "exactly shard 1 missing: {v:?}");

    // get_embedding for a shard-1 node: answered by the replica, bit-
    // identical to the primary's row.
    let odd = (0..initial.num_nodes() as u32).find(|v| owner(*v, SHARDS) == 1).unwrap();
    let resp = broken
        .call(&format!(r#"{{"cmd":"get_embedding","node":{odd}}}"#))
        .expect("replica fallback");
    assert_eq!(
        resp.get("source").and_then(serde_json::Value::as_str),
        Some("replica"),
        "expected the replica to answer: {resp:?}"
    );
    let row: Vec<f32> = resp
        .get("embedding")
        .and_then(serde_json::Value::as_array)
        .unwrap()
        .iter()
        .map(|x| x.as_f64().unwrap() as f32)
        .collect();
    assert_eq!(row, healthy_rows[odd as usize], "replica row diverged from primary");

    // cluster_status reports the broken shard and the replica's horizon.
    let status = broken.call(r#"{"cmd":"cluster_status"}"#).expect("status");
    let shards = status.get("shards").and_then(serde_json::Value::as_array).unwrap();
    assert_eq!(
        shards[1].get("healthy"),
        Some(&serde_json::Value::Bool(false)),
        "dead shard not marked unhealthy: {status:?}"
    );

    drop(broken);
    router.shutdown().expect("router down");
    replica.stop();
    drop(c);
    cluster.shutdown().expect("cluster down");
    let _ = std::fs::remove_dir_all(&base);
}

/// A traced `topk` through a 2-shard cluster produces the full span tree
/// in one trace: the router's `cluster.topk` root (parented to the wire
/// context), one `cluster.shard` leg per shard under it, and one
/// `serve.topk` span per shard parented to its own leg — cross-layer
/// propagation with no mixing. In-process shards share the router's span
/// ring, so the whole tree is visible from one snapshot.
#[test]
fn traced_topk_produces_cross_layer_span_tree() {
    seqge_obs::set_timing_enabled(true);
    let base = scratch("trace_tree");
    let (initial, _) = test_stream(7);
    let cfg = cluster_cfg(2, base.clone());
    let cluster = Cluster::start(&cfg, &initial).expect("cluster boots");
    let mut c = client(&cluster.addr().to_string());

    let ctx = seqge_obs::TraceCtx {
        trace_id: seqge_obs::trace::next_id(),
        parent_span: seqge_obs::trace::next_id(),
        sampled: true,
    };
    let reply = c
        .call_traced(r#"{"cmd":"topk","node":0,"k":3,"op":"dot"}"#, &ctx)
        .expect("traced topk answers");
    assert!(reply.contains(r#""ok":true"#), "topk must succeed: {reply}");

    // The root span closes before the response is written, so by the time
    // call_traced returns the whole tree is in the ring.
    let (spans, _) = seqge_obs::trace::snapshot_since(0);
    let mine: Vec<_> = spans.iter().filter(|s| s.trace_id == ctx.trace_id).collect();

    let roots: Vec<_> = mine.iter().filter(|s| s.name == "cluster.topk").collect();
    assert_eq!(roots.len(), 1, "exactly one router root span: {mine:?}");
    let root = roots[0];
    assert_eq!(root.parent_span, ctx.parent_span, "router root must parent to the wire context");

    let legs: Vec<_> = mine.iter().filter(|s| s.name == "cluster.shard").collect();
    assert_eq!(legs.len(), 2, "one fan-out leg per shard: {mine:?}");
    for leg in &legs {
        assert_eq!(leg.parent_span, root.span_id, "legs parent to the root");
    }

    let shard_spans: Vec<_> = mine.iter().filter(|s| s.name == "serve.topk").collect();
    assert_eq!(shard_spans.len(), 2, "one shard-side span per leg: {mine:?}");
    let leg_ids: Vec<u64> = legs.iter().map(|l| l.span_id).collect();
    let mut parents: Vec<u64> = shard_spans.iter().map(|s| s.parent_span).collect();
    parents.sort_unstable();
    parents.dedup();
    assert_eq!(parents.len(), 2, "each shard span under its own leg: {mine:?}");
    for p in &parents {
        assert!(leg_ids.contains(p), "shard span parents to a fan-out leg: {mine:?}");
    }

    drop(c);
    cluster.shutdown().expect("cluster down");
    let _ = std::fs::remove_dir_all(&base);
}

/// Scenario 7. No other test in the tree runs with `refresh_every > 0`, so
/// this is also the only coverage of the resample cadence end to end.
#[test]
fn live_trainer_recovery_and_replica_agree_under_a_refresh_cadence() {
    use seqge_serve::wal::{self, FsyncPolicy, Wal, WalConfig};
    use seqge_serve::ServeConfig;
    const REFRESH_EVERY: u64 = 3;

    // A store committed, then booted through recovery (what a cluster shard
    // does): the live trainer starts from the same fresh driver that
    // recovery and the replica construct.
    let base = scratch("apply_rule");
    let dir = base.join("store");
    let (initial, edges) = test_stream(7);
    let wcfg = WalConfig { dir: dir.clone(), fsync: FsyncPolicy::Batch };
    let mut cold = spec().cold(initial.num_nodes());
    cold.bootstrap(&initial);
    drop(Wal::init(&wcfg, &*cold, &initial).expect("store commits"));
    let config = ServeConfig { refresh_every: REFRESH_EVERY, ..ServeConfig::default() };
    let handle = seqge_serve::start_node("127.0.0.1:0", &wcfg, None, &spec(), config)
        .expect("node boots through recovery");

    // Adds, a duplicate add and a remove of a missing edge (both rejected by
    // the graph: they consume a sequence number but not the cadence), real
    // removes, re-adds; the stream ends on a trained event so the replica's
    // published cursor reaches the last record.
    let mut stream = Vec::new();
    for (i, &(u, v)) in edges.iter().take(12).enumerate() {
        stream.push(EdgeEvent::Add(u, v));
        match i % 4 {
            1 => stream.push(EdgeEvent::Add(u, v)),
            2 => stream.push(EdgeEvent::Remove(u, v)),
            3 => stream.push(EdgeEvent::Remove(edges[13].0, edges[13].1)),
            _ => {}
        }
    }
    stream.push(EdgeEvent::Add(edges[14].0, edges[14].1));
    let rejected = stream.len() as u64 - 12 - 3 - 1; // adds, real removes, the tail add
    let mut c = client(&handle.addr().to_string());
    for &event in &stream {
        match event {
            EdgeEvent::Add(u, v) => c.add_edge(u, v),
            EdgeEvent::Remove(u, v) => c.remove_edge(u, v),
        }
        .expect("write acks");
    }
    c.flush().expect("flush barrier");
    let stats = c.stats().expect("stats");
    let stat = |k: &str| stats.get(k).and_then(|v| v.as_u64()).unwrap();
    assert_eq!(stat("rejected"), rejected, "{stats:?}");
    assert_eq!(stat("refreshes"), (stream.len() as u64 - rejected) / REFRESH_EVERY, "{stats:?}");
    let live: Vec<Vec<f32>> =
        (0..initial.num_nodes() as u32).map(|n| c.get_embedding(n).expect("row")).collect();

    // A replica tailing the live store, caught up to the last sequence.
    let replica = seqge_cluster::Replica::start(
        &dir,
        seqge_cluster::ReplicaConfig {
            spec: spec(),
            refresh_every: REFRESH_EVERY,
            poll: Duration::from_millis(5),
        },
    )
    .expect("replica boots");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while replica.applied_seq() < stream.len() as u64 {
        assert!(std::time::Instant::now() < deadline, "replica never caught up");
        std::thread::sleep(Duration::from_millis(5));
    }
    let snap = replica.cell().load();
    for (n, want) in live.iter().enumerate() {
        assert_eq!(snap.embedding(n as u32).unwrap(), &want[..], "replica row {n} differs");
    }
    // Both booted from generation 0 and folded the same records, so the
    // counters agree too — the refresh walks included.
    assert_eq!(
        [snap.walks_trained, snap.edges_inserted, snap.edges_removed].map(|c| c as u64),
        [stat("walks_trained"), stat("edges_inserted"), stat("edges_removed")],
        "replica counters differ from the primary's"
    );
    replica.stop();

    // Recovery of the same bytes, as after a kill -9 (the live server has
    // committed no generation since boot), with a duplicate of the last
    // record appended so the skip path runs too.
    let copy = base.join("copy");
    std::fs::create_dir_all(&copy).unwrap();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), copy.join(entry.file_name())).unwrap();
    }
    let seg = wal::segment_path(&copy, wal::read_meta(&copy).unwrap().unwrap().segment);
    let last = *wal::read_segment(&seg).unwrap().records.last().unwrap();
    let mut bytes = std::fs::read(&seg).unwrap();
    bytes.extend_from_slice(&wal::encode_record(last.seq, last.event));
    std::fs::write(&seg, bytes).unwrap();
    let mut boot = Wal::recover(&WalConfig { dir: copy, ..wcfg }, &spec(), REFRESH_EVERY)
        .expect("recovery reads the store")
        .expect("store is committed");
    assert_eq!(boot.report.replayed + boot.report.rejected, stream.len() as u64);
    assert_eq!(boot.report.rejected, rejected);
    assert_eq!(boot.report.duplicates, 1);
    assert_eq!(boot.report.refreshes, stat("refreshes"));
    assert_eq!(embedding_rows(boot.backend.as_mut()), live, "recovered rows differ from live");

    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&base);
}
