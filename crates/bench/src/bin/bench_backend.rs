//! Backend benchmark: float OS-ELM vs the fpga-sim fixed-point backend on
//! the *serving path*, measured over a real loopback TCP connection — the
//! online counterpart of `fig4` (which compares the same two engines
//! offline on prepared walks).
//!
//! Both arms boot an identical Amazon-Photo spanning forest, stream the
//! removed edges through `add_edge` + `flush`, then sweep `topk` latency
//! against the published snapshot. The fpga-sim arm additionally reports:
//!
//! * the **cycle planner** — predicted sustainable ingest rate from the
//!   calibrated per-walk cycle model at the configured clock, next to the
//!   measured loopback rate (`seqge_backend_predicted_ingest_eps` vs wall
//!   clock; the loopback rate includes host-side framing/JSON costs the
//!   model deliberately excludes, so "measured ≤ predicted" is the
//!   expected shape);
//! * the **live Fig. 4 deviation** — fixed-vs-float mean absolute
//!   embedding deviation in ppm from the float shadow trained on the same
//!   walks (`seqge_backend_deviation`), re-measured at the final publish.
//!
//! `scripts/bench_gate.sh` gates `deviation_ppm` against the Fig. 4-style
//! ceiling (quantization drift is a correctness property, not a
//! host-speed property) and requires both arms' ingest evidence.
//!
//! Writes `results/bench_backend.json` via `--json` or to that default
//! path when the flag is omitted.

use seqge_backend::{BackendKind, BackendSpec};
use seqge_bench::{banner, write_json, Args};
use seqge_core::{OsElmConfig, TrainConfig};
use seqge_eval::EdgeOp;
use seqge_graph::{spanning_forest, Dataset, Graph};
use seqge_sampling::UpdatePolicy;
use seqge_serve::{start_backend, Client, ClientConfig, ServeConfig};
use std::time::{Duration, Instant};

/// p-th percentile of unsorted per-request latencies, in microseconds.
fn percentile(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    if samples.is_empty() {
        return f64::NAN;
    }
    let idx = ((p / 100.0) * (samples.len() - 1) as f64).round() as usize;
    samples[idx]
}

struct ArmResult {
    ingest_eps: f64,
    ingest_wall_s: f64,
    events: u64,
    topk_p50_us: f64,
    topk_p99_us: f64,
    walks_trained: u64,
    cycles_total: u64,
    predicted_ingest_eps: i64,
    deviation_ppm: i64,
}

/// Boots one server on `kind`, streams `stream`, sweeps `topk`.
fn run_arm(
    kind: BackendKind,
    initial: &Graph,
    stream: &[(u32, u32)],
    cfg: &TrainConfig,
    ocfg: OsElmConfig,
    seed: u64,
) -> ArmResult {
    let spec = BackendSpec::new(kind, *cfg, ocfg, UpdatePolicy::every_edge(), seed);
    let mut backend = spec.cold(initial.num_nodes());
    let t = Instant::now();
    backend.bootstrap(initial);
    println!("  [{kind}] bootstrap: {:.1} ms", t.elapsed().as_secs_f64() * 1e3);
    let handle = start_backend("127.0.0.1:0", initial.clone(), backend, ServeConfig::default())
        .expect("server starts");
    // The flush barrier waits for the *entire* queued stream to train; the
    // fpga-sim arm runs every walk through the fixed-point kernel (plus the
    // float shadow), so on a loaded host that is minutes, not seconds.
    let ccfg = ClientConfig { timeout: Duration::from_secs(1800), ..ClientConfig::default() };
    let mut c = Client::connect_with(handle.addr(), ccfg).expect("client connects");

    // Ingest: queue the whole stream, flush barrier = trained + published.
    let t = Instant::now();
    for &(u, v) in stream {
        c.add_edge(u, v).expect("add_edge");
    }
    c.flush().expect("flush");
    let ingest_wall_s = t.elapsed().as_secs_f64();
    let events = stream.len() as u64;
    let ingest_eps = events as f64 / ingest_wall_s;

    // Query sweep against the published snapshot.
    let n = 1000;
    let num_nodes = initial.num_nodes();
    let mut lat = Vec::with_capacity(n);
    for i in 0..n {
        let node = ((i * 131) % num_nodes) as u32;
        let t = Instant::now();
        drop(c.topk(node, 10, EdgeOp::Cosine).expect("topk"));
        lat.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let topk_p50_us = percentile(&mut lat, 50.0);
    let topk_p99_us = percentile(&mut lat, 99.0);

    let stats = handle.stats();
    let out = ArmResult {
        ingest_eps,
        ingest_wall_s,
        events,
        topk_p50_us,
        topk_p99_us,
        walks_trained: stats.walks_trained.get(),
        cycles_total: stats.backend_cycles.get(),
        predicted_ingest_eps: stats.backend_predicted_eps.get(),
        deviation_ppm: stats.backend_deviation.get(),
    };
    handle.shutdown().expect("shutdown");
    println!(
        "  [{kind}] ingest {events} events in {ingest_wall_s:.2} s ({ingest_eps:.0} ev/s)   \
         topk p50 {topk_p50_us:.1} us p99 {topk_p99_us:.1} us",
        events = out.events
    );
    out
}

fn main() {
    let args = Args::parse(0.15);
    banner("training backends on the serving path (float vs fpga-sim)", args.scale);

    let dim = *args.dims.first().unwrap_or(&32);
    let mut cfg = TrainConfig::paper_defaults(dim);
    cfg.model.seed = args.seed;
    let ocfg = OsElmConfig { model: cfg.model, ..OsElmConfig::paper_defaults(dim) };

    // Serve the Amazon-Photo spanning forest; the removed edges are the
    // live stream, on the dataset the paper's Fig. 4 reports zero F1 drop
    // for.
    let full = Dataset::AmazonPhoto.generate_scaled(args.scale, args.seed);
    let split = spanning_forest(&full);
    let initial = split.initial_graph(&full);
    let stream = split.removed_edges.clone();
    println!(
        "ampt scale {}: {} nodes, {} forest edges, {} streamed edges, d={dim}",
        args.scale,
        initial.num_nodes(),
        initial.num_edges(),
        stream.len()
    );

    let float = run_arm(BackendKind::Float, &initial, &stream, &cfg, ocfg, args.seed);
    let fpga = run_arm(BackendKind::FpgaSim, &initial, &stream, &cfg, ocfg, args.seed);

    let ingest_ratio = fpga.ingest_eps / float.ingest_eps;
    println!();
    println!("fpga-sim vs float ingest: {ingest_ratio:.2}x");
    println!(
        "fpga-sim planner: {} modeled cycles, predicted {} ev/s (measured {:.0} ev/s loopback)",
        fpga.cycles_total, fpga.predicted_ingest_eps, fpga.ingest_eps
    );
    println!("fpga-sim deviation vs float shadow: {} ppm", fpga.deviation_ppm);

    let arm_json = |a: &ArmResult| {
        serde_json::json!({
            "ingest_events": a.events,
            "ingest_wall_s": a.ingest_wall_s,
            "ingest_eps": a.ingest_eps,
            "topk10_p50_us": a.topk_p50_us,
            "topk10_p99_us": a.topk_p99_us,
            "walks_trained": a.walks_trained,
        })
    };
    let record = serde_json::json!({
        "dataset": "ampt",
        "scale": args.scale,
        "dim": dim,
        "nodes": initial.num_nodes(),
        "streamed_edges": stream.len(),
        "float": arm_json(&float),
        "fpga_sim": arm_json(&fpga),
        // Flat copies of the gated metrics (scripts/bench_gate.sh scrapes
        // line-wise; keep these unique at top level).
        "float_ingest_eps": float.ingest_eps,
        "fpga_ingest_eps": fpga.ingest_eps,
        "ingest_ratio_fpga_vs_float": ingest_ratio,
        "backend_cycles_total": fpga.cycles_total,
        "predicted_ingest_eps": fpga.predicted_ingest_eps,
        "deviation_ppm": fpga.deviation_ppm,
        "note": "loopback TCP through the serve plane, identical boot graph \
                 and stream per arm; deviation_ppm is the fpga-sim backend's \
                 live float-shadow metric (seqge_backend_deviation) at the \
                 final publish; predicted_ingest_eps is the cycle-model \
                 planner at the configured clock and excludes host-side \
                 protocol costs",
    });
    let path = args
        .json
        .clone()
        .unwrap_or_else(|| std::path::Path::new("results/bench_backend.json").into());
    write_json(&path, &record).expect("write json");
    println!("json written to {}", path.display());
}
