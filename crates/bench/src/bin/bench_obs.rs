//! Observability-overhead benchmark: proves the `seqge-obs` span timing
//! stays inside its overhead budget on the pipelined-training hot path.
//!
//! Three arms over the same workload (`train_all_pipelined` on scaled
//! Cora):
//!
//! * **enabled** — instrumentation compiled in, span timing on (the
//!   default production configuration);
//! * **runtime_disabled** — compiled in, `SEQGE_OBS=off`-equivalent (span
//!   clock reads gated off; counters stay live);
//! * **compiled_out** — built with `--features obs-disabled`, which
//!   forwards to `seqge-obs/disabled` and compiles every recording call to
//!   a no-op.
//!
//! One binary can only run the arms its build supports, so the two builds
//! **merge** into `results/bench_obs.json`: each run replaces its own arms
//! in the existing file. The **gate** compares `enabled` against
//! `runtime_disabled` — the two arms share one binary and interleave their
//! repetitions, so code layout, thermal drift, and allocator state cancel
//! out and the comparison isolates the span-timing cost alone. The
//! enabled-vs-`compiled_out` number spans two builds whose code layout
//! differs for reasons unrelated to instrumentation; it is recorded for
//! information and never gates. The `runtime_disabled`-vs-`compiled_out`
//! delta, however, bounds the residual cost of the tracing-capable code
//! with tracing off (one atomic load per request plus dead branches) and
//! gates at `SEQGE_TRACE_OFF_MAX_OVERHEAD_PCT` (default 2.0).
//! `scripts/bench_obs.sh` orchestrates the two builds; the primary pass
//! threshold comes from `SEQGE_OBS_MAX_OVERHEAD_PCT` (default 5.0).

use seqge_bench::{bench_args, experiments::SEED, write_json};
use seqge_core::{train_all_pipelined, OsElmConfig, OsElmSkipGram, TrainConfig};
use seqge_graph::{Dataset, Graph};
use serde_json::Value;
use std::time::Instant;

const REPS: usize = 5;
const THREADS: usize = 2;

/// Best-of-`REPS` wall time for one full pipelined training run.
fn measure(g: &Graph, cfg: &TrainConfig, ocfg: OsElmConfig, seed: u64) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut walks = 0u64;
    for _ in 0..REPS {
        let mut m = OsElmSkipGram::new(g.num_nodes(), ocfg);
        let t = Instant::now();
        let out = train_all_pipelined(g, &mut m, cfg, seed, THREADS);
        best = best.min(t.elapsed().as_secs_f64());
        walks = out.walks_trained as u64;
    }
    (best, walks)
}

fn arm_record(wall_s: f64, walks: u64) -> Value {
    Value::Object(vec![
        ("wall_s".to_string(), Value::F64(wall_s)),
        ("walks".to_string(), Value::U64(walks)),
        ("walks_per_sec".to_string(), Value::F64(walks as f64 / wall_s)),
    ])
}

fn arm_wall(arms: &[(String, Value)], name: &str) -> Option<f64> {
    arms.iter().find(|(n, _)| n == name).and_then(|(_, v)| v.get("wall_s")).and_then(Value::as_f64)
}

fn main() {
    let (scale, path) = bench_args(
        "observability overhead (obs on vs runtime-off vs compiled-out)",
        0.3,
        "results/bench_obs.json",
    );
    let dim = 32;
    let mut cfg = TrainConfig::paper_defaults(dim);
    cfg.model.seed = SEED;
    let ocfg = OsElmConfig { model: cfg.model, ..OsElmConfig::paper_defaults(dim) };
    let g = Dataset::Cora.generate_scaled(scale, SEED);
    println!(
        "cora scale {}: {} nodes / {} edges, d={dim}, {} reps (best-of), {} walker thread(s)",
        scale,
        g.num_nodes(),
        g.num_edges(),
        REPS,
        THREADS
    );

    // Warm-up run so page faults and allocator growth hit no arm.
    let _ = measure(&g, &cfg, ocfg, SEED);

    let mut fresh: Vec<(String, Value)> = Vec::new();
    if seqge_obs::COMPILED {
        // Interleave the two runtime arms rep by rep: any slow drift of the
        // host (thermal, cache, scheduler) then lands on both arms equally
        // instead of biasing whichever block ran second.
        let mut on = (f64::INFINITY, 0u64);
        let mut off = (f64::INFINITY, 0u64);
        for _ in 0..REPS {
            for (enabled, best) in [(true, &mut on), (false, &mut off)] {
                seqge_obs::set_timing_enabled(enabled);
                let mut m = OsElmSkipGram::new(g.num_nodes(), ocfg);
                let t = Instant::now();
                let out = train_all_pipelined(&g, &mut m, &cfg, SEED, THREADS);
                let wall = t.elapsed().as_secs_f64();
                if wall < best.0 {
                    *best = (wall, out.walks_trained as u64);
                }
            }
        }
        seqge_obs::set_timing_enabled(true);
        println!("  enabled          {:.3} s   {:.0} walks/s", on.0, on.1 as f64 / on.0);
        println!("  runtime_disabled {:.3} s   {:.0} walks/s", off.0, off.1 as f64 / off.0);
        fresh.push(("enabled".to_string(), arm_record(on.0, on.1)));
        fresh.push(("runtime_disabled".to_string(), arm_record(off.0, off.1)));
    } else {
        let (wall, walks) = measure(&g, &cfg, ocfg, SEED);
        println!("  compiled_out     {:.3} s   {:.0} walks/s", wall, walks as f64 / wall);
        fresh.push(("compiled_out".to_string(), arm_record(wall, walks)));
    }

    // Merge with whatever a previous build's run left behind.
    let mut arms: Vec<(String, Value)> = std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| serde_json::from_str::<Value>(&s).ok())
        .and_then(|v| match v.get("arms") {
            Some(Value::Object(pairs)) => Some(pairs.clone()),
            _ => None,
        })
        .unwrap_or_default();
    for (name, rec) in fresh {
        arms.retain(|(n, _)| *n != name);
        arms.push((name, rec));
    }
    arms.sort_by(|a, b| a.0.cmp(&b.0));

    let max_pct: f64 = std::env::var("SEQGE_OBS_MAX_OVERHEAD_PCT")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5.0);
    let overhead_vs = |arm: &str, base: &str| -> Option<f64> {
        let base = arm_wall(&arms, base)?;
        Some((arm_wall(&arms, arm)? - base) / base * 100.0)
    };
    // The gate: same binary, interleaved reps — isolates span-timing cost.
    let gate_pct = overhead_vs("enabled", "runtime_disabled");
    // Informational only: spans two builds with different code layout.
    let enabled_pct = overhead_vs("enabled", "compiled_out");
    // Gated (loosely): runtime_disabled carries the full tracing-capable
    // code (span/trace branches compiled in, gated off by one atomic load),
    // so its delta against compiled_out bounds the tracing-off residual.
    // The comparison spans two builds, so the budget must absorb layout
    // variance — default 2%, overridable for noisy hosts.
    let runtime_off_pct = overhead_vs("runtime_disabled", "compiled_out");
    let trace_off_max: f64 = std::env::var("SEQGE_TRACE_OFF_MAX_OVERHEAD_PCT")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2.0);
    let trace_off_pass = runtime_off_pct.map(|p| p <= trace_off_max);
    let pass = gate_pct.map(|p| p <= max_pct && trace_off_pass != Some(false));

    let mut record = vec![
        ("dataset".to_string(), Value::Str("cora".to_string())),
        ("scale".to_string(), Value::F64(scale)),
        ("dim".to_string(), Value::U64(dim as u64)),
        ("reps_best_of".to_string(), Value::U64(REPS as u64)),
        ("walker_threads".to_string(), Value::U64(THREADS as u64)),
        ("arms".to_string(), Value::Object(arms)),
        ("max_overhead_pct".to_string(), Value::F64(max_pct)),
    ];
    if let Some(p) = gate_pct {
        record.push(("overhead_enabled_vs_runtime_disabled_pct".to_string(), Value::F64(p)));
        println!("overhead enabled vs runtime_disabled: {p:+.2}% (budget {max_pct}%, gated)");
    }
    if let Some(p) = enabled_pct {
        record.push(("overhead_enabled_vs_compiled_out_pct".to_string(), Value::F64(p)));
        println!("overhead enabled vs compiled_out: {p:+.2}% (informational)");
    }
    if let Some(p) = runtime_off_pct {
        record.push(("overhead_runtime_disabled_vs_compiled_out_pct".to_string(), Value::F64(p)));
        record.push(("trace_off_max_overhead_pct".to_string(), Value::F64(trace_off_max)));
        println!(
            "overhead runtime_disabled vs compiled_out: {p:+.2}% \
             (tracing-off residual, budget {trace_off_max}%)"
        );
    }
    if let Some(ok) = pass {
        record.push(("pass".to_string(), Value::Bool(ok)));
    } else {
        println!("(compiled-in arms absent; run the default build to compute the gate)");
    }
    record.push((
        "note".to_string(),
        Value::Str(
            "best-of-N wall time of train_all_pipelined on scaled Cora. \
             The primary gate (enabled vs runtime_disabled) runs both \
             arms interleaved in one binary, isolating the span-timing \
             cost from build-to-build code-layout variance. The \
             compiled_out comparisons span two builds whose layout differs \
             for reasons unrelated to instrumentation — negative numbers \
             there mean the recording cost is below build variance. The \
             runtime_disabled-vs-compiled_out delta bounds the residual \
             cost of the tracing-capable code with tracing off and gates \
             at trace_off_max_overhead_pct"
                .to_string(),
        ),
    ));
    write_json(&path, &Value::Object(record)).expect("write json");
    println!("json written to {}", path.display());

    if let Some(false) = pass {
        if gate_pct.is_some_and(|p| p > max_pct) {
            eprintln!(
                "FAIL: span-timing overhead {:.2}% (enabled vs runtime_disabled) exceeds {max_pct}%",
                gate_pct.unwrap_or(f64::NAN)
            );
        }
        if trace_off_pass == Some(false) {
            eprintln!(
                "FAIL: tracing-off residual {:.2}% (runtime_disabled vs compiled_out) \
                 exceeds {trace_off_max}%",
                runtime_off_pct.unwrap_or(f64::NAN)
            );
        }
        std::process::exit(1);
    }
}
