//! Noise measurements of the benchmark itself, each run a fresh child
//! process of this binary:
//!
//! * `selftest` — the whole benchmark as interleaved sets of the same code
//!   on the same seed (A B A B …), on the default seed and on seed 11; per
//!   metric × workload, the sets' medians, their relative gap, and the bound
//!   `BENCHMARK.json` declares. A gap is pure noise: same code, same inputs.
//! * `spread` — the driver's acceptance procedure: each workload once per
//!   seed, and per metric the interquartile range of the values over their
//!   median, against the bound.

use crate::workload::WORKLOADS;
use crate::{stats, Gate};
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::Command;

/// Metric name → value, from one run's result line; the timings as timed
/// (before scaling to the quiet box's speed) under `raw:<name>`.
type Metrics = BTreeMap<String, f64>;

fn values(object: &Value, prefix: &str, into: &mut Metrics) -> Gate<()> {
    let Value::Object(metrics) = object else {
        return Err("metrics are not an object".to_string());
    };
    for (name, m) in metrics {
        let v = m.get("value").and_then(Value::as_f64).ok_or(format!("{name}: no value"))?;
        into.insert(format!("{prefix}{name}"), v);
    }
    Ok(())
}

fn run_child(workload: &str, seed: u64, seconds: u64) -> Gate<Metrics> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let (stdout, stderr) =
        (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    let value: Value = serde_json::from_str(line).map_err(|e| format!("result line: {e}"))?;
    let mut metrics = Metrics::new();
    values(value.get("metrics").ok_or("result line has no metrics")?, "", &mut metrics)?;
    let raw =
        stderr.lines().find_map(|l| l.strip_prefix("as timed: ")).ok_or("no `as timed` line")?;
    let raw: Value = serde_json::from_str(raw).map_err(|e| format!("`as timed` line: {e}"))?;
    values(&raw, "raw:", &mut metrics)?;
    Ok(metrics)
}

/// `end_to_end` of `BENCHMARK.json` (beside the package): name → (bound,
/// whether higher is better), in file order.
fn declared() -> Gate<Vec<(String, f64, bool)>> {
    let path = crate::manifest_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc.get("end_to_end").and_then(Value::as_array).ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str).ok_or("metric without a name")?;
            let bound = m.get("bound").and_then(Value::as_f64).ok_or("metric without a bound")?;
            let higher = m.get("better").and_then(Value::as_str) == Some("higher");
            Ok((name.to_string(), bound, higher))
        })
        .collect()
}

fn flag(argv: &[String], name: &str, default: u64) -> Gate<u64> {
    match argv.iter().position(|a| a == name) {
        None => Ok(default),
        Some(i) => argv
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{name} needs a whole number")),
    }
}

fn column(runs: &[Metrics], name: &str) -> Gate<Vec<f64>> {
    runs.iter().map(|m| m.get(name).copied().ok_or(format!("a run lacks {name}"))).collect()
}

/// `benchmark selftest [--sets n] [--runs n] [--seconds s]`.
pub fn run(argv: &[String]) -> Gate<()> {
    let (sets, runs) = (flag(argv, "--sets", 2)? as usize, flag(argv, "--runs", 5)?);
    let seconds = flag(argv, "--seconds", crate::DEFAULT_SECONDS)?;
    let declared = declared()?;
    println!(
        "selftest: {sets} interleaved sets x {runs} runs, {seconds} s each, same code and seed"
    );
    println!(
        "{:<12} {:>4} {:<20} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "seed", "metric", "median A", "median B", "gap", "bound"
    );
    let mut worst: BTreeMap<String, f64> = BTreeMap::new();
    for seed in [crate::DEFAULT_SEED, 11] {
        for w in &WORKLOADS {
            let mut by_set: Vec<Vec<Metrics>> = vec![Vec::new(); sets];
            for _ in 0..runs {
                for set in by_set.iter_mut() {
                    set.push(run_child(w.name, seed, seconds)?);
                }
            }
            for (name, bound, higher) in &declared {
                let medians: Vec<f64> = by_set
                    .iter()
                    .map(|set| column(set, name).map(|mut v| stats::median(&mut v)))
                    .collect::<Gate<_>>()?;
                // How much worse the worst set's median is than the best's.
                let lo = medians.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = medians.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let gap = if *higher { (hi - lo) / hi } else { (hi - lo) / lo };
                let w_gap = worst.entry(name.clone()).or_default();
                *w_gap = w_gap.max(gap);
                println!(
                    "{:<12} {:>4} {:<20} {:>12.5} {:>12.5} {:>7.2}% {:>5.0}%  {}",
                    w.name,
                    seed,
                    name,
                    medians[0],
                    medians[sets - 1],
                    gap * 100.0,
                    bound * 100.0,
                    if gap <= *bound { "ok" } else { "EXCEEDS" }
                );
            }
        }
    }
    println!("\nlargest same-code gap per metric, and the bound it must stay under:");
    for (name, bound, _) in &declared {
        println!("{name:<20} {:>7.2}%  bound {:>3.0}%", worst[name] * 100.0, bound * 100.0);
    }
    Ok(())
}

/// `benchmark spread [--seeds n] [--seconds s]`.
pub fn spread(argv: &[String]) -> Gate<()> {
    let seeds = flag(argv, "--seeds", 10)?;
    let seconds = flag(argv, "--seconds", crate::DEFAULT_SECONDS)?;
    let declared = declared()?;
    println!(
        "spread: seeds 1..={seeds}, {seconds} s each; (Q3 - Q1) / median per metric, and the same"
    );
    println!("for the timings before scaling to the quiet box's speed (`as timed`)");
    println!(
        "{:<12} {:<20} {:>12} {:>8} {:>6} {:>9}  verdict",
        "workload", "metric", "median", "spread", "bound", "as timed"
    );
    for w in &WORKLOADS {
        let runs: Vec<Metrics> =
            (1..=seeds).map(|seed| run_child(w.name, seed, seconds)).collect::<Gate<_>>()?;
        for (name, bound, _) in &declared {
            let mut v = column(&runs, name)?;
            let (spread, median) = (stats::quartile_spread(&mut v), stats::median(&mut v));
            let as_timed = column(&runs, &format!("raw:{name}"))
                .map_or("-".to_string(), |mut v| {
                    format!("{:.2}%", 100.0 * stats::quartile_spread(&mut v))
                });
            // `setup_s` is exempt from the spread rule.
            let verdict = if spread <= *bound || name == "setup_s" { "ok" } else { "EXCEEDS" };
            println!(
                "{:<12} {:<20} {:>12.5} {:>7.2}% {:>5.0}% {as_timed:>9}  {verdict}",
                w.name,
                name,
                median,
                spread * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(())
}
