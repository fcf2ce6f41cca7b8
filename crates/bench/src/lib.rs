//! # seqge-bench — the experiment harness
//!
//! One `repro` binary over one table of experiments: every table and figure
//! of the paper (plus the energy, design-space and ablation extensions) is a
//! module under [`experiments`] returning a [`report::Report`], and
//! [`repro`] runs a row into `results/`, checks `results/` against the code,
//! and renders EXPERIMENTS.md's tables (DESIGN.md §3 has the index).
//! Criterion micro-benchmarks live under `benches/`; `bench_cluster` is the
//! one serving-side measurement binary (the cluster floor of
//! `scripts/bench_gate.sh`).

#![forbid(unsafe_code)]

pub mod experiments;
pub mod prep;
pub mod report;
pub mod repro;
pub mod sbm_stream;
pub mod timing;

pub use prep::{prepared_walks, PreparedGraph};
pub use sbm_stream::{SbmStream, SbmStreamParams};
pub use timing::time_walk_training;

use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Writes `value` as pretty JSON to `path` (creating parent directories).
pub fn write_json<T: serde::Serialize>(path: &Path, value: &T) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::fs::File::create(path)?;
    let s = serde_json::to_string_pretty(value).expect("results are serializable");
    f.write_all(s.as_bytes())?;
    f.write_all(b"\n")?;
    Ok(())
}

/// Banner and `--scale <f in (0,1]>` / `--json <path>` of `bench_cluster`:
/// the scale to run at and where to write the record.
pub fn bench_args(what: &str, default_scale: f64, default_json: &str) -> (f64, PathBuf) {
    let (mut scale, mut json) = (default_scale, PathBuf::from(default_json));
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| panic!("missing value for {flag}"));
        match flag.as_str() {
            "--scale" => scale = value.parse().expect("--scale expects a float"),
            "--json" => json = PathBuf::from(value),
            other => panic!("unknown argument: {other} (flags: --scale <f> --json <path>)"),
        }
    }
    assert!(scale > 0.0 && scale <= 1.0, "--scale must be in (0, 1]");
    println!("== seqge reproduction: {what} ==");
    println!("   (running at scale {scale})");
    println!();
    (scale, json)
}
