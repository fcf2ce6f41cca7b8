//! # seqge-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md §3 for the
//! index), plus Criterion micro-benchmarks under `benches/`. This library
//! holds the shared plumbing: CLI parsing, dataset preparation, timing
//! helpers, and JSON result emission.
//!
//! Every binary accepts:
//!
//! * `--scale <f>`   — shrink datasets / edge streams for quick runs
//!   (default varies per binary; `--scale 1.0` is the full paper protocol).
//! * `--json <path>` — also write machine-readable results.
//! * `--dims a,b,c`  — override the embedding-dimension sweep.
//! * `--seed <n>`    — override the base seed.

pub mod args;
pub mod prep;
pub mod sbm_stream;
pub mod timing;

pub use args::Args;
pub use prep::{prepared_walks, PreparedGraph};
pub use sbm_stream::{SbmStream, SbmStreamParams};
pub use timing::time_walk_training;

use std::io::Write as _;
use std::path::Path;

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

/// Standard banner printed by every experiment binary.
pub fn banner(what: &str, scale: f64) {
    println!("== seqge reproduction: {what} ==");
    if (scale - 1.0).abs() > f64::EPSILON {
        println!("   (running at scale {scale}; pass --scale 1.0 for the full paper protocol)");
    }
    println!();
}
