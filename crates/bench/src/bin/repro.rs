//! `repro` — the reproduction's one entry point (see `seqge_bench::repro`).
//!
//! ```text
//! repro run <name…|all> [--scale f]   recorded setting → results/<name>.{txt,json};
//!                                     any other scale prints and writes nothing
//! repro check [--all]                 recompute, fail on any Deterministic cell that
//!                                     differs from results/ (seconds class; --all: every row)
//! repro doc [--check]                 regenerate EXPERIMENTS.md's tables from results/
//! ```
//!
//! Run from the workspace root: `results/` and EXPERIMENTS.md are relative
//! to the working directory.

use seqge_bench::experiments::{Cost, Experiment, EXPERIMENTS};
use seqge_bench::repro;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str =
    "usage: repro run <name…|all> [--scale <f in (0,1]>] | check [--all] | doc [--check]";

fn run(root: &Path, mut args: &[&str]) -> Result<(), String> {
    let mut scale = None;
    if let [rest @ .., "--scale", value] = args {
        let f: f64 = value.parse().map_err(|_| USAGE)?;
        if !(f > 0.0 && f <= 1.0) {
            return Err("--scale must be in (0, 1]".into());
        }
        (scale, args) = (Some(f), rest);
    }
    let mut which: Vec<&Experiment> = Vec::new();
    for &name in args {
        match (name, EXPERIMENTS.iter().find(|e| e.name == name)) {
            ("all", _) => which.extend(EXPERIMENTS),
            (_, Some(e)) => which.push(e),
            (_, None) => {
                let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
                return Err(format!("unknown experiment `{name}` (known: {})", known.join(", ")));
            }
        }
    }
    if which.is_empty() {
        return Err(USAGE.into());
    }
    which
        .iter()
        .try_for_each(|e| repro::run(root, e, scale).map_err(|err| format!("{}: {err}", e.name)))
}

fn check(root: &Path, all: bool) -> Result<(), String> {
    let which: Vec<&Experiment> =
        EXPERIMENTS.iter().filter(|e| all || e.cost == Cost::Seconds).collect();
    let drift = repro::check(root, &which);
    if drift.is_empty() {
        println!("repro check: {} experiments match results/", which.len());
        return Ok(());
    }
    Err(format!("{}\nrepro check: results/ is not what this code produces", drift.join("\n")))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let root = Path::new(".");
    let outcome = match args.as_slice() {
        ["run", rest @ ..] => run(root, rest),
        ["check"] => check(root, false),
        ["check", "--all"] => check(root, true),
        ["doc"] => repro::doc(root, false),
        ["doc", "--check"] => repro::doc(root, true),
        _ => Err(USAGE.into()),
    };
    if let Err(message) = &outcome {
        eprintln!("{message}");
    }
    if outcome.is_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
