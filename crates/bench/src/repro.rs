//! `repro` — everything that is done with a row of [`EXPERIMENTS`]: run it
//! into `results/`, check `results/` against it, render it into
//! EXPERIMENTS.md.
//!
//! `results/<name>.json` is a [`Record`] — the `setting` it was recorded at
//! and the `report` with its `deterministic` / `wall_clock` / `notes` keys;
//! `results/<name>.txt` is the same report as aligned text under a banner.
//!
//! **What the gate compares.** Embeddings are bit-deterministic per seed,
//! but an F1 cell is not a pure function of this repository: logistic
//! regression reaches the platform `libm` through `exp`, whose last bit may
//! differ between C libraries. A cell is therefore stored rounded to the
//! decimals it is reported at (4 for F1), and [`check`] compares cells *as
//! printed* — a `Deterministic` cell differs only when a reader of the table
//! would see a different number.

use crate::experiments::{Experiment, Setting, EXPERIMENTS, SEED};
use crate::report::{show, Report};
use crate::write_json;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// `results/<name>.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// The setting the report was computed at.
    pub setting: RecordedSetting,
    /// The result.
    pub report: Report,
}

/// A [`Setting`] as written to disk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecordedSetting {
    scale: f64,
    dims: Vec<usize>,
    datasets: Vec<String>,
    seed: u64,
}

impl From<&Setting> for RecordedSetting {
    fn from(s: &Setting) -> Self {
        let datasets = s.datasets.iter().map(|d| d.short_name().to_string()).collect();
        RecordedSetting { scale: s.scale, dims: s.dims.to_vec(), datasets, seed: SEED }
    }
}

impl Record {
    /// Reads `<root>/results/<name>.json`.
    pub fn read(root: &Path, name: &str) -> Result<Record, String> {
        let path = root.join("results").join(name).with_extension("json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// "`repro run fig4` · scale 0.15 · d = [32, 64] · cora, ampt, amcp ·
    /// seed 42".
    fn setting_line(&self, name: &str) -> String {
        let s = &self.setting;
        let mut parts = vec![
            format!("`repro run {name}`"),
            format!("scale {:?}", s.scale),
            format!("d = {:?}", s.dims),
            s.datasets.join(", "),
            format!("seed {}", s.seed),
        ];
        parts.retain(|part| !part.is_empty());
        parts.join(" · ")
    }
}

/// Runs `e` at `scale` (its recorded scale when `None`), prints the text
/// rendering, and — at the recorded scale only — writes
/// `<root>/results/<name>.{txt,json}`.
pub fn run(root: &Path, e: &Experiment, scale: Option<f64>) -> std::io::Result<()> {
    let setting = Setting { scale: scale.unwrap_or(e.setting.scale), ..e.setting };
    let record = Record { setting: (&setting).into(), report: (e.run)(&setting) };
    let text = format!(
        "== seqge reproduction: {} ==\n   {}\n\n{}",
        e.title,
        record.setting_line(e.name),
        record.report.to_text()
    );
    println!("{text}");
    if setting == e.setting {
        let stem = root.join("results").join(e.name);
        write_json(&stem.with_extension("json"), &record)?;
        std::fs::write(stem.with_extension("txt"), text)?;
    } else {
        println!("(not the recorded scale {}: results/ left untouched)", e.setting.scale);
    }
    Ok(())
}

/// Every way `fresh` — `e` just recomputed at its recorded setting —
/// differs, in a `Deterministic` cell as printed, from the checked-in
/// `recorded`. `WallClock` cells and notes are not read.
pub fn drift(e: &Experiment, fresh: &Report, recorded: &Record) -> Vec<String> {
    let name = e.name;
    if recorded.setting != RecordedSetting::from(&e.setting) {
        return vec![format!("{name}: recorded at a setting other than the table's")];
    }
    let (old, new) = (&recorded.report.deterministic, &fresh.deterministic);
    let shape = |rows: &[Vec<_>]| rows.iter().map(Vec::len).collect::<Vec<_>>();
    if old.columns != new.columns || shape(&old.rows) != shape(&new.rows) {
        return vec![format!("{name}: recorded and computed tables differ in columns or rows")];
    }
    let mut out = Vec::new();
    for (i, (old_row, new_row)) in old.rows.iter().zip(&new.rows).enumerate() {
        for ((column, was), is) in old.columns.iter().zip(old_row).zip(new_row) {
            if was != is {
                out.push(format!(
                    "{name}: row {i} ({}), column `{column}`: recorded {}, computed {}",
                    show(&old_row[0]),
                    show(was),
                    show(is)
                ));
            }
        }
    }
    out
}

/// Recomputes each of `which` at its recorded setting and returns every
/// [`drift`] from `<root>/results/` (empty: the checked-in files are what
/// this code produces).
pub fn check(root: &Path, which: &[&Experiment]) -> Vec<String> {
    let one = |e: &&Experiment| match Record::read(root, e.name) {
        Ok(recorded) => drift(e, &(e.run)(&e.setting), &recorded),
        Err(err) => vec![format!("{}: {err}", e.name)],
    };
    which.iter().flat_map(one).collect()
}

/// Rewrites every `<!-- repro:<name> -->` … `<!-- /repro:<name> -->` block
/// of `<root>/EXPERIMENTS.md` from `<root>/results/<name>.json` (setting
/// line + markdown table), prose untouched. With `check_only`, writes
/// nothing and fails naming the blocks that would change.
pub fn doc(root: &Path, check_only: bool) -> Result<(), String> {
    let path = root.join("EXPERIMENTS.md");
    let mut text = std::fs::read_to_string(&path).map_err(|e| format!("EXPERIMENTS.md: {e}"))?;
    let mut stale = Vec::new();
    for e in EXPERIMENTS {
        let (open, close) =
            (format!("<!-- repro:{} -->\n", e.name), format!("<!-- /repro:{} -->", e.name));
        let missing = || format!("EXPERIMENTS.md: no `{}` … `{close}` block", open.trim_end());
        let start = text.find(&open).ok_or_else(missing)? + open.len();
        let end = start + text[start..].find(&close).ok_or_else(missing)?;
        let recorded = Record::read(root, e.name)?;
        let block =
            format!("{}\n\n{}", recorded.setting_line(e.name), recorded.report.to_markdown());
        if text[start..end] != block {
            stale.push(e.name);
            text.replace_range(start..end, &block);
        }
    }
    match (stale.is_empty(), check_only) {
        (true, _) => Ok(()),
        (false, true) => Err(format!("EXPERIMENTS.md is stale in {stale:?}: run `repro doc`")),
        (false, false) => std::fs::write(&path, text).map_err(|e| format!("EXPERIMENTS.md: {e}")),
    }
}
