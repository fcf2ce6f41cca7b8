//! The staleness gate's own tests: `results/` and EXPERIMENTS.md are what
//! the checked-in code produces, and the gate fails when they are not.

use seqge_bench::experiments::{Cost, Experiment, EXPERIMENTS};
use seqge_bench::report::{int, num, text, Cell, Report, Table};
use seqge_bench::repro::{self, Record};
use seqge_bench::write_json;
use serde_json::Value;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn experiment(name: &str) -> &'static Experiment {
    EXPERIMENTS.iter().find(|e| e.name == name).unwrap()
}

fn cell_mut<'a>(table: &'a mut Table, row: usize, column: &str) -> &'a mut Cell {
    let c = table.columns.iter().position(|name| name == column).unwrap();
    &mut table.rows[row][c]
}

/// (a) The seconds class — what `repro check` recomputes by default.
#[test]
fn checked_in_seconds_class_is_current() {
    let seconds: Vec<&Experiment> =
        EXPERIMENTS.iter().filter(|e| e.cost == Cost::Seconds).collect();
    assert!(seconds.len() >= 5, "table1, table5, table6, energy, explore");
    assert_eq!(repro::check(&root(), &seconds), Vec::<String>::new());
}

/// (b) On a temp copy: a moved `Deterministic` cell fails the check by
/// name; a moved `WallClock` cell does not.
#[test]
fn deterministic_edits_fail_by_name_and_wall_clock_edits_pass() {
    let mut record = Record::read(&root(), "table5").unwrap();
    *cell_mut(&mut record.report.deterministic, 4, "proposed MB") = Value::F64(2.037);
    let tmp = std::env::temp_dir().join(format!("seqge-repro-{}", std::process::id()));
    write_json(&tmp.join("results/table5.json"), &record).unwrap();
    let drift = repro::check(&tmp, &[experiment("table5"), experiment("table6")]);
    std::fs::remove_dir_all(&tmp).unwrap();
    assert_eq!(drift.len(), 2, "{drift:?}");
    assert_eq!(
        drift[0],
        "table5: row 4 (ampt), column `proposed MB`: recorded 2.037, computed 2.036"
    );
    assert!(drift[1].starts_with("table6: ") && drift[1].contains("table6.json"), "{drift:?}");

    // Table 3 is minutes-class (it times two models), so stand its checked-in
    // report in for the recomputed one.
    let table3 = experiment("table3");
    let checked_in = Record::read(&root(), "table3").unwrap();
    let mut edited = checked_in.clone();
    *cell_mut(&mut edited.report.wall_clock, 0, "orig A53* ms") = Value::F64(123.456);
    edited.report.notes.clear();
    assert_eq!(repro::drift(table3, &checked_in.report, &edited), Vec::<String>::new());
    *cell_mut(&mut edited.report.deterministic, 2, "FPGA-sim ms") = Value::F64(0.9);
    assert_eq!(
        repro::drift(table3, &checked_in.report, &edited),
        ["table3: row 2 (96), column `FPGA-sim ms`: recorded 0.9, computed 0.995"]
    );
    edited.report.deterministic.rows.pop();
    assert_eq!(repro::drift(table3, &checked_in.report, &edited).len(), 1, "a lost row is drift");
    edited = checked_in.clone();
    edited.setting = (&experiment("fig4").setting).into();
    assert_eq!(
        repro::drift(table3, &checked_in.report, &edited),
        ["table3: recorded at a setting other than the table's"]
    );
}

/// (c) No orphans either way: every `results/` file belongs to a row of the
/// table, every row has its two files, and EXPERIMENTS.md's markers are the
/// table's names.
#[test]
fn results_markers_and_table_name_the_same_experiments() {
    let table: BTreeSet<String> = EXPERIMENTS.iter().map(|e| e.name.to_string()).collect();
    assert_eq!(table.len(), EXPERIMENTS.len(), "names are unique");
    let stems = |ext: &str| -> BTreeSet<String> {
        let files = std::fs::read_dir(root().join("results")).unwrap().map(|f| f.unwrap().path());
        files
            .filter(|p| p.extension().is_some_and(|e| e == ext))
            .map(|p| p.file_stem().unwrap().to_str().unwrap().to_string())
            .filter(|s| s != "bench_cluster")
            .collect()
    };
    assert_eq!(stems("json"), table);
    assert_eq!(stems("txt"), table);
    let doc = std::fs::read_to_string(root().join("EXPERIMENTS.md")).unwrap();
    let markers: BTreeSet<String> = doc
        .split("<!-- repro:")
        .skip(1)
        .map(|rest| rest.split(" -->").next().unwrap().to_string())
        .collect();
    assert_eq!(markers, table);
}

/// (d) EXPERIMENTS.md's tables are the rendering of `results/`.
#[test]
fn experiments_md_is_current() {
    assert_eq!(repro::doc(&root(), true), Ok(()));
}

/// (e) A report survives its JSON text — cells, notes and which columns are
/// `Deterministic` — and so renders the same text and markdown afterwards.
#[test]
fn report_round_trips_with_column_kinds() {
    let mut report = Report::new(["dataset", "d", "F1"]).timed(&["host ms", "speedup (x)"]);
    report.row(vec![text("cora"), int(32u32), num(0.84126, 4), num(0.4432, 3), num(1.0, 2)]);
    report.row(vec![text("ampt"), int(64u32), num(-0.00001, 4), num(12.5, 3), num(18.849, 2)]);
    report.note("(paper: β-reuse is load-bearing)");
    let json = serde_json::to_string_pretty(&report).unwrap();
    let back: Report = serde_json::from_str(&json).unwrap();
    assert_eq!(back, report);
    assert_eq!(back.deterministic.columns, ["dataset", "d", "F1"]);
    assert_eq!(back.wall_clock.columns, ["host ms", "speedup (x)"]);
    assert_eq!(back.wall_clock.rows[1], [Value::F64(12.5), Value::F64(18.85)]);
    assert_eq!(back.to_text(), report.to_text());
    assert_eq!(
        back.to_markdown(),
        "| dataset | d | F1 | host ms | speedup (x) |\n|---|---|---|---|---|\n\
         | cora | 32 | 0.8413 | 0.443 | 1.00 |\n| ampt | 64 | 0.0000 | 12.500 | 18.85 |\n"
    );
}
