//! The paper's qualitative claims, asserted over the recorded
//! `Deterministic` columns of `results/*.json` (DESIGN.md §4 lists the
//! expectations). Those files are what the checked-in code produces:
//! `repro check` recomputes the seconds-class ones in tier-1
//! (`crates/bench/tests/repro.rs`) and all of them in CI's `repro-check` job.

use seqge::bench::report::{show, Table};
use seqge::bench::repro::Record;
use seqge::fpga::FpgaDevice;
use std::path::Path;

/// The `Deterministic` table of `results/<experiment>.json`.
fn recorded(experiment: &str) -> Table {
    let record = Record::read(Path::new(env!("CARGO_MANIFEST_DIR")), experiment);
    record.unwrap_or_else(|e| panic!("{e}")).report.deterministic
}

fn number(table: &Table, row: usize, column: &str) -> f64 {
    let c = table.columns.iter().position(|name| name == column);
    let c = c.unwrap_or_else(|| panic!("no column `{column}` in {:?}", table.columns));
    table.rows[row][c].as_f64().unwrap_or_else(|| panic!("`{column}` of row {row} is no number"))
}

/// Expectation 3: the proposed model is ~3–4× smaller at every Table 5 point.
#[test]
fn model_size_reduction_band() {
    let table5 = recorded("table5");
    assert_eq!(table5.rows.len(), 9, "three datasets × three dimensions");
    for row in 0..9 {
        let ratio = number(&table5, row, "reduction (x)");
        assert!((3.0..4.2).contains(&ratio), "{:?}: ratio {ratio}", table5.rows[row]);
    }
}

/// Expectation 4: the resource estimator reproduces Table 6 and everything
/// fits the device.
#[test]
fn resource_estimates_match_paper() {
    let table6 = recorded("table6");
    assert_eq!(table6.rows.len(), 3);
    for (row, (dim, bram, dsp)) in
        [(32, 183, 1379), (64, 271, 1552), (96, 272, 1573)].iter().enumerate()
    {
        let count = |column: &str| number(&table6, row, column) as u32;
        assert_eq!((count("d"), count("BRAM"), count("DSP")), (*dim, *bram, *dsp));
        assert!(FpgaDevice::XCZU7EV.fits(*bram, *dsp, count("FF"), count("LUT")), "d={dim}");
    }
}

/// Expectation: the timing model reproduces the paper's FPGA latencies.
#[test]
fn fpga_latency_matches_table3() {
    let table3 = recorded("table3");
    assert_eq!(table3.rows.len(), 3);
    for (row, (dim, paper_ms)) in [(32.0, 0.777), (64.0, 0.878), (96.0, 0.985)].iter().enumerate() {
        assert_eq!(number(&table3, row, "d"), *dim);
        let ms = number(&table3, row, "FPGA-sim ms");
        assert!((ms - paper_ms).abs() / paper_ms < 0.015, "d={dim}: {ms:.3} vs {paper_ms}");
    }
}

/// Expectation 7 (Fig. 6 shape): μ = 0.001 collapses, the plateau works,
/// and they are far apart.
#[test]
fn mu_collapse_and_plateau() {
    let fig6 = recorded("fig6");
    let cora = fig6.rows.iter().position(|row| show(&row[0]) == "cora").expect("fig6 records cora");
    let (tiny, plateau) = (number(&fig6, cora, "mu=0.001"), number(&fig6, cora, "mu=0.05"));
    assert!(plateau > tiny + 0.25, "plateau {plateau:.3} should clearly beat collapsed {tiny:.3}");
    assert!(plateau > 0.4, "plateau must recover communities: {plateau:.3}");
}

/// The fixed-point accelerator's embedding classifies about as well as the
/// float model's (Fig. 4 shape), on every recorded (dataset, d).
#[test]
fn fixed_point_embedding_close_to_float() {
    let fig4 = recorded("fig4");
    assert_eq!(fig4.rows.len(), 6, "three datasets × two dimensions");
    for row in 0..6 {
        let (f_float, f_fixed) = (number(&fig4, row, "CPU F1"), number(&fig4, row, "FPGA F1"));
        assert_eq!(number(&fig4, row, "saturations"), 0.0, "healthy training must not saturate");
        assert!(
            (f_float - f_fixed).abs() < 0.15,
            "fixed-point F1 {f_fixed:.3} should track float F1 {f_float:.3}"
        );
        assert!(f_fixed > 0.4, "fixed-point embedding must still classify: {f_fixed:.3}");
    }
}
