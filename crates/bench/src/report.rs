//! The one result shape every experiment returns, and its three renderings.
//!
//! A [`Report`] is rows of cells under two groups of columns:
//! **`Deterministic`** (F1, AUC, counts, cycles, resources, modelled ms,
//! paper constants — a pure function of the code and the seed) and
//! **`WallClock`** (host ms and the speedups derived from them — a property
//! of the box and the minute). `repro check` gates the first group and never
//! reads the second.
//!
//! A cell *is* a JSON scalar — a string, an integer, or a float already
//! rounded to the decimals it is reported at — so the aligned text a reader
//! sees, the markdown in EXPERIMENTS.md, the JSON on disk and the value the
//! gate compares are one thing, and a report read back from its (derived)
//! JSON renders identically.

use serde::{Deserialize, Serialize};
use serde_json::Value;

/// One table cell: `Value::Str`, `Value::U64` or a rounded `Value::F64`.
pub type Cell = Value;

/// A text cell.
pub fn text(s: impl Into<String>) -> Cell {
    Value::Str(s.into())
}

/// An integer cell (counts, cycles, resources).
pub fn int<T: TryInto<u64>>(n: T) -> Cell {
    Value::U64(n.try_into().ok().expect("counts fit u64"))
}

/// A float cell rounded to `decimals`: the stored value is the printed one.
pub fn num(x: f64, decimals: usize) -> Cell {
    assert!(x.is_finite(), "non-finite cell: report it as text");
    let printed: f64 = format!("{x:.decimals$}").parse().expect("a formatted float parses");
    Value::F64(printed + 0.0) // −0.0 → 0.0
}

/// A cell as it is printed: strings bare, numbers as their JSON literal.
pub fn show(cell: &Cell) -> String {
    match cell {
        Value::Str(s) => s.clone(),
        other => serde_json::to_string(other).expect("scalars serialize"),
    }
}

/// One group of columns and its cells, row by row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// Column names.
    pub columns: Vec<String>,
    /// One `Vec` of `columns.len()` cells per row.
    pub rows: Vec<Vec<Cell>>,
}

/// Rows of cells under `Deterministic` columns followed by `WallClock`
/// columns, plus free-text notes (paper reference values, caveats). Its
/// JSON is the derived one: the two kinds under separate keys.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// What `repro check` gates.
    pub deterministic: Table,
    /// What it never reads; same number of rows.
    pub wall_clock: Table,
    /// Lines printed under the table.
    pub notes: Vec<String>,
}

impl Report {
    /// An empty report under the given `Deterministic` columns.
    pub fn new<S: Into<String>>(deterministic: impl IntoIterator<Item = S>) -> Self {
        let columns = deterministic.into_iter().map(Into::into).collect();
        Report {
            deterministic: Table { columns, rows: Vec::new() },
            wall_clock: Table { columns: Vec::new(), rows: Vec::new() },
            notes: Vec::new(),
        }
    }

    /// Adds the `WallClock` columns (before any row).
    pub fn timed(mut self, wall_clock: &[&str]) -> Self {
        self.wall_clock.columns = wall_clock.iter().map(|c| c.to_string()).collect();
        self
    }

    /// Appends a row: the deterministic cells, then the wall-clock cells.
    pub fn row(&mut self, mut cells: Vec<Cell>) {
        let (det, wall) = (self.deterministic.columns.len(), self.wall_clock.columns.len());
        assert_eq!(cells.len(), det + wall, "row width");
        self.wall_clock.rows.push(cells.split_off(det));
        self.deterministic.rows.push(cells);
    }

    /// Appends a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Header and rows as printed. Within a column every float is padded to
    /// the column's longest fractional part ("11.750" under "21.123"), which
    /// never changes a value: cells are already rounded.
    fn printed(&self) -> Vec<Vec<String>> {
        let (det, wall) = (&self.deterministic, &self.wall_clock);
        let rows: Vec<Vec<&Cell>> =
            det.rows.iter().zip(&wall.rows).map(|(d, w)| d.iter().chain(w).collect()).collect();
        let decimals = |cell: &Cell| match cell {
            Value::F64(_) => show(cell).split_once('.').map_or(0, |(_, frac)| frac.len()),
            _ => 0,
        };
        let widest: Vec<usize> = (0..det.columns.len() + wall.columns.len())
            .map(|c| rows.iter().map(|row| decimals(row[c])).max().unwrap_or(0))
            .collect();
        let print = |(cell, &d): (&&Cell, &usize)| match cell {
            Value::F64(x) => format!("{x:.d$}"),
            other => show(other),
        };
        std::iter::once(det.columns.iter().chain(&wall.columns).cloned().collect())
            .chain(rows.iter().map(|row| row.iter().zip(&widest).map(print).collect()))
            .collect()
    }

    /// Aligned plain text: header, rule, rows, then the notes.
    pub fn to_text(&self) -> String {
        let printed = self.printed();
        let width: Vec<usize> = (0..printed[0].len())
            .map(|c| printed.iter().map(|row| row[c].chars().count()).max().unwrap_or(0))
            .collect();
        let align = |row: &Vec<String>| -> String {
            let cells: Vec<String> =
                row.iter().zip(&width).map(|(c, &w)| format!("{c:>w$}")).collect();
            cells.join("  ")
        };
        let mut lines: Vec<String> = printed.iter().map(align).collect();
        lines.insert(1, "-".repeat(width.iter().sum::<usize>() + 2 * (width.len() - 1)));
        lines.extend(self.notes.iter().cloned());
        lines.join("\n") + "\n"
    }

    /// A GitHub-flavoured markdown table (notes are not part of it).
    pub fn to_markdown(&self) -> String {
        let printed = self.printed();
        let mut lines: Vec<String> =
            printed.iter().map(|row| format!("| {} |\n", row.join(" | "))).collect();
        lines.insert(1, format!("|{}\n", "---|".repeat(printed[0].len())));
        lines.concat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Report::new(["name", "value"]).timed(&["ms"]);
        t.row(vec![text("a"), int(1u32), num(0.5, 3)]);
        t.row(vec![text("longer"), int(22u32), num(12.125, 3)]);
        t.note("(a note)");
        let out = t.to_text();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].contains("name"));
        assert_eq!(lines[1], "-".repeat(lines[0].len()));
        // Right-aligned: the short name is padded, the short float too.
        assert_eq!(lines[2], "     a      1   0.500");
        assert_eq!(lines[3], "longer     22  12.125");
        assert_eq!(lines[4], "(a note)");
    }

    #[test]
    fn formatters() {
        // A cell holds the printed value, not the computed one.
        assert_eq!(num(0.7774, 3), Value::F64(0.777));
        assert_eq!(num(58.654, 2), Value::F64(58.65));
        assert_eq!(show(&num(45.504, 2)), "45.5");
        assert_eq!(show(&num(-0.00004, 4)), "0.0");
        assert_eq!(show(&int(10_392_663u64)), "10392663");
        assert_eq!(show(&text("diverged")), "diverged");
    }
}
