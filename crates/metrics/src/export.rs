//! Tabular export: CSV files and aligned text tables.
//!
//! The experiment harness (crates/bench `experiments` binary) regenerates
//! every figure and table of the paper as (a) a CSV for plotting and (b)
//! an aligned table printed to stdout. Both renderers live here so the
//! formats stay consistent across all 17 experiments.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// A simple column-oriented table: a header row plus data rows of equal
/// width, all pre-formatted as strings.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append a pre-formatted row. Panics if the width disagrees with the
    /// header.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.header.len(),
            "row width {} != header width {}",
            row.len(),
            self.header.len()
        );
        self.rows.push(row);
    }

    /// Append a row of displayable cells.
    #[cfg(test)]
    pub(crate) fn row<D: std::fmt::Display>(&mut self, cells: &[D]) {
        self.push_row(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Format a float with 3 significant decimals — the house style for
    /// all experiment output.
    pub fn fmt_f64(x: f64) -> String {
        if x == 0.0 {
            "0".to_string()
        } else if x.abs() >= 100.0 {
            format!("{x:.1}")
        } else if x.abs() >= 1.0 {
            format!("{x:.2}")
        } else {
            format!("{x:.4}")
        }
    }

    /// Render as CSV (RFC-4180 quoting for cells containing commas or
    /// quotes).
    pub(crate) fn to_csv(&self) -> String {
        fn quote(cell: &str) -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        }
        let mut out = String::new();
        let header: Vec<String> = self.header.iter().map(|c| quote(c)).collect();
        let _ = writeln!(out, "{}", header.join(","));
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|c| quote(c)).collect();
            let _ = writeln!(out, "{}", cells.join(","));
        }
        out
    }

    /// Write the CSV rendering to `path`, creating parent directories.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.to_csv())
    }

    /// Render as an aligned text table with the title on top.
    pub fn to_text(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "## {}", self.title);
        }
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..ncols {
                if i > 0 {
                    line.push_str("  ");
                }
                let _ = write!(line, "{:width$}", cells[i], width = widths[i]);
            }
            line.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", render_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", render_row(row, &widths));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Fig X", &["scheme", "p90_ms"]);
        t.row(&["Capping".to_string(), "236.0".to_string()]);
        t.row(&["Anti-DOPE".to_string(), "75.3".to_string()]);
        t
    }

    #[test]
    fn csv_rendering() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "scheme,p90_ms");
        assert_eq!(lines[1], "Capping,236.0");
        assert_eq!(lines[2], "Anti-DOPE,75.3");
    }

    #[test]
    fn csv_quotes_special_cells() {
        let mut t = Table::new("q", &["a"]);
        t.row(&["x,y".to_string()]);
        t.row(&["say \"hi\"".to_string()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn text_alignment() {
        let text = sample().to_text();
        assert!(text.starts_with("## Fig X"));
        let lines: Vec<&str> = text.lines().collect();
        // header and rows align on columns
        assert!(lines[1].starts_with("scheme"));
        assert!(lines[2].chars().all(|c| c == '-'));
        assert!(lines[3].starts_with("Capping"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn width_mismatch_panics() {
        let mut t = Table::new("t", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn fmt_f64_styles() {
        assert_eq!(Table::fmt_f64(0.0), "0");
        assert_eq!(Table::fmt_f64(0.12345), "0.1235");
        assert_eq!(Table::fmt_f64(5.678), "5.68");
        assert_eq!(Table::fmt_f64(123.456), "123.5");
    }

    #[test]
    fn write_csv_roundtrip() {
        let dir = std::env::temp_dir().join("dcmetrics_export_test");
        let path = dir.join("sub/fig.csv");
        sample().write_csv(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("Anti-DOPE"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_table() {
        let t = Table::new("empty", &["a"]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.to_csv(), "a\n");
    }
}
