//! Text tables and CSV emission for the experiment binaries.

use crate::cli::Cli;
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

/// A simple aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    #[must_use]
    pub fn new(title: &str, header: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            header: header.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// The table as CSV (header + rows).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.header
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

/// The directory every bench binary writes its artifacts into, relative
/// to the working directory (the workspace root under `cargo run`):
/// `results/` for a full-size run, `results/quick/` for a `--quick` one.
/// The committed `results/` are full-size runs, so a quick run writes
/// where it can never overwrite one.
#[must_use]
pub fn results_dir(cli: &Cli) -> PathBuf {
    let root = PathBuf::from("results");
    if cli.quick {
        root.join("quick")
    } else {
        root
    }
}

/// Writes `contents` to `<results_dir(cli)>/<file_name>`, creating the
/// directory if needed, and returns the path written.
///
/// # Errors
///
/// Returns any I/O error from directory creation or the write.
pub fn write_result(
    cli: &Cli,
    file_name: &str,
    contents: impl AsRef<[u8]>,
) -> std::io::Result<PathBuf> {
    let dir = results_dir(cli);
    fs::create_dir_all(&dir)?;
    let path = dir.join(file_name);
    fs::write(&path, contents)?;
    Ok(path)
}

/// Writes a table as CSV to `<results_dir(cli)>/<name>.csv`.
///
/// # Errors
///
/// Returns any I/O error from directory creation or the write.
pub fn write_csv(cli: &Cli, table: &Table, name: &str) -> std::io::Result<PathBuf> {
    write_result(cli, &format!("{name}.csv"), table.to_csv())
}

/// Formats a millisecond value compactly.
#[must_use]
pub fn fmt_ms(ms: f64) -> String {
    if ms >= 1000.0 {
        format!("{:.2} s", ms / 1000.0)
    } else {
        format!("{ms:.1} ms")
    }
}

/// Formats a rate as a percentage.
#[must_use]
pub fn fmt_pct(rate: f64) -> String {
    format!("{:.1}%", rate * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Demo", &["sys", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer-name".into(), "2".into()]);
        let r = t.render();
        assert!(r.contains("## Demo"));
        assert!(r.contains("longer-name"));
        // Column alignment: both value cells start at the same offset.
        let lines: Vec<&str> = r.lines().collect();
        let idx1 = lines[3].find('1').unwrap();
        let idx2 = lines[4].find('2').unwrap();
        assert_eq!(idx1, idx2);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_panics() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("Demo", &["name", "v"]);
        t.row(vec!["a,b".into(), "quo\"te".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"quo\"\"te\""));
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_ms(12.34), "12.3 ms");
        assert_eq!(fmt_ms(2345.0), "2.35 s");
        assert_eq!(fmt_pct(0.756), "75.6%");
    }
}
