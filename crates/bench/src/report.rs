//! Output formatting: aligned console tables and CSV files.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// A simple aligned text table.
///
/// # Examples
///
/// ```
/// use mems_bench::Table;
///
/// let mut t = Table::new(vec!["x".into(), "y".into()]);
/// t.row(vec!["1".into(), "2.5".into()]);
/// let s = t.render();
/// assert!(s.contains("x"));
/// assert!(s.contains("2.5"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<String>) -> Self {
        Table {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(out, "{:>width$}", cell, width = widths[i]);
                if i + 1 < cols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Writes `contents` to `results/<name>` under the workspace root, from
/// whatever directory the binary runs in (the path is fixed when the crate
/// is compiled), creating the directory if needed. Prints where the file
/// landed. Errors are reported, not fatal — the console table is the
/// primary output.
pub fn write_csv(name: &str, contents: &str) {
    let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"));
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(name);
    match fs::write(&path, contents) {
        Ok(()) => println!("[wrote {}]", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(vec!["name".into(), "value".into()]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "123456".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines are the same width.
        assert_eq!(lines[0].len(), lines[2].len().max(lines[0].len()));
        assert!(lines[3].contains("long-name"));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut t = Table::new(vec!["a".into(), "b".into()]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn ragged_row_rejected() {
        let mut t = Table::new(vec!["a".into()]);
        t.row(vec!["1".into(), "2".into()]);
    }
}
