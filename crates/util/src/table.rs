//! Plain-text table emitters (Markdown and CSV).
//!
//! Every `paba figure` table prints the same rows/series the paper's
//! figure or table reports. A tiny hand-rolled builder keeps the output
//! dependency-free and lets us emit both a human-readable Markdown table
//! and machine-readable CSV (for replotting, under `--csv`).

use std::fmt::Write as _;

/// Column alignment for Markdown rendering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Align {
    /// Left-aligned (`:---`).
    Left,
    /// Right-aligned (`---:`), the default for numeric columns.
    Right,
    /// Centered (`:--:`).
    Center,
}

/// An in-memory table of strings with typed helpers for numeric cells.
#[derive(Clone, Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers (right-aligned).
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        let headers: Vec<String> = headers.into_iter().map(Into::into).collect();
        let aligns = vec![Align::Right; headers.len()];
        Self {
            headers,
            aligns,
            rows: Vec::new(),
        }
    }

    /// Override column alignments (length must match the header count).
    pub fn with_aligns(mut self, aligns: Vec<Align>) -> Self {
        assert_eq!(aligns.len(), self.headers.len(), "alignment arity mismatch");
        self.aligns = aligns;
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append a row of preformatted cells. Panics on arity mismatch.
    pub fn push_row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Render as a GitHub-flavoured Markdown table.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        // The separator needs at least 3 dashes plus alignment colons.
        for w in widths.iter_mut() {
            *w = (*w).max(4);
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String], aligns: &[Align]| {
            out.push('|');
            for ((cell, &w), &a) in cells.iter().zip(widths.iter()).zip(aligns.iter()) {
                match a {
                    Align::Left => {
                        let _ = write!(out, " {cell:<w$} |");
                    }
                    Align::Right => {
                        let _ = write!(out, " {cell:>w$} |");
                    }
                    Align::Center => {
                        let _ = write!(out, " {cell:^w$} |");
                    }
                }
            }
            out.push('\n');
        };
        render_row(&mut out, &self.headers, &self.aligns);
        out.push('|');
        for (&w, &a) in widths.iter().zip(self.aligns.iter()) {
            let bar = match a {
                Align::Left => format!(":{}", "-".repeat(w)),
                Align::Right => format!("{}:", "-".repeat(w)),
                Align::Center => format!(":{}:", "-".repeat(w - 1)),
            };
            let _ = write!(out, " {bar} |");
        }
        out.push('\n');
        for row in &self.rows {
            render_row(&mut out, row, &self.aligns);
        }
        out
    }

    /// Render as RFC-4180-ish CSV (quotes cells containing `,`, `"`, `\n`).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |cell: &str| -> String {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let write_row = |cells: &[String], out: &mut String| {
            let line: Vec<String> = cells.iter().map(|c| esc(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        };
        write_row(&self.headers, &mut out);
        for row in &self.rows {
            write_row(row, &mut out);
        }
        out
    }
}

/// Format a float with `digits` significant decimal places, trimming to a
/// compact form (keeps table output readable).
pub fn fmt_f64(x: f64, digits: usize) -> String {
    if !x.is_finite() {
        return format!("{x}");
    }
    format!("{x:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(["n", "max load", "note"]).with_aligns(vec![
            Align::Right,
            Align::Right,
            Align::Left,
        ]);
        t.push_row(["100", "4.31", "ok"]);
        t.push_row(["2025", "6.02", "has, comma"]);
        t
    }

    #[test]
    fn markdown_shape() {
        let md = sample().to_markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("max load"));
        assert!(lines[1].contains("---:"), "{}", lines[1]);
        assert!(lines[1].contains(":---"), "{}", lines[1]);
        assert!(lines[3].contains("6.02"));
        // All rows have the same rendered width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[0].len(), lines[3].len());
    }

    #[test]
    fn csv_escaping() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "n,max load,note");
        assert_eq!(lines[2], "2025,6.02,\"has, comma\"");
    }

    #[test]
    fn csv_quote_doubling() {
        let mut t = Table::new(["a"]);
        t.push_row(["say \"hi\""]);
        assert!(t.to_csv().contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        let mut t = Table::new(["a", "b"]);
        t.push_row(["only one"]);
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = Table::new(["x"]);
        assert!(t.is_empty());
        assert_eq!(t.to_markdown().lines().count(), 2);
        assert_eq!(t.to_csv().lines().count(), 1);
    }

    #[test]
    fn fmt_f64_behaviour() {
        assert_eq!(fmt_f64(1.23456, 2), "1.23");
        assert_eq!(fmt_f64(f64::NAN, 2), "NaN");
        assert_eq!(fmt_f64(2.0, 0), "2");
    }
}
