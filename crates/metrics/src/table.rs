//! Plain-text table rendering for the benchmark harness.
//!
//! Every experiment binary prints its results in the paper's table layout,
//! side by side with the paper's published numbers; this module does the
//! column alignment.

use std::fmt;

/// Horizontal alignment of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Align {
    /// Left-aligned (labels).
    #[default]
    Left,
    /// Right-aligned (numbers).
    Right,
}

/// A simple text table with a header row.
///
/// # Examples
///
/// ```
/// use netbatch_metrics::table::Table;
///
/// let mut t = Table::new(["strategy", "AvgCT"]);
/// t.row(["NoRes", "2498.7"]);
/// t.row(["ResSusUtil", "1265.4"]);
/// let text = t.render();
/// assert!(text.contains("ResSusUtil"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers. The first column is
    /// left-aligned, the rest right-aligned (label + numbers convention).
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        let headers: Vec<String> = headers.into_iter().map(Into::into).collect();
        assert!(!headers.is_empty(), "a table needs at least one column");
        let aligns = std::iter::once(Align::Left)
            .chain(std::iter::repeat(Align::Right))
            .take(headers.len())
            .collect();
        Table {
            headers,
            aligns,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the column count.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match column count"
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no data rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                w[i] = w[i].max(cell.len());
            }
        }
        w
    }

    /// Renders the table as aligned plain text with a separator under the
    /// header.
    pub fn render(&self) -> String {
        let widths = self.widths();
        let mut out = String::new();
        self.render_line(&mut out, &self.headers, &widths);
        let total: usize = widths.iter().sum::<usize>() + 3 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            self.render_line(&mut out, row, &widths);
        }
        out
    }

    /// Renders the table as GitHub-flavoured markdown.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}|\n",
            self.aligns
                .iter()
                .map(|a| match a {
                    Align::Left => "---",
                    Align::Right => "---:",
                })
                .collect::<Vec<_>>()
                .join("|")
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    fn render_line(&self, out: &mut String, cells: &[String], widths: &[usize]) {
        let line: Vec<String> = cells
            .iter()
            .zip(widths)
            .zip(&self.aligns)
            .map(|((c, &w), a)| match a {
                Align::Left => format!("{c:<w$}"),
                Align::Right => format!("{c:>w$}"),
            })
            .collect();
        out.push_str(line.join("   ").trim_end());
        out.push('\n');
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Formats minutes with one decimal, the paper's number style.
pub fn fmt_minutes(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats a fraction as a percentage with two decimals (e.g. `1.14%`).
pub fn fmt_percent(fraction: f64) -> String {
    format!("{:.2}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(["name", "value"]);
        t.row(["a", "1"]).row(["longer", "12345"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a"));
        // Right-aligned number column.
        assert!(lines[2].ends_with("1"));
        assert!(lines[3].ends_with("12345"));
    }

    #[test]
    fn markdown_output() {
        let mut t = Table::new(["s", "x"]);
        t.row(["NoRes", "1.0"]);
        let md = t.render_markdown();
        assert!(md.starts_with("| s | x |"));
        assert!(md.contains("|---|---:|"));
        assert!(md.contains("| NoRes | 1.0 |"));
    }

    #[test]
    fn display_matches_render() {
        let mut t = Table::new(["a"]);
        t.row(["b"]);
        assert_eq!(t.to_string(), t.render());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        Table::new(["a", "b"]).row(["only-one"]);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(fmt_minutes(2498.66), "2498.7");
        assert_eq!(fmt_percent(0.0114), "1.14%");
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = Table::new(["h1", "h2"]);
        assert!(t.is_empty());
        assert_eq!(t.render().lines().count(), 2);
    }
}
