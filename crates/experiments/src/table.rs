//! Plain-text/markdown table rendering for experiment output.

use dirca_mac::Scheme;
use dirca_stats::Summary;

/// A simple left-padded markdown table builder.
///
/// # Example
///
/// ```
/// use dirca_experiments::table::Table;
///
/// let mut t = Table::new(vec!["θ".into(), "throughput".into()]);
/// t.row(vec!["30°".into(), "0.42".into()]);
/// let text = t.render();
/// assert!(text.contains("| θ"));
/// assert!(text.contains("0.42"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `header` is empty.
    pub fn new(header: Vec<String>) -> Self {
        assert!(!header.is_empty(), "a table needs at least one column");
        Table {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's width differs from the header's.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} != header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned markdown.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (i, cell) in cells.iter().enumerate() {
                let pad = widths[i] - cell.chars().count();
                line.push(' ');
                line.push_str(cell);
                line.push_str(&" ".repeat(pad + 1));
                line.push('|');
            }
            line.push('\n');
            line
        };
        out.push_str(&render_row(&self.header, &widths));
        out.push('|');
        for w in &widths {
            out.push_str(&"-".repeat(w + 2));
            out.push('|');
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
        }
        out
    }
}

/// A table whose first column is `axis` and whose others are the three
/// schemes, in [`Scheme::ALL`] order.
pub fn scheme_table(axis: String) -> Table {
    let mut header = vec![axis];
    header.extend(Scheme::ALL.iter().map(Scheme::to_string));
    Table::new(header)
}

/// Formats `summary` as `mean [min, max]`, the way the paper's
/// range-whisker plots read, or `n/a` when it holds no sample.
pub fn mean_range(summary: &Summary, decimals: usize) -> String {
    match (summary.mean(), summary.min(), summary.max()) {
        (Some(mean), Some(min), Some(max)) => {
            format!("{mean:.decimals$} [{min:.decimals$}, {max:.decimals$}]")
        }
        _ => "n/a".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new(vec!["a".into(), "long header".into()]);
        t.row(vec!["123456".into(), "x".into()]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        // All lines equal length (alignment).
        assert_eq!(lines[0].len(), lines[1].len());
        assert_eq!(lines[0].len(), lines[2].len());
        assert!(lines[1].starts_with("|-"));
    }

    #[test]
    fn tracks_row_count() {
        let mut t = Table::new(vec!["x".into()]);
        assert!(t.is_empty());
        t.row(vec!["1".into()]);
        t.row(vec!["2".into()]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = Table::new(vec!["a".into(), "b".into()]);
        t.row(vec!["only one".into()]);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn rejects_empty_header() {
        let _ = Table::new(vec![]);
    }

    #[test]
    fn mean_range_formats() {
        let mut summary = Summary::new();
        for x in [0.25, 0.5, 0.75] {
            summary.push(x);
        }
        assert_eq!(mean_range(&summary, 2), "0.50 [0.25, 0.75]");
        assert_eq!(mean_range(&Summary::new(), 2), "n/a");
    }
}
