//! Result tables and paper-reference formatting shared by all experiments.

use std::fmt::Write as _;

/// A simple column-oriented result table rendered as GitHub-flavoured markdown.
///
/// Every experiment produces one or more `Table`s containing the *measured* values of
/// this reproduction next to the values the paper reports, so `exp all` regenerates
/// the whole paper-vs-measured record mechanically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Table title (e.g. "Figure 7 — Pc vs τ_l").
    pub title: String,
    /// One paragraph of context: workload, parameters, what the paper observed.
    pub caption: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of cells, all stringified.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, caption: impl Into<String>, columns: &[&str]) -> Self {
        Self {
            title: title.into(),
            caption: caption.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. The row is padded / truncated to the number of columns.
    pub fn push_row(&mut self, cells: Vec<String>) {
        let mut cells = cells;
        cells.resize(self.columns.len(), String::new());
        self.rows.push(cells);
    }

    /// Renders the table as markdown (title, caption, header, rows).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {}\n", self.title);
        if !self.caption.is_empty() {
            let _ = writeln!(out, "{}\n", self.caption);
        }
        let _ = writeln!(out, "| {} |", self.columns.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.columns
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }
}

/// Formats a fraction in `[0, 1]` as a percentage with one decimal, the way the
/// paper's tables print precision values.
pub(crate) fn pct(fraction: f64) -> String {
    format!("{:.1}", fraction * 100.0)
}

/// Formats a duration in milliseconds with one decimal.
pub(crate) fn millis(duration: std::time::Duration) -> String {
    format!("{:.1}", duration.as_secs_f64() * 1_000.0)
}

/// Formats the paper's `Pc|Pf|Po` triple-cell notation.
pub(crate) fn triple(pc: f64, pf: f64, po: f64) -> String {
    format!("{:.0}|{:.0}|{:.0}", pc * 100.0, pf * 100.0, po * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn table_renders_markdown() {
        let mut table = Table::new("Figure X", "A caption.", &["a", "b"]);
        table.push_row(vec!["1".into(), "2".into()]);
        table.push_row(vec!["only-one".into()]);
        assert_eq!(table.rows.len(), 2);
        let md = table.to_markdown();
        assert!(md.contains("### Figure X"));
        assert!(md.contains("A caption."));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
        assert!(md.contains("| only-one |  |"));
        assert!(md.contains("|---|---|"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.8342), "83.4");
        assert_eq!(pct(0.0), "0.0");
        assert_eq!(millis(Duration::from_micros(1_500)), "1.5");
        assert_eq!(triple(0.76, 0.72, 0.61), "76|72|61");
    }
}
