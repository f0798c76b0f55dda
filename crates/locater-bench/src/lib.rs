//! # locater-bench
//!
//! The experiment harness of the LOCATER reproduction: for **every table and figure**
//! of the paper's evaluation (§6) there is a module under [`experiments`] that builds
//! the required synthetic dataset, evaluates the relevant systems (LOCATER
//! configurations and the §6.1 baselines) and produces a result table containing the
//! measured values next to the values the paper reports.
//!
//! Three layers:
//!
//! * [`datasets`] — synthetic campus / scenario fixtures sized by a [`datasets::BenchScale`]
//!   (`quick` by default, `exp --full` for paper-sized runs);
//! * [`runner`] — the query-evaluation loops (precision scoring + per-query timing);
//! * [`experiments`] — one module per table/figure plus the ablations, each exposing
//!   `run(scale) -> Vec<Table>`.
//!
//! The `exp` binary prints one experiment by name (`exp fig7`) or the whole
//! evaluation (`exp all`) as markdown. Performance is measured elsewhere: the
//! repo benchmark under `benchmark/` is the only performance harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datasets;
pub mod experiments;
pub mod report;
pub mod runner;

pub use datasets::BenchScale;
pub use report::Table;

/// Prints a list of result tables to stdout as markdown, separated by blank lines.
pub fn print_tables(tables: &[Table]) {
    for table in tables {
        println!("{}", table.to_markdown());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn print_tables_does_not_panic() {
        let mut table = Table::new("t", "c", &["a"]);
        table.push_row(vec!["1".into()]);
        print_tables(&[table]);
    }
}
