//! Figure 11 — effect of the loosened stop conditions on query latency.
//!
//! Without the early-stop bounds of §4.2, I-LOCATER must process every neighbor
//! device; with them it stops as soon as the leading room can no longer be overtaken.
//! The paper reports a considerable latency improvement with no precision cost.

use crate::datasets::{campus_fixture, BenchScale};
use crate::report::{millis, pct, Table};
use crate::runner::evaluate_locater;
use locater_core::system::{FineMode, LocaterConfig};
use locater_sim::QueryWorkload;

/// Runs the experiment.
pub fn run(scale: &BenchScale) -> Vec<Table> {
    let fixture = campus_fixture(scale);
    let workloads: Vec<(&str, &QueryWorkload)> = vec![
        ("university", &fixture.university),
        ("generated", &fixture.generated),
    ];

    let mut table = Table::new(
        "Figure 11 — average time per query with and without the stop conditions (I-LOCATER)",
        "The loosened early-stop conditions of §4.2 let the iterative algorithm answer \
         before processing every neighbor. The paper reports a large constant-factor \
         latency win at equal precision.",
        &[
            "query set",
            "with stop conditions (ms)",
            "without stop conditions (ms)",
            "Po with (%)",
            "Po without (%)",
        ],
    );

    for (name, workload) in workloads {
        let with_stop = evaluate_locater(
            "I-LOCATER",
            &fixture.output,
            &fixture.store,
            LocaterConfig::default().with_fine_mode(FineMode::Independent),
            workload,
            &|_| "all".to_string(),
        );
        let mut config = LocaterConfig::default().with_fine_mode(FineMode::Independent);
        config.fine.use_stop_conditions = false;
        let without_stop = evaluate_locater(
            "I-LOCATER (no stop)",
            &fixture.output,
            &fixture.store,
            config,
            workload,
            &|_| "all".to_string(),
        );
        table.push_row(vec![
            name.to_string(),
            millis(with_stop.avg_query_time()),
            millis(without_stop.avg_query_time()),
            pct(with_stop.overall().po()),
            pct(without_stop.overall().po()),
        ]);
    }

    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_scale;

    #[test]
    fn fig11_reports_both_query_sets() {
        let tables = run(&test_scale());
        assert_eq!(tables.len(), 1);
        let table = &tables[0];
        assert_eq!(table.rows.len(), 2);
        for row in &table.rows {
            let with: f64 = row[1].parse().unwrap();
            let without: f64 = row[2].parse().unwrap();
            assert!(with >= 0.0 && without >= 0.0);
        }
    }
}
