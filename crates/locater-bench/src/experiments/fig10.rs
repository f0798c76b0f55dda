//! Figure 10 — efficiency: average time per query as more queries are processed,
//! for I-LOCATER+C and D-LOCATER+C on the university and generated query sets.
//!
//! The paper observes that D-LOCATER+C starts expensive (cold global affinity graph),
//! then converges down as the cache warms, while I-LOCATER+C stays flat and cheaper
//! throughout.

use crate::datasets::{campus_fixture, BenchScale};
use crate::report::{millis, Table};
use crate::runner::evaluate_locater;
use locater_core::system::{CacheMode, FineMode, LocaterConfig};
use locater_sim::QueryWorkload;

/// Number of checkpoints reported along each curve.
pub(crate) const CHECKPOINTS: usize = 8;

/// Runs the experiment.
pub fn run(scale: &BenchScale) -> Vec<Table> {
    let fixture = campus_fixture(scale);
    let workloads: Vec<(&str, &QueryWorkload)> = vec![
        ("university", &fixture.university),
        ("generated", &fixture.generated),
    ];

    let mut tables = Vec::new();
    for (workload_name, workload) in workloads {
        let mut table = Table::new(
            format!("Figure 10 — average time per query vs processed queries ({workload_name} query set)"),
            "Cumulative average wall-clock time per query. The paper reports D-LOCATER+C \
             starting around 5 s on a cold cache and converging to ~1 s, while I-LOCATER+C \
             stays flat and lower; absolute numbers differ on the synthetic substrate but \
             the cold-start/convergence shape is the comparison point.",
            &[
                "processed queries",
                "I-LOCATER+C avg (ms)",
                "D-LOCATER+C avg (ms)",
            ],
        );
        let i_eval = evaluate_locater(
            "I-LOCATER+C",
            &fixture.output,
            &fixture.store,
            LocaterConfig::default()
                .with_fine_mode(FineMode::Independent)
                .with_cache(CacheMode::Enabled),
            workload,
            &|_| "all".to_string(),
        );
        let d_eval = evaluate_locater(
            "D-LOCATER+C",
            &fixture.output,
            &fixture.store,
            LocaterConfig::default()
                .with_fine_mode(FineMode::Dependent)
                .with_cache(CacheMode::Enabled),
            workload,
            &|_| "all".to_string(),
        );
        let i_series = i_eval.cumulative_average_series(CHECKPOINTS);
        let d_series = d_eval.cumulative_average_series(CHECKPOINTS);
        for (i_point, d_point) in i_series.iter().zip(&d_series) {
            table.push_row(vec![
                i_point.0.to_string(),
                millis(i_point.1),
                millis(d_point.1),
            ]);
        }
        tables.push(table);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_scale;

    #[test]
    fn fig10_produces_two_latency_curves() {
        let tables = run(&test_scale());
        assert_eq!(tables.len(), 2);
        for table in &tables {
            assert!(table.rows.len() >= 2);
            for row in &table.rows {
                let processed: usize = row[0].parse().unwrap();
                assert!(processed > 0);
                let i_ms: f64 = row[1].parse().unwrap();
                let d_ms: f64 = row[2].parse().unwrap();
                assert!(i_ms >= 0.0 && d_ms >= 0.0);
            }
        }
    }
}
