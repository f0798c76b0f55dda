//! Figure 12 — effect of the caching engine on query latency (D-LOCATER).
//!
//! The caching strategy replaces recomputation of device affinities with lookups in
//! the global affinity graph and drives the neighbor processing order; the paper
//! reports the average time per query dropping from ~5 s to ~1 s once the cache is
//! in place.

use crate::datasets::{campus_fixture, BenchScale};
use crate::report::{millis, Table};
use crate::runner::evaluate_locater;
use locater_core::system::{CacheMode, FineMode, LocaterConfig};
use locater_sim::QueryWorkload;

/// Runs the experiment.
pub fn run(scale: &BenchScale) -> Vec<Table> {
    let fixture = campus_fixture(scale);
    let workloads: Vec<(&str, &QueryWorkload)> = vec![
        ("university", &fixture.university),
        ("generated", &fixture.generated),
    ];

    let mut table = Table::new(
        "Figure 12 — average time per query with and without caching (D-LOCATER)",
        "The paper reports the caching engine cutting the average query time roughly \
         five-fold on both query workloads; absolute numbers differ on the synthetic \
         substrate but the with-cache column must be at or below the without-cache one.",
        &["query set", "D-LOCATER+C (ms)", "D-LOCATER (ms)"],
    );

    for (name, workload) in workloads {
        let cached = evaluate_locater(
            "D-LOCATER+C",
            &fixture.output,
            &fixture.store,
            LocaterConfig::default()
                .with_fine_mode(FineMode::Dependent)
                .with_cache(CacheMode::Enabled),
            workload,
            &|_| "all".to_string(),
        );
        let uncached = evaluate_locater(
            "D-LOCATER",
            &fixture.output,
            &fixture.store,
            LocaterConfig::default()
                .with_fine_mode(FineMode::Dependent)
                .with_cache(CacheMode::Disabled),
            workload,
            &|_| "all".to_string(),
        );
        table.push_row(vec![
            name.to_string(),
            millis(cached.avg_query_time()),
            millis(uncached.avg_query_time()),
        ]);
    }

    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_scale;

    #[test]
    fn fig12_reports_cached_and_uncached_latencies() {
        let tables = run(&test_scale());
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows.len(), 2);
        for row in &tables[0].rows {
            let cached: f64 = row[1].parse().unwrap();
            let uncached: f64 = row[2].parse().unwrap();
            assert!(cached >= 0.0 && uncached >= 0.0);
        }
    }
}
