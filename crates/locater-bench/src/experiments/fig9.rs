//! Figure 9 — impact of the caching engine on precision.
//!
//! The caching engine reuses affinities computed for earlier queries to order the
//! neighbor processing of later ones; the paper reports that this costs only 5–10
//! points of overall precision (while cutting query latency several-fold, Fig. 12).

use crate::datasets::{campus_fixture, BenchScale};
use crate::report::{pct, Table};
use crate::runner::evaluate_locater;
use locater_core::system::{CacheMode, FineMode, LocaterConfig};

/// Runs the experiment.
pub fn run(scale: &BenchScale) -> Vec<Table> {
    let fixture = campus_fixture(scale);
    let group = |_: &str| "all".to_string();

    let mut table = Table::new(
        "Figure 9 — overall precision with and without the caching engine",
        "I-LOCATER / D-LOCATER vs their +C (cached) variants on the university-style \
         workload. The paper reports caching costs 5–10 points of precision at most.",
        &[
            "system",
            "Pc measured (%)",
            "Pf measured (%)",
            "Po measured (%)",
        ],
    );

    for mode in [FineMode::Independent, FineMode::Dependent] {
        for cache in [CacheMode::Disabled, CacheMode::Enabled] {
            let label = match (mode, cache) {
                (FineMode::Independent, CacheMode::Disabled) => "I-LOCATER",
                (FineMode::Independent, CacheMode::Enabled) => "I-LOCATER+C",
                (FineMode::Dependent, CacheMode::Disabled) => "D-LOCATER",
                (FineMode::Dependent, CacheMode::Enabled) => "D-LOCATER+C",
            };
            let config = LocaterConfig::default()
                .with_fine_mode(mode)
                .with_cache(cache);
            let eval = evaluate_locater(
                label,
                &fixture.output,
                &fixture.store,
                config,
                &fixture.university,
                &group,
            );
            let overall = eval.overall();
            table.push_row(vec![
                label.to_string(),
                pct(overall.pc()),
                pct(overall.pf()),
                pct(overall.po()),
            ]);
        }
    }

    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_scale;

    #[test]
    fn fig9_compares_cached_and_uncached_variants() {
        let tables = run(&test_scale());
        assert_eq!(tables.len(), 1);
        let table = &tables[0];
        assert_eq!(table.rows.len(), 4);
        let systems: Vec<&str> = table.rows.iter().map(|r| r[0].as_str()).collect();
        assert!(systems.contains(&"I-LOCATER+C"));
        assert!(systems.contains(&"D-LOCATER"));
    }
}
