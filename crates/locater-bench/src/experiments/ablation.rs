//! Ablation studies for this reproduction's design choices:
//!
//! 1. **Neighbor processing order** — §5 argues that processing neighbors in
//!    decreasing cached-affinity order makes the iterative fine-grained algorithm
//!    converge faster than a natural/random order.
//! 2. **Semi-supervised self-training** — §3's Algorithm 1 grows the training set of
//!    the coarse classifiers from heuristically labelled gaps; the ablation disables
//!    the self-training loop and trains on the bootstrap labels only.
//! 3. **Validity period δ** — §2 attaches a per-device validity period to every
//!    event; the ablation replaces the data-driven estimate with fixed small / large
//!    values.

use crate::datasets::{campus_fixture, BenchScale};
use crate::report::{millis, pct, Table};
use crate::runner::{evaluate_locater, truth_at};
use locater_core::metrics::EvaluationReport;
use locater_core::system::{
    CacheMode, FineMode, LocateRequest, LocaterConfig, Location, ShardedLocaterService,
};
use locater_events::clock;
use std::time::{Duration, Instant};

/// Runs all three ablations.
pub fn run(scale: &BenchScale) -> Vec<Table> {
    vec![
        neighbor_order(scale),
        self_training(scale),
        validity_sensitivity(scale),
    ]
}

/// Ablation 1: cached-affinity neighbor ordering vs natural order.
pub(crate) fn neighbor_order(scale: &BenchScale) -> Table {
    let fixture = campus_fixture(scale);
    let mut table = Table::new(
        "Ablation — neighbor processing order (I-LOCATER)",
        "With the caching engine the neighbors of a query are processed in decreasing \
         cached-affinity order; without it, in natural order. §5 predicts faster \
         convergence (fewer neighbors processed before the stop conditions fire) with \
         the affinity order once the cache is warm.",
        &[
            "ordering",
            "avg neighbors processed",
            "avg query time (ms)",
            "Po (%)",
        ],
    );

    for (label, cache) in [
        ("cached-affinity order", CacheMode::Enabled),
        ("natural order", CacheMode::Disabled),
    ] {
        let config = LocaterConfig::default()
            .with_fine_mode(FineMode::Independent)
            .with_cache(cache);
        let service = ShardedLocaterService::new(fixture.store.clone(), config, 1);
        let mut report = EvaluationReport::new(label);
        let mut neighbors_processed = 0usize;
        let mut fine_queries = 0usize;
        let mut elapsed = Duration::ZERO;
        for query in &fixture.university.queries {
            let started = Instant::now();
            let request = LocateRequest::by_mac(&query.mac, query.t).with_diagnostics();
            let outcome = service.locate(&request);
            elapsed += started.elapsed();
            let predicted = match &outcome {
                Ok(response) => {
                    if let Some(fine) = response.diagnostics.as_ref().and_then(|d| d.fine.as_ref())
                    {
                        neighbors_processed += fine.neighbors_processed;
                        fine_queries += 1;
                    }
                    response.answer.location
                }
                Err(_) => Location::Outside,
            };
            let truth = truth_at(&fixture.output, &query.mac, query.t);
            report.record("all", &fixture.output.space, truth, &predicted);
        }
        let avg_neighbors = neighbors_processed as f64 / fine_queries.max(1) as f64;
        let avg_time = elapsed / fixture.university.len().max(1) as u32;
        table.push_row(vec![
            label.to_string(),
            format!("{avg_neighbors:.2}"),
            millis(avg_time),
            pct(report.overall().po()),
        ]);
    }
    table
}

/// Ablation 2: Algorithm 1 self-training vs bootstrap-labels-only classifiers.
pub fn self_training(scale: &BenchScale) -> Table {
    let fixture = campus_fixture(scale);
    let group = |_: &str| "all".to_string();
    let mut table = Table::new(
        "Ablation — semi-supervised self-training (coarse classifiers)",
        "Default LOCATER grows the coarse training set with Algorithm 1; the ablation \
         trains only on the heuristically (bootstrap) labelled gaps, leaving ambiguous \
         gaps out of the training set.",
        &["variant", "Pc (%)", "Po (%)"],
    );
    for (label, rounds) in [
        ("with self-training", 400usize),
        ("bootstrap labels only", 0),
    ] {
        let mut config = LocaterConfig::default();
        config.coarse.self_training.max_rounds = rounds;
        let eval = evaluate_locater(
            label,
            &fixture.output,
            &fixture.store,
            config,
            &fixture.university,
            &group,
        );
        table.push_row(vec![
            label.to_string(),
            pct(eval.overall().pc()),
            pct(eval.overall().po()),
        ]);
    }
    table
}

/// Ablation 3: sensitivity to the validity period δ.
pub(crate) fn validity_sensitivity(scale: &BenchScale) -> Table {
    let fixture = campus_fixture(scale);
    let group = |_: &str| "all".to_string();
    let mut table = Table::new(
        "Ablation — validity period δ",
        "LOCATER estimates δ per device from its reconnection pattern (Appendix 9.1). \
         The ablation replaces the estimate with fixed values: a small δ turns most of \
         the timeline into gaps, a large δ hides genuine absences.",
        &["δ policy", "Pc (%)", "Po (%)"],
    );
    let policies: [(&str, Option<i64>); 3] = [
        ("estimated per device (default)", None),
        ("fixed 2 minutes", Some(clock::minutes(2))),
        ("fixed 30 minutes", Some(clock::minutes(30))),
    ];
    for (label, delta) in policies {
        let mut store = fixture.store.clone();
        if let Some(delta) = delta {
            for id in 0..store.num_devices() {
                store.set_delta(locater_events::DeviceId::new(id as u32), delta);
            }
        }
        let eval = evaluate_locater(
            label,
            &fixture.output,
            &store,
            LocaterConfig::default(),
            &fixture.university,
            &group,
        );
        table.push_row(vec![
            label.to_string(),
            pct(eval.overall().pc()),
            pct(eval.overall().po()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_scale;

    #[test]
    fn ablation_tables_have_expected_shape() {
        let scale = test_scale();
        let order = neighbor_order(&scale);
        assert_eq!(order.rows.len(), 2);
        let selftrain = self_training(&scale);
        assert_eq!(selftrain.rows.len(), 2);
        let validity = validity_sensitivity(&scale);
        assert_eq!(validity.rows.len(), 3);
        for table in [&order, &selftrain, &validity] {
            for row in &table.rows {
                assert!(!row[0].is_empty());
            }
        }
    }
}
