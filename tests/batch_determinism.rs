//! Determinism of the parallel batch-cleaning pipeline: `locate_batch` must
//! produce identical `Location` outputs for every job count on a simulated
//! campus workload.
//!
//! The default workload is the acceptance size (50k queries, ~15s in debug
//! mode); `LOCATER_DETERMINISM_QUERIES` scales it up or down.

use locater::prelude::*;
use locater::sim::generated_workload;

fn workload_size() -> usize {
    std::env::var("LOCATER_DETERMINISM_QUERIES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50_000)
}

/// Builds the campus store and a uniform query workload over it.
fn campus_workload(queries: usize) -> (EventStore, Vec<LocateRequest>) {
    let config = CampusConfig {
        weeks: 4,
        population: 48,
        visitors: 12,
        monitored: 12,
        access_points: 8,
        ..CampusConfig::default()
    };
    let output = Simulator::new(0xBA7C4).run_campus(&config);
    let mut store = output.build_store();
    store.estimate_deltas();
    let workload = generated_workload(&output, queries, 0xBA7C4);
    let queries: Vec<LocateRequest> = workload
        .queries
        .iter()
        .map(|q| LocateRequest::by_mac(&q.mac, q.t))
        .collect();
    (store, queries)
}

#[test]
fn locate_batch_is_deterministic_across_jobs_on_campus_workload() {
    let size = workload_size();
    let (store, queries) = campus_workload(size);
    assert!(
        queries.len() >= size,
        "workload generator produced too few queries"
    );

    let baseline = ShardedLocaterService::new(store.clone(), LocaterConfig::default(), 1);
    let sequential = baseline.locate_batch(&queries, 1);
    assert_eq!(sequential.len(), queries.len());

    for jobs in [8] {
        let service = ShardedLocaterService::new(store.clone(), LocaterConfig::default(), 1);
        let parallel = service.locate_batch(&queries, jobs);
        assert_eq!(sequential.len(), parallel.len());
        for (idx, (a, b)) in sequential.iter().zip(&parallel).enumerate() {
            match (a, b) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(
                        a.location(),
                        b.location(),
                        "query {idx}: location diverged between jobs=1 and jobs={jobs}"
                    );
                    assert_eq!(a, b, "query {idx}: answer diverged (jobs={jobs})");
                }
                (a, b) => assert_eq!(a, b, "query {idx}: outcome diverged (jobs={jobs})"),
            }
        }
    }
}

#[test]
fn request_layer_batch_is_deterministic() {
    // Whole responses (answer, device epoch, store size) must be identical
    // for every job count, odd ones included.
    let size = (workload_size() / 10).clamp(500, 5_000);
    let (store, requests) = campus_workload(size);

    let baseline = ShardedLocaterService::new(store.clone(), LocaterConfig::default(), 1);
    let sequential = baseline.locate_batch(&requests, 1);
    assert_eq!(sequential.len(), requests.len());

    for jobs in [3, 8] {
        let service = ShardedLocaterService::new(store.clone(), LocaterConfig::default(), 1);
        let parallel = service.locate_batch(&requests, jobs);
        assert_eq!(
            sequential, parallel,
            "request-layer batch diverged between jobs=1 and jobs={jobs}"
        );
    }
}

#[test]
fn locate_batch_agrees_with_single_queries_on_a_cold_system() {
    // Every batch answer is computed against the frozen pre-batch cache, so
    // the first query of each device must match what a *fresh* system answers
    // for that query alone (both see an empty affinity graph and no models).
    let (store, queries) = campus_workload(500);
    let batch = ShardedLocaterService::new(store.clone(), LocaterConfig::default(), 1);
    let batch_answers = batch.locate_batch(&queries, 4);

    let mut seen = std::collections::HashSet::new();
    let mut checked = 0usize;
    for (query, batch_answer) in queries.iter().zip(&batch_answers) {
        if !seen.insert(query.mac.clone()) {
            continue;
        }
        let fresh = ShardedLocaterService::new(store.clone(), LocaterConfig::default(), 1);
        let one = fresh.locate(query);
        match (one, batch_answer) {
            (Ok(a), Ok(b)) => assert_eq!(a.location(), b.location()),
            (a, b) => assert_eq!(a.is_err(), b.is_err()),
        }
        checked += 1;
        if checked >= 12 {
            break;
        }
    }
    assert!(checked > 0, "no per-device first queries checked");
}
