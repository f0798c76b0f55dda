//! Shared setup for the Criterion benches: a micro-scale campus fixture, a warmed
//! single-shard service and a request that exercises the fine-grained (room-level)
//! path.

// Each bench target compiles this module independently and uses a different subset of
// the helpers.
#![allow(dead_code)]

use criterion::Criterion;
use locater_bench::datasets::{campus_fixture, BenchScale, CampusFixture};
use locater_bench::runner::warm_up;
use locater_core::system::{LocateRequest, LocaterConfig, ShardedLocaterService};
use std::time::Duration;

/// Criterion configuration tuned so the whole bench suite finishes in minutes: small
/// sample counts, short measurement windows.
pub fn criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_millis(900))
        .warm_up_time(Duration::from_millis(300))
        .configure_from_args()
}

/// Builds the micro-scale campus fixture shared by the query-latency benches.
pub fn fixture() -> CampusFixture {
    campus_fixture(&BenchScale::micro())
}

/// Builds a single-shard service over the fixture and warms its per-device models
/// and affinity cache with a few queries.
pub fn warmed_locater(fixture: &CampusFixture, config: LocaterConfig) -> ShardedLocaterService {
    let service = ShardedLocaterService::new(fixture.store.clone(), config, 1);
    warm_up(&service, fixture, 10);
    service
}

/// Picks a request from the university workload that the given service answers with
/// a room (i.e. one that exercises the fine-grained path), falling back to the first
/// query of the workload.
pub fn inside_query(fixture: &CampusFixture, service: &ShardedLocaterService) -> LocateRequest {
    for workload_query in &fixture.university.queries {
        let request = LocateRequest::by_mac(&workload_query.mac, workload_query.t);
        if let Ok(response) = service.locate(&request) {
            if response.answer.is_inside() {
                return request;
            }
        }
    }
    let first = &fixture.university.queries[0];
    LocateRequest::by_mac(&first.mac, first.t)
}
