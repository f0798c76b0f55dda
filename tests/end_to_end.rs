//! End-to-end integration test: simulate a campus, clean its connectivity log with
//! LOCATER, and check the paper's headline claims on the resulting precision.

use locater::core::baselines::{Baseline1, BaselineSystem};
use locater::core::metrics::{PrecisionCounts, TruthLocation};
use locater::prelude::*;

fn campus() -> (SimOutput, EventStore) {
    let config = CampusConfig {
        access_points: 6,
        population: 24,
        visitors: 6,
        monitored: 8,
        weeks: 3,
        ..CampusConfig::default()
    };
    let output = Simulator::new(99).run_campus(&config);
    let store = output.build_store();
    (output, store)
}

fn truth_of(output: &SimOutput, mac: &str, t: Timestamp) -> TruthLocation {
    match output.ground_truth.room_at(mac, t) {
        Some(room) => TruthLocation::Room(room),
        None => TruthLocation::Outside,
    }
}

#[test]
fn locater_cleans_a_campus_log_and_beats_the_random_room_baseline() {
    let (output, store) = campus();
    let space = store.space().clone();
    let workload = locater::sim::university_workload(&output, 25, 7);
    assert!(!workload.is_empty());

    let locater = ShardedLocaterService::new(store.clone(), LocaterConfig::default(), 1);
    let mut locater_counts = PrecisionCounts::new();
    let mut baseline_counts = PrecisionCounts::new();
    let mut baseline = Baseline1::default();

    for query in &workload.queries {
        let truth = truth_of(&output, &query.mac, query.t);
        let answer = locater
            .locate(&LocateRequest::by_mac(&query.mac, query.t))
            .expect("monitored devices appear in the log")
            .answer;
        locater_counts.record_answer(&space, truth, &answer);

        let device = store.device_id(&query.mac).expect("device exists");
        let baseline_answer = baseline.locate(&store, device, query.t);
        baseline_counts.record_answer(&space, truth, &baseline_answer);
    }

    // Sanity: every query was scored by both systems.
    assert_eq!(locater_counts.queries, workload.len());
    assert_eq!(baseline_counts.queries, workload.len());

    // Headline claims (shape, not absolute numbers): the coarse step is strong, and
    // the overall precision is far above picking a random room in the right region.
    assert!(
        locater_counts.pc() > 0.6,
        "coarse precision too low: {}",
        locater_counts.pc()
    );
    assert!(
        locater_counts.po() > baseline_counts.po() + 0.1,
        "LOCATER Po {} should clearly beat Baseline1 Po {}",
        locater_counts.po(),
        baseline_counts.po()
    );
    // Fine precision only counts region-correct answers; it must be meaningfully
    // better than the ~1/rooms-per-AP a random choice would give.
    assert!(
        locater_counts.pf() > baseline_counts.pf(),
        "LOCATER Pf {} should beat Baseline1 Pf {}",
        locater_counts.pf(),
        baseline_counts.pf()
    );
}

#[test]
fn answers_are_internally_consistent_with_the_space_model() {
    let (output, store) = campus();
    let space = store.space().clone();
    let locater = ShardedLocaterService::new(
        store,
        LocaterConfig::default().with_fine_mode(FineMode::Dependent),
        1,
    );
    let workload = locater::sim::generated_workload(&output, 150, 3);

    for query in &workload.queries {
        let Ok(response) = locater.locate(&LocateRequest::by_mac(&query.mac, query.t)) else {
            continue; // devices that never produced an event cannot be resolved
        };
        let answer = response.answer;
        match (answer.region(), answer.room()) {
            (Some(region), Some(room)) => {
                assert!(
                    space.rooms_in_region(region).contains(&room),
                    "answered room {room} is not covered by region {region}"
                );
                assert!(answer.is_inside());
            }
            (Some(_), None) => assert!(answer.is_inside()),
            (None, room) => {
                assert!(answer.is_outside());
                assert_eq!(room, None);
            }
        }
        assert!((0.0..=1.0).contains(&answer.confidence));
    }
}

#[test]
fn caching_engine_warms_up_and_does_not_change_coarse_answers() {
    let (output, store) = campus();
    let workload = locater::sim::university_workload(&output, 10, 11);
    let cached = ShardedLocaterService::new(store.clone(), LocaterConfig::default(), 1);
    let uncached = ShardedLocaterService::new(
        store,
        LocaterConfig::default().with_cache(CacheMode::Disabled),
        1,
    );

    let mut disagreements = 0usize;
    for query in &workload.queries {
        let q = LocateRequest::by_mac(&query.mac, query.t);
        let a = cached.locate(&q).unwrap().answer;
        let b = uncached.locate(&q).unwrap().answer;
        // The coarse (building/region) decision never depends on the cache.
        assert_eq!(a.is_inside(), b.is_inside());
        assert_eq!(a.region(), b.region());
        if a.room() != b.room() {
            disagreements += 1;
        }
    }
    let (edges, samples) = cached.cache_stats();
    assert_eq!(uncached.cache_stats(), (0, 0));
    // The cached system accumulated affinities while answering.
    assert!(samples >= edges);
    // Room-level answers may differ (cached affinities are approximations), but only
    // for a minority of queries — the Fig. 9 claim.
    assert!(
        (disagreements as f64) < 0.25 * workload.len() as f64,
        "too many room-level disagreements: {disagreements}/{}",
        workload.len()
    );
}
