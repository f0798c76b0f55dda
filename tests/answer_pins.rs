//! Pinned answers: a fixed small-campus query set, answered through
//! `ShardedLocaterService` in both fine modes (I-FINE, D-FINE) with the
//! caching engine on and off, must hash to the constants below. A second
//! set, one query in the middle of each gap the duration thresholds leave
//! ambiguous, pins the answers of the fitted classifiers.
//!
//! The hash is an FNV-1a over each answer's location, confidence bits and
//! coarse method, in query order. With the cache off, `locate_batch` at one
//! and two jobs must hash to the same pins as `locate`, and no answer of
//! either set may depend on the queries answered before it. A
//! behaviour-preserving refactor of the coarse or fine step leaves every
//! constant unchanged; a change that is meant to move answers updates them
//! and says so.

use locater::core::coarse::CoarseMethod;
use locater::core::LocaterError;
use locater::prelude::*;
use locater::sim::generated_workload;

/// `(mode, cache, expected FNV)`.
const PINS: [(FineMode, CacheMode, u64); 4] = [
    (
        FineMode::Independent,
        CacheMode::Enabled,
        0x2be3_1c2c_821e_70c6,
    ),
    (
        FineMode::Independent,
        CacheMode::Disabled,
        0x3010_0e87_b3c9_d7da,
    ),
    (
        FineMode::Dependent,
        CacheMode::Enabled,
        0x1e4d_c694_2820_9930,
    ),
    (
        FineMode::Dependent,
        CacheMode::Disabled,
        0x6555_43ab_235c_88b5,
    ),
];

/// Answers that name a room in every run: the fine step answers 229 of the
/// 400 queries.
const ROOM_ANSWERS: usize = 229;

/// A two-week, six-AP campus and 400 queries: 200 uniform over the span
/// (mostly gaps: every coarse path) and 200 one minute after an event
/// (mostly covered instants: the fine step with online neighbours).
fn campus() -> (EventStore, Vec<LocateRequest>) {
    let config = CampusConfig {
        weeks: 2,
        population: 32,
        visitors: 8,
        monitored: 8,
        access_points: 6,
        ..CampusConfig::default()
    };
    let output = Simulator::new(0x9115).run_campus(&config);
    let store = output.build_store();
    let mut queries: Vec<LocateRequest> = generated_workload(&output, 200, 0x9115)
        .queries
        .iter()
        .map(|q| LocateRequest::by_mac(&q.mac, q.t))
        .collect();
    let stride = (output.events.len() / 200).max(1);
    queries.extend(
        output
            .events
            .iter()
            .step_by(stride)
            .take(200)
            .map(|e| LocateRequest::by_mac(e.mac.as_str(), e.t + 60)),
    );
    (store, queries)
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn names_a_room(answer: &Answer) -> bool {
    answer.location.room().is_some()
}

/// What the hash reads of one answer: its location, confidence bits and
/// coarse method, or the error.
fn answer_line(result: &Result<LocateResponse, LocaterError>) -> String {
    match result {
        Ok(response) => {
            let answer = &response.answer;
            format!(
                "{:?}|{:016x}|{:?}",
                answer.location,
                answer.confidence.to_bits(),
                answer.coarse_method
            )
        }
        Err(err) => format!("error: {err}"),
    }
}

/// The FNV of every answer, in query order, and how many answers `counted`
/// holds for.
fn answer_hash(
    answers: impl IntoIterator<Item = Result<LocateResponse, LocaterError>>,
    counted: fn(&Answer) -> bool,
) -> (u64, usize) {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut count = 0usize;
    for result in answers {
        if let Ok(response) = &result {
            count += usize::from(counted(&response.answer));
        }
        fnv1a(&mut hash, answer_line(&result).as_bytes());
        fnv1a(&mut hash, b"\n");
    }
    (hash, count)
}

#[test]
fn answers_are_pinned_in_both_fine_modes_with_and_without_the_cache() {
    let (store, queries) = campus();
    let mut measured = Vec::new();
    for (mode, cache, _) in PINS {
        let config = LocaterConfig::default()
            .with_fine_mode(mode)
            .with_cache(cache);
        let service = ShardedLocaterService::new(store.clone(), config, 2);
        measured.push(answer_hash(
            queries.iter().map(|q| service.locate(q)),
            names_a_room,
        ));
    }
    for ((mode, cache, fnv), &(got_fnv, got_rooms)) in PINS.iter().zip(&measured) {
        assert_eq!(
            (got_fnv, got_rooms),
            (*fnv, ROOM_ANSWERS),
            "{mode} with cache {cache:?}: answers moved (all pins measured: {measured:x?})"
        );
    }
}

#[test]
fn batch_answers_match_the_cache_off_pins() {
    // With the cache off `locate_batch` answers like `locate`, for every job
    // count: a coarse model is a function of its device, its query's grid
    // window and the device's events (`answers_do_not_depend_on_query_history`).
    let (store, queries) = campus();
    for (mode, cache, fnv) in PINS {
        if cache != CacheMode::Disabled {
            continue;
        }
        let config = LocaterConfig::default()
            .with_fine_mode(mode)
            .with_cache(cache);
        let service = ShardedLocaterService::new(store.clone(), config, 2);
        for jobs in [1, 2] {
            assert_eq!(
                answer_hash(service.locate_batch(&queries, jobs), names_a_room),
                (fnv, ROOM_ANSWERS),
                "{mode}: locate_batch with {jobs} job(s) answers unlike locate"
            );
        }
    }
}

/// Baseline1's answers to the same queries: its rooms are random draws
/// from each region's candidates, so this pins the seeded generator's
/// index draws as well as the shared coarse baseline.
const BASELINE1_PIN: (u64, usize) = (0x409e_048c_dba8_f6bb, 227);

#[test]
fn baseline1_answers_are_pinned() {
    use locater::core::baselines::{Baseline1, BaselineSystem};
    let (store, queries) = campus();
    let mut baseline = Baseline1::default();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut rooms = 0usize;
    for query in &queries {
        let mac = query
            .mac
            .as_deref()
            .expect("every campus query names a MAC");
        let line = match store.device_id(mac) {
            Some(device) => {
                let answer = baseline.locate(&store, device, query.t);
                rooms += usize::from(answer.location.room().is_some());
                format!(
                    "{:?}|{:016x}|{:?}",
                    answer.location,
                    answer.confidence.to_bits(),
                    answer.coarse_method
                )
            }
            None => format!("unknown device {mac}"),
        };
        fnv1a(&mut hash, line.as_bytes());
        fnv1a(&mut hash, b"\n");
    }
    assert_eq!((hash, rooms), BASELINE1_PIN, "Baseline1's answers moved");
}

/// The mid-gap answers under the default configuration: the FNV and how
/// many came from `CoarseMethod::Classifier`.
const MID_GAP_PIN: (u64, usize) = (0x1738_404b_91ff_3597, 54);

/// The midpoint of every gap (between two events' validity intervals) that
/// lasts 20 to 180 minutes, the band between the default duration
/// thresholds that the fitted classifiers decide, in device then time order;
/// every `k`-th of them, so that at most 200 remain.
fn mid_gap_queries(store: &EventStore) -> Vec<LocateRequest> {
    let queries: Vec<LocateRequest> = store
        .devices()
        .iter()
        .flat_map(|device| {
            store
                .gaps_of(device.id)
                .into_iter()
                .filter(|gap| (20 * 60..=180 * 60).contains(&gap.duration()))
                .map(|gap| LocateRequest::by_mac(device.mac.as_str(), (gap.start + gap.end) / 2))
        })
        .collect();
    let stride = queries.len().div_ceil(200).max(1);
    queries.into_iter().step_by(stride).collect()
}

#[test]
fn mid_gap_answers_pin_the_fitted_classifiers() {
    let (store, _) = campus();
    let queries = mid_gap_queries(&store);
    let service = ShardedLocaterService::new(store, LocaterConfig::default(), 2);
    let measured = answer_hash(queries.iter().map(|q| service.locate(q)), |answer| {
        answer.coarse_method == CoarseMethod::Classifier
    });
    assert_eq!(
        measured,
        MID_GAP_PIN,
        "mid-gap answers moved ({} queries, measured {measured:x?})",
        queries.len()
    );
}

/// With the affinity cache off, no answer depends on the queries answered
/// before it: a coarse model is a function of its device, its query's grid
/// window and the device's events, whichever query cached or fitted it. Five
/// runs over the pinned and the mid-gap queries agree bit for bit in both
/// fine modes: a forward `locate` pass; a reversed one; a fresh service per
/// query; `locate_batch` at one job after the forward pass, and at two jobs
/// after that.
#[test]
fn answers_do_not_depend_on_query_history() {
    let (store, pinned) = campus();
    let mid_gap = mid_gap_queries(&store);
    let lines = |answers: Vec<Result<LocateResponse, LocaterError>>| -> Vec<String> {
        answers.iter().map(answer_line).collect()
    };
    for mode in [FineMode::Independent, FineMode::Dependent] {
        let config = LocaterConfig::default()
            .with_fine_mode(mode)
            .with_cache(CacheMode::Disabled);
        let service = || ShardedLocaterService::new(store.clone(), config, 2);
        for (set, queries) in [("pinned", &pinned), ("mid-gap", &mid_gap)] {
            let forward_service = service();
            let forward = lines(queries.iter().map(|q| forward_service.locate(q)).collect());
            let reversed_service = service();
            let mut reversed = lines(
                queries
                    .iter()
                    .rev()
                    .map(|q| reversed_service.locate(q))
                    .collect(),
            );
            reversed.reverse();
            let fresh = lines(queries.iter().map(|q| service().locate(q)).collect());
            let runs = [
                ("a reversed pass", reversed),
                ("a fresh service per query", fresh),
                (
                    "locate_batch at 1 job",
                    lines(forward_service.locate_batch(queries, 1)),
                ),
                (
                    "locate_batch at 2 jobs",
                    lines(forward_service.locate_batch(queries, 2)),
                ),
            ];
            for (run, answers) in runs {
                let differ = forward.iter().zip(&answers).filter(|(a, b)| a != b).count();
                assert_eq!(
                    differ,
                    0,
                    "{mode}, {set} queries: {run} answers {differ} of {} unlike a forward pass",
                    queries.len()
                );
            }
        }
    }
}
