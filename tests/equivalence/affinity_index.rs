//! The correctness cornerstone of the fine step: **every affinity the engine
//! computes, and every whole fine outcome, is bit-identical to the naive §4
//! reference** of `support/paper.rs` — same event counts, same float
//! operations in the same order — for random ingest interleavings
//! (out-of-window events, out-of-order arrivals and δ-boundary ties
//! included), under per-device sharding at N ∈ {2, 3, 8}, across a snapshot
//! round-trip, on a simulated small campus, in a 40-device crowd (where the
//! 25-neighbour cut and D-FINE's dead cluster fire), and through the service
//! at one and three shards with the cache off.
//!
//! The affinity reference is [`paper::device_affinity`]: per member, each
//! window event is probed by a window scan of every other member for an event
//! on the same access point within the member's δ. The outcome reference is
//! [`paper::locate`] at [`Deviations::PRODUCTION`], in both modes, with the
//! stop conditions on and off: room, probabilities, contributions, neighbour
//! counts and the early-stop flag.
//! Equality is asserted on `f64::to_bits`, not approximate closeness.

use crate::support::{fixture::space, lcg::Lcg, paper};
use locater::core::fine::{AffinityEngine, FineConfig, FineLocalizer, FineMode, FineOutcome};
use locater::prelude::*;
use locater::store::ShardedRead;
use locater_store::EventRead;
use paper::{bits, Deviations};

const MACS: [&str; 5] = ["alice", "bob", "carol", "dave", "erin"];
const APS: [&str; 3] = ["wap0", "wap1", "wap2"];

/// Builds a store from one LCG-seeded interleaving: mostly in-order events
/// with occasional out-of-order arrivals, plus deliberate δ-boundary ties
/// around a handful of anchor instants.
fn random_store(seed: u64, events: usize) -> (EventStore, Vec<i64>) {
    let mut rng = Lcg(seed);
    let mut store = EventStore::new(space());
    let mut t = 1_000i64;
    let mut anchors = Vec::new();
    for i in 0..events {
        t += rng.below(900) as i64;
        let mac = MACS[rng.below(MACS.len() as u64) as usize];
        let ap = APS[rng.below(APS.len() as u64) as usize];
        // ~1 in 8 events arrives out of order, up to 9 000 s in the past.
        let at = if rng.below(8) == 0 {
            (t - 1 - rng.below(9_000) as i64).max(0)
        } else {
            t
        };
        store.ingest_raw(mac, at, ap).unwrap();
        if i % 25 == 0 {
            anchors.push(t);
        }
    }
    store.estimate_deltas();

    // δ-boundary ties: for a few anchors, place events of two devices exactly
    // δ apart (and δ ± 1) so the closed/open validity bounds are exercised.
    for (idx, &anchor) in anchors.iter().take(6).enumerate() {
        let a = MACS[idx % MACS.len()];
        let b = MACS[(idx + 1) % MACS.len()];
        let delta = store.delta(store.device_id(a).unwrap());
        let ap = APS[idx % APS.len()];
        store.ingest_raw(a, anchor, ap).unwrap();
        for off in [delta - 1, delta, delta + 1] {
            store.ingest_raw(b, anchor + off, ap).unwrap();
        }
    }
    (store, anchors)
}

/// Device-affinity probes for a store: all pairs plus a few triples, at
/// anchor times, window edges and out-of-window instants.
fn probe_times(anchors: &[i64]) -> Vec<i64> {
    let mut times: Vec<i64> = anchors.to_vec();
    if let (Some(&first), Some(&last)) = (anchors.first(), anchors.last()) {
        times.extend([
            first - 100_000,
            last + 100_000,
            last + 1,
            (first + last) / 2,
        ]);
    }
    times
}

/// The floors a session's floor test is checked at: the least positive
/// value (any co-location at all), Algorithm 2's pair floor 0.2, and values
/// on either side of it.
const FLOORS: [f64; 5] = [f64::MIN_POSITIVE, 0.05, 0.2, 0.5, 1.0];

/// Asserts that every affinity the engine computes over `view` — one-shot
/// pairs, a session reused across neighbours (and its floor test),
/// triples, repeated-member sets and the sets fine outcomes are built from
/// — equals the reference scan over the same view, bit for bit.
fn assert_engine_equivalence(view: &dyn EventRead, label: &str, anchors: &[i64]) {
    let config = FineConfig::default();
    let window = config.affinity_window;
    let engine = AffinityEngine::new(view, config.weights, window);
    let reference =
        |devices: &[DeviceId], until: i64| paper::device_affinity(view, devices, until, window);
    let devices: Vec<DeviceId> = (0..view.num_devices() as u32).map(DeviceId::new).collect();

    for &until in &probe_times(anchors) {
        for &a in &devices {
            // One session per queried device, reused across neighbours as
            // `locate` does.
            let session = engine.pair_session(a, until);
            for &b in &devices {
                let x = engine.pair_affinity(a, b, until);
                let y = reference(&[a, b], until);
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{label}: pair ({a}, {b}) at {until}: {x} != {y}"
                );
                let s = session.affinity(b);
                assert_eq!(
                    s.to_bits(),
                    x.to_bits(),
                    "{label}: session pair ({a}, {b}) at {until}: {s} != {x}"
                );
                // The floor test returns the merge's verdict and value.
                for floor in FLOORS {
                    assert_eq!(
                        session.affinity_at_least(b, floor).map(f64::to_bits),
                        (s >= floor).then_some(s).map(f64::to_bits),
                        "{label}: floor test ({a}, {b}) at {until}, floor {floor:e}"
                    );
                }
            }
        }
        // Triples and repeated-member sets through the per-AP runs merge.
        let repeated = [
            vec![devices[0], devices[0]],
            vec![devices[0], devices[1], devices[0]],
        ];
        for members in devices.windows(3).chain(repeated.iter().map(Vec::as_slice)) {
            assert_eq!(
                engine.device_affinity(members, until).to_bits(),
                reference(members, until).to_bits(),
                "{label}: set {members:?} at {until}"
            );
        }
    }

    // Whole fine outcomes, both modes, equal the naive Algorithm 2's.
    for &t_q in probe_times(anchors).iter().take(6) {
        for &device in &devices {
            if let Some(region) = view.covering_region(device, t_q) {
                assert_fine_equals_paper(view, device, t_q, region, label);
            }
        }
    }
}

/// The configs every fine outcome is compared in: both modes, with the stop
/// conditions on (production) and off. Off, D-FINE has no contributor cap,
/// so a neighbour can join, and merge, two clusters.
const COMPARED: [(FineMode, bool); 4] = [
    (FineMode::Independent, true),
    (FineMode::Dependent, true),
    (FineMode::Independent, false),
    (FineMode::Dependent, false),
];

/// Asserts that the fine step's outcome for `(device, t_q)` in `region`
/// equals the naive Algorithm 2's at the production deviations, bit for bit,
/// in every config of [`COMPARED`]; returns the outcomes in that order.
fn assert_fine_equals_paper(
    view: &dyn EventRead,
    device: DeviceId,
    t_q: i64,
    region: RegionId,
    label: &str,
) -> [FineOutcome; 4] {
    COMPARED.map(|(mode, use_stop_conditions)| {
        let config = FineConfig {
            mode,
            use_stop_conditions,
            ..FineConfig::default()
        };
        let outcome = FineLocalizer::new(config).locate(view, device, t_q, region, None);
        let reference = paper::locate(view, &config, &Deviations::PRODUCTION, device, t_q, region);
        assert_eq!(
            bits(&outcome),
            bits(&reference),
            "{label}: {mode} outcome (stop conditions {use_stop_conditions}) \
             for {device} at {t_q} in {region}"
        );
        outcome
    })
}

#[test]
fn indexed_affinities_equal_scan_affinities() {
    for seed in [3u64, 17, 4242] {
        let (store, anchors) = random_store(seed, 260);
        assert_engine_equivalence(&store, &format!("seed {seed}"), &anchors);
    }
}

#[test]
fn equivalence_survives_split_and_rejoin() {
    let (store, anchors) = random_store(99, 240);
    for shards in [2usize, 3, 8] {
        let pieces = store.split(shards);
        // The sharded view routes timeline reads to owner shards; affinities
        // over it must equal both the reference and the combined store.
        let view = ShardedRead::new(pieces.iter().collect());
        assert_engine_equivalence(&view, &format!("sharded view N={shards}"), &anchors);

        let config = FineConfig::default();
        let over_view = AffinityEngine::new(&view, config.weights, config.affinity_window);
        let over_store = AffinityEngine::new(&store, config.weights, config.affinity_window);
        for &until in probe_times(&anchors).iter().take(5) {
            for a in 0..store.num_devices() as u32 {
                for b in 0..store.num_devices() as u32 {
                    let (a, b) = (DeviceId::new(a), DeviceId::new(b));
                    assert_eq!(
                        over_view.pair_affinity(a, b, until).to_bits(),
                        over_store.pair_affinity(a, b, until).to_bits(),
                        "sharded vs combined pair ({a}, {b}) at {until} (N={shards})"
                    );
                }
            }
        }

        let rejoined = EventStore::rejoin(&pieces).unwrap();
        assert_eq!(rejoined, store, "rejoin(split(store, {shards})) != store");
    }
}

#[test]
fn equivalence_survives_a_snapshot_roundtrip() {
    let (store, anchors) = random_store(7_777, 220);
    let bytes = store.to_snapshot_bytes().unwrap();
    let back = EventStore::from_snapshot_bytes(&bytes).unwrap();
    assert_eq!(back, store, "the round-trip must be identical");
    assert_engine_equivalence(&back, "snapshot", &anchors);
}

#[test]
fn live_ingest_interleavings_keep_index_and_scan_in_step() {
    // Ingest/locate interleavings through the live service: after every burst
    // the engine over the service's store answers like the reference scan,
    // and the service answers like one freshly built over that store.
    let mut rng = Lcg(0xC01C);
    let service = ShardedLocaterService::new(EventStore::new(space()), LocaterConfig::default(), 1);
    let mut t = 1_000i64;
    for burst in 0..12 {
        for _ in 0..40 {
            t += rng.below(700) as i64;
            let mac = MACS[rng.below(MACS.len() as u64) as usize];
            let ap = APS[rng.below(APS.len() as u64) as usize];
            service.ingest(mac, t, ap).unwrap();
        }
        let snapshot = service.store_snapshot();
        let config = FineConfig::default();
        let engine = AffinityEngine::new(&snapshot, config.weights, config.affinity_window);
        for a in 0..snapshot.num_devices() as u32 {
            for b in 0..snapshot.num_devices() as u32 {
                let (a, b) = (DeviceId::new(a), DeviceId::new(b));
                let until = t - rng.below(2_000) as i64;
                assert_eq!(
                    engine.pair_affinity(a, b, until).to_bits(),
                    paper::device_affinity(&snapshot, &[a, b], until, config.affinity_window)
                        .to_bits(),
                    "burst {burst}: pair ({a}, {b}) at {until}"
                );
            }
        }
        let rebuilt = ShardedLocaterService::new(snapshot, LocaterConfig::default(), 1);
        let probe = LocateRequest::by_mac(MACS[burst % MACS.len()], t - 300);
        match (service.locate(&probe), rebuilt.locate(&probe)) {
            (Ok(live), Ok(fresh)) => assert_eq!(live.answer, fresh.answer, "burst {burst}"),
            (live, fresh) => assert_eq!(live.is_err(), fresh.is_err(), "burst {burst}"),
        }
    }
}

/// The simulated small campus and its probes: one minute after every
/// `stride`-th event (a covered instant, so the fine step runs with online
/// neighbours), as device ids.
fn small_campus(probes: usize) -> (EventStore, Vec<(DeviceId, i64)>) {
    let output = Simulator::new(0x5A11).run_campus(&CampusConfig::small());
    let store = output.build_store();
    let stride = (output.events.len() / probes).max(1);
    let queries = output
        .events
        .iter()
        .step_by(stride)
        .take(probes)
        .map(|e| (store.device_id(e.mac.as_str()).unwrap(), e.t + 60))
        .collect();
    (store, queries)
}

/// How often each branch of Algorithm 2 ran over a set of compared outcomes.
#[derive(Debug, Default)]
struct Branches {
    /// I-FINE folded in at least one neighbour.
    contributed: usize,
    /// Queries with more eligible neighbours than the 25-neighbour cut keeps.
    cut: usize,
    /// I-FINE stopped by the §4.2 bounds.
    bounds_stop: usize,
    /// Either mode stopped by the contributor cap with neighbours left.
    cap_stop: usize,
    /// D-FINE met a cluster whose joint affinity is zero.
    dead_cluster: usize,
    /// D-FINE without the stop conditions merged two clusters.
    merge: usize,
}

impl Branches {
    fn count(
        &mut self,
        store: &EventStore,
        device: DeviceId,
        t_q: i64,
        region: RegionId,
        [independent, dependent, _, unstopped]: &[FineOutcome; 4],
    ) {
        let eligible = FineLocalizer::default()
            .candidate_neighbors(store, device, t_q, region)
            .len();
        let capped = |o: &FineOutcome| o.stopped_early && o.contributions.len() == 2;
        self.contributed += usize::from(!independent.contributions.is_empty());
        self.cut += usize::from(eligible > independent.neighbors_considered);
        self.bounds_stop += usize::from(independent.stopped_early && !capped(independent));
        self.cap_stop += usize::from(capped(independent) || capped(dependent));
        let window = FineConfig::default().affinity_window;
        let affinity = |members: &[DeviceId]| paper::device_affinity(store, members, t_q, window);
        // D-FINE's second contributor joined the first one's cluster, and the
        // merged cluster was never co-located with the queried device.
        if let [first, second] = dependent.contributions.as_slice() {
            self.dead_cluster += usize::from(
                affinity(&[second.device, first.device]) > 0.0
                    && affinity(&[first.device, second.device, device]) <= 0.0,
            );
        }
        // Replay the uncapped D-FINE clustering from its contributions: a
        // contributor co-located with members of two clusters merges them.
        let mut clusters: Vec<Vec<DeviceId>> = Vec::new();
        for contribution in &unstopped.contributions {
            let linked: Vec<usize> = (0..clusters.len())
                .filter(|&c| {
                    clusters[c]
                        .iter()
                        .any(|&member| affinity(&[contribution.device, member]) > 0.0)
                })
                .collect();
            match linked.as_slice() {
                [] => clusters.push(vec![contribution.device]),
                [first] => clusters[*first].push(contribution.device),
                _ => {
                    self.merge += 1;
                    break;
                }
            }
        }
    }
}

#[test]
fn fine_outcomes_equal_the_paper_on_the_small_campus() {
    let (store, queries) = small_campus(150);
    let mut branches = Branches::default();
    for &(device, t_q) in &queries {
        if let Some(region) = store.covering_region(device, t_q) {
            let outcomes = assert_fine_equals_paper(&store, device, t_q, region, "small campus");
            branches.count(&store, device, t_q, region, &outcomes);
        }
    }
    assert!(
        branches.contributed > 0
            && branches.bounds_stop > 0
            && branches.cap_stop > 0
            && branches.merge > 0,
        "a branch of Algorithm 2 went unexercised: {branches:?}"
    );
}

/// Forty devices of the fixture space that connect within one minute of each
/// other, each to a random access point, once an hour for six hours, with a
/// five-minute δ: at the last hour every device is online, more than the
/// 25-neighbour cut keeps, and many co-located pairs were never co-located
/// as a triple with the queried device (D-FINE's dead cluster).
fn crowd(seed: u64) -> (EventStore, i64) {
    let mut rng = Lcg(seed);
    let mut store = EventStore::new(space());
    let macs: Vec<String> = (0..40).map(|i| format!("guest-{i:02}")).collect();
    for hour in 0..6 {
        for mac in &macs {
            let t = 10_000 + hour * 3_600 + rng.below(60) as i64;
            let ap = APS[rng.below(APS.len() as u64) as usize];
            store.ingest_raw(mac, t, ap).unwrap();
        }
    }
    for mac in &macs {
        store.set_delta(store.device_id(mac).unwrap(), 300);
    }
    (store, 10_000 + 5 * 3_600 + 90)
}

#[test]
fn fine_outcomes_equal_the_paper_in_a_crowd() {
    let mut branches = Branches::default();
    for seed in [5u64, 6, 7] {
        let (store, t_q) = crowd(seed);
        for device in (0..store.num_devices() as u32).map(DeviceId::new) {
            let region = store.covering_region(device, t_q).unwrap();
            let label = format!("crowd {seed}");
            let outcomes = assert_fine_equals_paper(&store, device, t_q, region, &label);
            branches.count(&store, device, t_q, region, &outcomes);
        }
    }
    assert!(
        branches.cut > 0
            && branches.dead_cluster > 0
            && branches.cap_stop > 0
            && branches.merge > 0,
        "a branch of Algorithm 2 went unexercised: {branches:?}"
    );
}

#[test]
fn service_answers_carry_the_paper_outcome_with_the_cache_off() {
    let (store, queries) = small_campus(60);
    for shards in [1usize, 3] {
        for mode in [FineMode::Independent, FineMode::Dependent] {
            let config = LocaterConfig::default()
                .with_fine_mode(mode)
                .with_cache(CacheMode::Disabled);
            let service = ShardedLocaterService::new(store.clone(), config, shards);
            let mut compared = 0usize;
            for &(device, t_q) in &queries {
                let request = LocateRequest::by_device(device, t_q).with_diagnostics();
                let diagnostics = service.locate(&request).unwrap().diagnostics.unwrap();
                let Some(fine) = diagnostics.fine else {
                    continue;
                };
                let reference = paper::locate(
                    &store,
                    &config.fine,
                    &Deviations::PRODUCTION,
                    device,
                    t_q,
                    fine.region,
                );
                assert_eq!(
                    bits(&fine),
                    bits(&reference),
                    "{shards} shard(s), {mode}: {device} at {t_q}"
                );
                compared += 1;
            }
            assert!(compared > 0, "{shards} shard(s), {mode}: no fine answer");
        }
    }
}
