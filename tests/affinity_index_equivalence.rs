//! The correctness cornerstone of device affinity: **every affinity the
//! engine computes is bit-identical to the naive reference scan** — same
//! event counts, same float divisions — for random ingest interleavings
//! (out-of-window events, out-of-order arrivals and δ-boundary ties
//! included), under per-device sharding at N ∈ {2, 3, 8}, and across a
//! snapshot round-trip.
//!
//! The reference is [`scanned_affinity`]: per member, each window event is
//! probed by a window scan of every other member for an event on the same
//! access point within the member's δ. Equality is asserted on
//! `f64::to_bits`, not approximate closeness, and extends to the affinities
//! whole [`FineLocalizer`] outcomes are built from.

#[path = "support/fixture.rs"]
mod fixture;
#[path = "support/lcg.rs"]
mod lcg;

use fixture::space;
use lcg::Lcg;
use locater::core::fine::{AffinityEngine, FineConfig, FineLocalizer, FineMode};
use locater::events::Interval;
use locater::prelude::*;
use locater::store::ShardedRead;
use locater_store::EventRead;

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

/// The reference semantics of `AffinityEngine::device_affinity` over the
/// `window` seconds ending at `until`: per member, a scan of its window
/// events, each probed by a window scan of every other member.
fn scanned_affinity(store: &dyn EventRead, devices: &[DeviceId], until: i64, window: i64) -> f64 {
    if devices.len() < 2 {
        return 0.0;
    }
    let window = Interval::new(until - window, until + 1);
    let (mut total, mut intersecting) = (0usize, 0usize);
    for &device in devices {
        let delta = store.delta(device);
        for event in store.events_of_in(device, window) {
            total += 1;
            let near = Interval::new(event.t() - delta, event.t() + delta + 1);
            let all_present = devices.iter().filter(|&&d| d != device).all(|&other| {
                store
                    .events_of_in(other, near)
                    .any(|e| e.ap() == event.ap())
            });
            intersecting += usize::from(all_present);
        }
    }
    if total == 0 {
        0.0
    } else {
        intersecting as f64 / total as f64
    }
}

/// Asserts that every affinity the engine computes over `view` — one-shot
/// pairs, a session reused across neighbours, triples, repeated-member sets
/// and the sets fine outcomes are built from — equals the reference scan
/// over the same view, bit for bit.
fn assert_engine_equivalence(view: &dyn EventRead, label: &str, anchors: &[i64]) {
    let config = FineConfig::default();
    let window = config.affinity_window;
    let engine = AffinityEngine::new(view, config.weights, window);
    let reference =
        |devices: &[DeviceId], until: i64| scanned_affinity(view, devices, until, window);
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

    // Whole fine outcomes, both modes: every pair affinity a contribution
    // reports, and the joint affinity of the queried device with its
    // contributors (the shape of a D-FINE cluster), equal the reference.
    for mode in [FineMode::Independent, FineMode::Dependent] {
        let localizer = FineLocalizer::new(FineConfig {
            mode,
            ..FineConfig::default()
        });
        for &t_q in probe_times(anchors).iter().take(6) {
            for &device in &devices {
                let Some(region) = view.covering_region(device, t_q) else {
                    continue;
                };
                let outcome = localizer.locate(view, device, t_q, region, None);
                let mut members = vec![device];
                for contribution in &outcome.contributions {
                    let pair = [device, contribution.device];
                    assert_eq!(
                        contribution.pair_affinity.to_bits(),
                        reference(&pair, t_q).to_bits(),
                        "{label}: {mode} contribution {pair:?} at {t_q}"
                    );
                    members.push(contribution.device);
                }
                assert_eq!(
                    engine.device_affinity(&members, t_q).to_bits(),
                    reference(&members, t_q).to_bits(),
                    "{label}: {mode} joint set {members:?} at {t_q}"
                );
            }
        }
    }
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
                    scanned_affinity(&snapshot, &[a, b], until, config.affinity_window).to_bits(),
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
