//! The correctness cornerstone of the co-location index: **every affinity the
//! indexed fast paths compute is bit-identical to the reference timeline
//! scan** — same event counts, same float divisions — for random ingest
//! interleavings (out-of-window events, out-of-order arrivals and δ-boundary
//! ties included), under per-device sharding at N ∈ {2, 3, 8}, and across
//! snapshot round-trips in both index modes.
//!
//! The reference semantics is [`ScanRead`]: a view of the same store with the
//! index masked, which forces [`AffinityEngine`] onto its scan oracle, the
//! windowed timeline scans. Equality is asserted on `f64::to_bits`, not
//! approximate closeness, and extends to whole [`FineLocalizer`] outcomes
//! (`FineOutcome` comparison is exact on every probability).

use locater::core::fine::{AffinityEngine, FineConfig, FineLocalizer, FineMode};
use locater::prelude::*;
use locater::store::{ScanRead, ShardedRead};
use locater_store::EventRead;

fn space() -> Space {
    SpaceBuilder::new("affinity-index-equivalence")
        .add_access_point("wap0", &["office-a", "office-b", "lounge"])
        .add_access_point("wap1", &["lounge", "lab", "office-c"])
        .add_access_point("wap2", &["office-c", "office-d"])
        .room_type("lounge", RoomType::Public)
        .room_owner("office-a", "alice")
        .room_owner("office-b", "bob")
        .room_owner("office-c", "carol")
        .build()
        .unwrap()
}

const MACS: [&str; 5] = ["alice", "bob", "carol", "dave", "erin"];
const APS: [&str; 3] = ["wap0", "wap1", "wap2"];

/// A tiny deterministic LCG so the interleavings are reproducible.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

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

/// Asserts that every affinity and fine outcome computed through `indexed`
/// equals the reference scan over the same view, bit for bit.
fn assert_engine_equivalence(indexed: &dyn EventRead, label: &str, anchors: &[i64]) {
    let scan = ScanRead::new(indexed);
    let config = FineConfig::default();
    let fast = AffinityEngine::new(indexed, config.weights, config.affinity_window);
    let slow = AffinityEngine::new(&scan, config.weights, config.affinity_window);
    let devices: Vec<DeviceId> = (0..indexed.num_devices() as u32)
        .map(DeviceId::new)
        .collect();

    for &until in &probe_times(anchors) {
        for &a in &devices {
            for &b in &devices {
                let x = fast.pair_affinity(a, b, until);
                let y = slow.pair_affinity(a, b, until);
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{label}: pair ({a}, {b}) at {until}: {x} != {y}"
                );
                // Session answers must match the one-shot engine bit for bit.
                let session = fast.pair_session(a, until);
                let s = session.affinity(b);
                assert_eq!(
                    s.to_bits(),
                    x.to_bits(),
                    "{label}: session pair ({a}, {b}) at {until}: {s} != {x}"
                );
            }
        }
        // Triples (and a duplicate-member set) through the k-way path.
        for window in devices.windows(3) {
            let x = fast.device_affinity(window, until);
            let y = slow.device_affinity(window, until);
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: triple at {until}");
        }
        let dup = [devices[0], devices[0]];
        assert_eq!(
            fast.device_affinity(&dup, until).to_bits(),
            slow.device_affinity(&dup, until).to_bits(),
            "{label}: duplicate-member set at {until}"
        );
    }

    // Whole fine outcomes — cold locate over both views, both modes.
    for mode in [FineMode::Independent, FineMode::Dependent] {
        let localizer = FineLocalizer::new(FineConfig {
            mode,
            ..FineConfig::default()
        });
        for &t_q in probe_times(anchors).iter().take(6) {
            for &device in &devices {
                let Some(region) = indexed.covering_region(device, t_q) else {
                    continue;
                };
                let via_index = localizer.locate(indexed, device, t_q, region, None);
                let via_scan = localizer.locate(&scan, device, t_q, region, None);
                assert_eq!(
                    via_index, via_scan,
                    "{label}: {mode} outcome for {device} at {t_q} diverged"
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
        // The sharded view routes postings to owner shards; affinities over it
        // must equal both its own scan view and the combined store.
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

        // Rejoin restores the identical store, co-location index included
        // (`EventStore` equality covers every index structure).
        let rejoined = EventStore::rejoin(&pieces).unwrap();
        assert_eq!(rejoined, store, "rejoin(split(store, {shards})) != store");
    }
}

#[test]
fn equivalence_survives_a_snapshot_roundtrip() {
    // A snapshot stores no index: the one rebuilt on load must answer
    // exactly like the original.
    let (store, anchors) = random_store(7_777, 220);
    let bytes = store.to_snapshot_bytes().unwrap();
    let back = EventStore::from_snapshot_bytes(&bytes).unwrap();
    assert_eq!(back, store, "the round-trip must be identical");
    assert_engine_equivalence(&back, "snapshot", &anchors);
}

#[test]
fn live_ingest_interleavings_keep_index_and_scan_in_step() {
    // Ingest/locate interleavings through the live service: after every burst
    // the service's store (index included) equals a scan-checked rebuild, and
    // engine answers stay bit-identical.
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
        let fast = AffinityEngine::new(&snapshot, config.weights, config.affinity_window);
        let scan = ScanRead::new(&snapshot);
        let slow = AffinityEngine::new(&scan, config.weights, config.affinity_window);
        for a in 0..snapshot.num_devices() as u32 {
            for b in 0..snapshot.num_devices() as u32 {
                let (a, b) = (DeviceId::new(a), DeviceId::new(b));
                let until = t - rng.below(2_000) as i64;
                assert_eq!(
                    fast.pair_affinity(a, b, until).to_bits(),
                    slow.pair_affinity(a, b, until).to_bits(),
                    "burst {burst}: pair ({a}, {b}) at {until}"
                );
            }
        }
        // And the service's answers match a freshly built service (the
        // index is rebuilt from scratch there) — the service_equivalence
        // guarantee extended over the index.
        let rebuilt = ShardedLocaterService::new(snapshot, LocaterConfig::default(), 1);
        let probe = LocateRequest::by_mac(MACS[burst % MACS.len()], t - 300);
        match (service.locate(&probe), rebuilt.locate(&probe)) {
            (Ok(live), Ok(fresh)) => assert_eq!(live.answer, fresh.answer, "burst {burst}"),
            (live, fresh) => assert_eq!(live.is_err(), fresh.is_err(), "burst {burst}"),
        }
    }
}
