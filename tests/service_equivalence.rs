//! The correctness cornerstone of the live service: **after any ingest
//! sequence, answers equal those of a freshly built system over the same
//! data** — with the caching engine *enabled*, i.e. epoch invalidation is
//! proven correct rather than sidestepped by clearing the cache.
//!
//! The tests interleave `ingest_batch` with `locate` calls (which warm the
//! affinity graph and per-device models over intermediate store states), then
//! compare a probe-query trace against a freshly constructed service over the
//! final store. Because every ingest chunk carries events for every device,
//! the final chunk leaves the warmed cache entirely stale: the live service
//! and the fresh one must make byte-identical decisions from there on, probe
//! by probe, while both warm their caches along the trace.

use locater::prelude::*;
use locater::store::RawEvent;

fn space() -> Space {
    SpaceBuilder::new("equivalence")
        .add_access_point("wap0", &["office-a", "office-b", "lounge"])
        .add_access_point("wap1", &["lounge", "lab", "office-c"])
        .room_type("lounge", RoomType::Public)
        .room_owner("office-a", "alice")
        .room_owner("office-b", "bob")
        .room_owner("office-c", "carol")
        .build()
        .unwrap()
}

const MACS: [&str; 3] = ["alice", "bob", "carol"];

/// One day of events for every device: a morning block on wap0 and an
/// afternoon block whose AP depends on the device, leaving a lunch gap and an
/// overnight gap to clean.
fn day_chunk(day: i64) -> Vec<RawEvent> {
    let mut events = Vec::new();
    for (idx, mac) in MACS.iter().enumerate() {
        let offset = idx as i64 * 40;
        for slot in 0..6 {
            let t = locater::events::clock::at(day, 9, slot * 20, 0) + offset;
            events.push(RawEvent::new(*mac, t, "wap0"));
        }
        let afternoon_ap = if idx == 2 { "wap1" } else { "wap0" };
        for slot in 0..6 {
            let t = locater::events::clock::at(day, 13, slot * 20, 0) + offset;
            events.push(RawEvent::new(*mac, t, afternoon_ap));
        }
    }
    events
}

/// Probe times over the final dataset: covered instants, short (lunch) gaps,
/// long (overnight) gaps, and out-of-span times — every coarse path.
fn probes(days: i64) -> Vec<LocateRequest> {
    let mut probes = Vec::new();
    for day in [days - 1, days - 2] {
        for mac in MACS {
            probes.push(LocateRequest::by_mac(
                mac,
                locater::events::clock::at(day, 9, 30, 10),
            ));
            probes.push(LocateRequest::by_mac(
                mac,
                locater::events::clock::at(day, 12, 15, 0),
            ));
            probes.push(LocateRequest::by_mac(
                mac,
                locater::events::clock::at(day, 3, 0, 0),
            ));
        }
    }
    probes.push(LocateRequest::by_mac(
        "alice",
        locater::events::clock::at(days + 300, 12, 0, 0),
    ));
    probes
}

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

/// Runs one interleaving of `ingest_batch` and `locate` calls and asserts the
/// post-quiescence equivalence with a rebuilt service.
fn assert_equivalence(config: LocaterConfig, seed: u64, days: i64) {
    let service = ShardedLocaterService::new(EventStore::new(space()), config, 1);
    let mut rng = Lcg(seed);

    for day in 0..days {
        // Warm the cache and the per-device models over the partial dataset.
        // The locate calls come *before* each chunk so the trace ends with an
        // ingest — the probes below are then the post-ingest query sequence,
        // replayed identically on the rebuilt service.
        if day > 0 {
            let queries = 1 + rng.below(4);
            for _ in 0..queries {
                let mac = MACS[rng.below(MACS.len() as u64) as usize];
                let q_day = rng.below(day as u64) as i64;
                let hour = 8 + rng.below(8) as i64;
                let t = locater::events::clock::at(q_day, hour, rng.below(60) as i64, 0);
                let _ = service.locate(&LocateRequest::by_mac(mac, t));
            }
        }
        service
            .ingest_batch(day_chunk(day).iter())
            .expect("chunk ingests");
    }

    // The interleaving must have actually warmed the cache, and the final
    // chunk (events for every device) must have invalidated all of it: the
    // equivalence below is then a real test of epoch invalidation, not of an
    // empty cache.
    let (warmed_edges, _) = service.cache_stats();
    assert!(
        warmed_edges > 0,
        "interleaving never warmed the affinity graph; probes would not test invalidation"
    );
    assert_eq!(
        service.live_cache_stats(),
        (0, 0),
        "final ingest chunk must leave no live cache state"
    );

    // A freshly built service over the exact final store.
    let fresh = ShardedLocaterService::new(service.store_snapshot(), config, 1);

    // Probe trace: both services answer the same queries in the same order,
    // warming their caches as they go. Answers must stay byte-identical.
    for (idx, probe) in probes(days).iter().enumerate() {
        let live = service.locate(probe).expect("probe resolves");
        let rebuilt = fresh.locate(probe).expect("probe resolves");
        assert_eq!(
            live.answer, rebuilt.answer,
            "probe {idx} diverged from the rebuilt service (seed {seed})"
        );
        assert_eq!(live.events_seen, rebuilt.events_seen);
    }

    // Both warmed their caches identically along the trace (the live one on
    // top of its stale remnants, which stay invisible).
    assert_eq!(
        service.live_cache_stats(),
        fresh.live_cache_stats(),
        "live cache state diverged from the rebuilt service (seed {seed})"
    );
    assert!(
        service.live_cache_stats().0 > 0,
        "probe trace should have re-warmed the cache"
    );

    // The batch path answers the same trace identically on both services and
    // for every job count (determinism through the request layer).
    let batch_probes = probes(days);
    let live_batch = service.locate_batch(&batch_probes, 1);
    for jobs in [2, 8] {
        let fresh_batch = fresh.locate_batch(&batch_probes, jobs);
        assert_eq!(live_batch.len(), fresh_batch.len());
        for (idx, (a, b)) in live_batch.iter().zip(&fresh_batch).enumerate() {
            match (a, b) {
                (Ok(a), Ok(b)) => assert_eq!(
                    a.answer, b.answer,
                    "batch probe {idx} diverged (jobs={jobs}, seed {seed})"
                ),
                (a, b) => assert_eq!(a.is_err(), b.is_err(), "batch probe {idx} outcome"),
            }
        }
    }
}

#[test]
fn ingest_then_locate_equals_fresh_build_independent_mode() {
    for seed in [1, 7, 42] {
        assert_equivalence(LocaterConfig::default(), seed, 6);
    }
}

#[test]
fn ingest_then_locate_equals_fresh_build_dependent_mode() {
    assert_equivalence(
        LocaterConfig::default().with_fine_mode(FineMode::Dependent),
        11,
        6,
    );
}

#[test]
fn delta_reestimation_invalidates_and_stays_equivalent() {
    // `reestimate_deltas` reshapes every device's gap structure; it must bump
    // all epochs so that answers keep matching a rebuild of the final store
    // (whose snapshot carries the re-estimated deltas).
    let config = LocaterConfig::default();
    let service = ShardedLocaterService::new(EventStore::new(space()), config, 1);
    for day in 0..5 {
        service.ingest_batch(day_chunk(day).iter()).unwrap();
        let t = locater::events::clock::at(day, 12, 10, 0);
        let _ = service.locate(&LocateRequest::by_mac("alice", t));
        let _ = service.locate(&LocateRequest::by_mac("bob", t));
    }
    service.reestimate_deltas();
    assert_eq!(service.live_cache_stats(), (0, 0));

    let fresh = ShardedLocaterService::new(service.store_snapshot(), config, 1);
    for probe in probes(5) {
        let live = service.locate(&probe).unwrap();
        let rebuilt = fresh.locate(&probe).unwrap();
        assert_eq!(live.answer, rebuilt.answer);
    }
}

#[test]
fn partial_ingest_invalidates_only_touched_devices() {
    // Epoch granularity: an ingest for one device must stale exactly the
    // edges incident to it, keeping the rest of the warm cache live.
    let service = ShardedLocaterService::new(EventStore::new(space()), LocaterConfig::default(), 1);
    for day in 0..4 {
        service.ingest_batch(day_chunk(day).iter()).unwrap();
    }
    // Warm edges around alice (alice↔bob on wap0) and carol (afternoon wap1).
    let morning = locater::events::clock::at(3, 9, 30, 10);
    let afternoon = locater::events::clock::at(3, 13, 30, 10);
    service
        .locate(&LocateRequest::by_mac("alice", morning))
        .unwrap();
    service
        .locate(&LocateRequest::by_mac("carol", afternoon))
        .unwrap();
    let (live_before, _) = service.live_cache_stats();
    assert!(live_before > 0, "expected a warm cache");

    let alice = service.device_id("alice").unwrap();
    let carol = service.device_id("carol").unwrap();
    let alice_epoch = service.device_epoch(alice);
    let carol_epoch = service.device_epoch(carol);

    // One new event for alice only.
    service
        .ingest("alice", locater::events::clock::at(4, 9, 0, 0), "wap0")
        .unwrap();
    assert_eq!(service.device_epoch(alice), alice_epoch + 1);
    assert_eq!(service.device_epoch(carol), carol_epoch);

    let (live_after, _) = service.live_cache_stats();
    assert!(
        live_after < live_before,
        "alice's edges must go stale ({live_before} -> {live_after})"
    );
    assert!(
        live_after > 0,
        "edges not incident to alice must survive the ingest"
    );
}
