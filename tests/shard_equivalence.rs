//! The correctness cornerstone of the sharded service: **a
//! `ShardedLocaterService` with any shard count answers byte-identically to
//! the same service with one shard** — with the caching engine *enabled*, so
//! per-shard cache placement, the multi-shard read view, and per-shard epoch
//! tables are all proven equivalent rather than sidestepped.
//!
//! Both services replay the same LCG-seeded interleaving of `ingest_batch`,
//! single `ingest`s and `locate` calls (which warm affinity edges and coarse
//! models over intermediate store states, on whichever shard owns them), then
//! a probe trace compares answers query by query. The synthetic workload
//! deliberately contains *exact timestamp ties across devices* so the
//! canonical `(t, device)` neighbor order — the property that makes sharding
//! representation-transparent — is exercised, not dodged.

use locater::prelude::*;
use locater::store::RawEvent;

fn space() -> Space {
    SpaceBuilder::new("shard-equivalence")
        .add_access_point("wap0", &["office-a", "office-b", "lounge"])
        .add_access_point("wap1", &["lounge", "lab", "office-c"])
        .room_type("lounge", RoomType::Public)
        .room_owner("office-a", "alice")
        .room_owner("office-b", "bob")
        .room_owner("office-c", "carol")
        .build()
        .unwrap()
}

const MACS: [&str; 4] = ["alice", "bob", "carol", "dave"];

/// One day of events for every device. Unlike the service-equivalence fixture,
/// the morning block is ingested at **identical timestamps across devices**
/// (no per-device offset), so the global timeline is full of cross-device
/// ties; the afternoon block keeps a small offset and splits across APs.
fn day_chunk(day: i64) -> Vec<RawEvent> {
    let mut events = Vec::new();
    for (idx, mac) in MACS.iter().enumerate() {
        for slot in 0..6 {
            let t = locater::events::clock::at(day, 9, slot * 20, 0);
            events.push(RawEvent::new(*mac, t, "wap0"));
        }
        let afternoon_ap = if idx >= 2 { "wap1" } else { "wap0" };
        for slot in 0..6 {
            let t = locater::events::clock::at(day, 13, slot * 20, 0) + idx as i64 * 40;
            events.push(RawEvent::new(*mac, t, afternoon_ap));
        }
    }
    events
}

/// Probe times over the final dataset: covered instants (with co-located
/// neighbors at tied timestamps), short (lunch) gaps, long (overnight) gaps,
/// and out-of-span times — every coarse path, plus fine steps whose neighbor
/// order the sharded view must reproduce.
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

/// Replays one LCG-seeded interleaving of ingests and locates on both a
/// single-shard `ShardedLocaterService` and one with `shards` partitions,
/// asserting byte-identical behaviour throughout.
fn assert_shard_equivalence(config: LocaterConfig, shards: usize, seed: u64, days: i64) {
    let single = ShardedLocaterService::new(EventStore::new(space()), config, 1);
    let sharded = ShardedLocaterService::new(EventStore::new(space()), config, shards);
    assert_eq!(sharded.num_shards(), shards);
    let mut rng = Lcg(seed);

    for day in 0..days {
        // Warm caches and models over the partial dataset on both services —
        // the same queries in the same order.
        if day > 0 {
            let queries = 1 + rng.below(4);
            for _ in 0..queries {
                let mac = MACS[rng.below(MACS.len() as u64) as usize];
                let q_day = rng.below(day as u64) as i64;
                let hour = 8 + rng.below(8) as i64;
                let t = locater::events::clock::at(q_day, hour, rng.below(60) as i64, 0);
                let request = LocateRequest::by_mac(mac, t);
                let a = single.locate(&request);
                let b = sharded.locate(&request);
                match (a, b) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a.answer, b.answer, "warm-up query diverged (seed {seed})");
                        assert_eq!(a.events_seen, b.events_seen);
                        assert_eq!(a.device_epoch, b.device_epoch);
                    }
                    (a, b) => assert_eq!(a.is_err(), b.is_err()),
                }
            }
        }
        let chunk = day_chunk(day);
        // Mix the ingestion APIs: bulk chunks on both, plus a few single-event
        // appends (routing through the home-shard fast path).
        if rng.below(2) == 0 {
            single.ingest_batch(chunk.iter()).expect("chunk ingests");
            sharded.ingest_batch(chunk.iter()).expect("chunk ingests");
        } else {
            for event in &chunk {
                single.ingest(&event.mac, event.t, &event.ap).unwrap();
                sharded.ingest(&event.mac, event.t, &event.ap).unwrap();
            }
        }
    }

    // The interleaving must actually have warmed cache state on the sharded
    // service, or the probes would not test cross-shard cache placement.
    assert!(
        sharded.cache_stats().0 > 0,
        "interleaving never warmed the sharded affinity caches (seed {seed})"
    );

    // Stores agree bit for bit: the sharded partitions rejoin to exactly the
    // single service's store.
    assert_eq!(single.store_snapshot(), sharded.store_snapshot());
    assert_eq!(single.num_events(), sharded.num_events());
    assert_eq!(single.num_devices(), sharded.num_devices());

    // Probe trace: both services answer the same queries in the same order,
    // warming their caches as they go. Answers must stay byte-identical.
    for (idx, probe) in probes(days).iter().enumerate() {
        match (single.locate(probe), sharded.locate(probe)) {
            (Ok(a), Ok(b)) => {
                assert_eq!(
                    a.answer, b.answer,
                    "probe {idx} diverged (shards={shards}, seed={seed})"
                );
                assert_eq!(a.events_seen, b.events_seen);
                assert_eq!(a.device_epoch, b.device_epoch);
            }
            (a, b) => assert_eq!(a.is_err(), b.is_err(), "probe {idx} outcome"),
        }
    }

    // Cache liveness totals agree.
    assert_eq!(single.live_cache_stats(), sharded.live_cache_stats());
    assert_eq!(single.cache_stats(), sharded.cache_stats());

    // The batch path: identical on both services for every job count. Both
    // sides run every batch (a batch's merge warms the cache, so the k-th
    // batch must be compared against the k-th batch).
    let batch_probes = probes(days);
    for jobs in [1usize, 2, 8] {
        let single_batch = single.locate_batch(&batch_probes, jobs);
        let sharded_batch = sharded.locate_batch(&batch_probes, jobs);
        assert_eq!(single_batch.len(), sharded_batch.len());
        for (idx, (a, b)) in single_batch.iter().zip(&sharded_batch).enumerate() {
            match (a, b) {
                (Ok(a), Ok(b)) => assert_eq!(
                    a.answer, b.answer,
                    "batch probe {idx} diverged (shards={shards}, jobs={jobs}, seed={seed})"
                ),
                (a, b) => assert_eq!(a.is_err(), b.is_err(), "batch probe {idx} outcome"),
            }
        }
    }

    // Purging stale state is equivalent too (same totals evicted).
    assert_eq!(single.purge_stale(), sharded.purge_stale());
    assert_eq!(single.cache_stats(), sharded.cache_stats());
}

#[test]
fn sharded_answers_equal_single_shard_independent_mode() {
    for (shards, seed) in [(2usize, 1u64), (3, 7), (8, 42)] {
        assert_shard_equivalence(LocaterConfig::default(), shards, seed, 6);
    }
}

#[test]
fn sharded_answers_equal_single_shard_dependent_mode() {
    for (shards, seed) in [(2usize, 11u64), (3, 23), (8, 5)] {
        assert_shard_equivalence(
            LocaterConfig::default().with_fine_mode(FineMode::Dependent),
            shards,
            seed,
            6,
        );
    }
}

#[test]
fn delta_reestimation_stays_equivalent_across_shards() {
    // `reestimate_deltas` must produce the same δs (written into every
    // replicated device table) and the same invalidation effects as the
    // single-shard service.
    let config = LocaterConfig::default();
    let single = ShardedLocaterService::new(EventStore::new(space()), config, 1);
    let sharded = ShardedLocaterService::new(EventStore::new(space()), config, 3);
    for day in 0..5 {
        single.ingest_batch(day_chunk(day).iter()).unwrap();
        sharded.ingest_batch(day_chunk(day).iter()).unwrap();
    }
    single.reestimate_deltas();
    sharded.reestimate_deltas();
    assert_eq!(sharded.live_cache_stats(), (0, 0));
    assert_eq!(single.store_snapshot(), sharded.store_snapshot());
    for probe in probes(5) {
        let a = single.locate(&probe).unwrap();
        let b = sharded.locate(&probe).unwrap();
        assert_eq!(a.answer, b.answer);
    }
}

#[test]
fn sharded_snapshot_roundtrip_is_bit_identical() {
    // save → load with a different shard count → identical answers and
    // identical re-saved bytes: the snapshot format is shard-count agnostic.
    let config = LocaterConfig::default();
    let sharded = ShardedLocaterService::new(EventStore::new(space()), config, 4);
    for day in 0..3 {
        sharded.ingest_batch(day_chunk(day).iter()).unwrap();
    }
    let dir = std::env::temp_dir().join(format!("locater-shard-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("service.snap");
    sharded.save_snapshot(&path).unwrap();

    let reloaded = ShardedLocaterService::from_snapshot(&path, config, 2).unwrap();
    assert_eq!(reloaded.num_shards(), 2);
    assert_eq!(reloaded.store_snapshot(), sharded.store_snapshot());
    for probe in probes(3) {
        let a = sharded.locate(&probe).unwrap();
        let b = reloaded.locate(&probe).unwrap();
        assert_eq!(a.answer, b.answer);
    }

    let repath = dir.join("service2.snap");
    reloaded.save_snapshot(&repath).unwrap();
    assert_eq!(
        std::fs::read(&path).unwrap(),
        std::fs::read(&repath).unwrap(),
        "snapshot bytes must be independent of the shard count"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn single_event_ingest_errors_match_single_shard() {
    let single = ShardedLocaterService::new(EventStore::new(space()), LocaterConfig::default(), 1);
    let sharded = ShardedLocaterService::new(EventStore::new(space()), LocaterConfig::default(), 3);

    // Unknown AP for a brand-new device: nothing interned on either side.
    for service_err in [
        single.ingest("ghost", 1_000, "wap9").unwrap_err(),
        sharded.ingest("ghost", 1_000, "wap9").unwrap_err(),
    ] {
        assert!(matches!(service_err, IngestError::UnknownAccessPoint(_)));
    }
    assert_eq!(single.num_devices(), 0);
    assert_eq!(sharded.num_devices(), 0);

    // Negative timestamp: same error, nothing interned.
    assert!(single.ingest("ghost", -5, "wap0").is_err());
    assert!(sharded.ingest("ghost", -5, "wap0").is_err());
    assert_eq!(sharded.num_devices(), 0);

    // A failing batch keeps the prefix on both sides, epochs included.
    let events = [
        RawEvent::new("alice", 1_000, "wap0"),
        RawEvent::new("bob", 1_100, "wap1"),
        RawEvent::new("alice", 1_200, "nope"),
        RawEvent::new("bob", 1_300, "wap1"),
    ];
    assert!(single.ingest_batch(events.iter()).is_err());
    assert!(sharded.ingest_batch(events.iter()).is_err());
    assert_eq!(single.num_events(), sharded.num_events());
    assert_eq!(sharded.num_events(), 2);
    let alice = sharded.device_id("alice").unwrap();
    let bob = sharded.device_id("bob").unwrap();
    assert_eq!(sharded.device_epoch(alice), 1);
    assert_eq!(sharded.device_epoch(bob), 1);
    assert_eq!(single.store_snapshot(), sharded.store_snapshot());
}
