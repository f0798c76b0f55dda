//! The correctness cornerstone of the sharded service: **a
//! `ShardedLocaterService` with any shard count answers byte-identically to
//! the same service with one shard** — with the caching engine on and off,
//! so per-shard model placement, the multi-shard read view and per-shard
//! epoch tables are proven equivalent rather than sidestepped.
//!
//! The seeded interleavings, and the one-shard twin they are checked against,
//! are the shared harness in `support/twin.rs`; its tie bursts fill the
//! global timeline with exact cross-device ties, so the canonical
//! `(t, device)` neighbour order — what makes sharding
//! representation-transparent — is exercised, not dodged. The covering rows
//! R2–R5 run two and three shards in both fine modes against their
//! one-shard twin: answers, stores, lazy models and cache counts.

use crate::support::{fixture::space, scratch, twin};
use locater::prelude::*;
use locater::store::RawEvent;

/// The covering rows with two and three shards in I-FINE (R2, R4), against
/// their one-shard twin: answers, stores, lazy models and cache counts.
#[test]
fn sharded_answers_equal_single_shard_independent_mode() {
    twin::check(2);
    twin::check(4);
}

/// The covering rows with two and three shards in D-FINE (R3, R5).
#[test]
fn sharded_answers_equal_single_shard_dependent_mode() {
    twin::check(3);
    twin::check(5);
}

#[test]
fn sharded_snapshot_roundtrip_is_bit_identical() {
    // save → load with a different shard count → identical answers and
    // identical re-saved bytes: the snapshot format is shard-count agnostic.
    let config = LocaterConfig::default();
    let sharded = ShardedLocaterService::new(EventStore::new(space()), config, 4);
    let macs = ["alice", "bob", "carol", "dave"];
    for i in 0..96 {
        // Four devices per timestamp: cross-device ties throughout.
        let ap = ["wap0", "wap1", "wap2"][i % 3];
        sharded
            .ingest(macs[i % 4], 1_000 + (i / 4) as i64 * 400, ap)
            .unwrap();
    }
    let dir = scratch::scratch("shard-snap");
    let path = dir.join("service.snap");
    sharded.save_snapshot(&path).unwrap();

    let reloaded = ShardedLocaterService::from_snapshot(&path, config, 2).unwrap();
    assert_eq!(reloaded.num_shards(), 2);
    assert!(reloaded.store_snapshot() == sharded.store_snapshot());
    for mac in macs {
        for t in [500, 2_000, 4_250, 9_000, 100_000] {
            let probe = LocateRequest::by_mac(mac, t);
            let a = sharded.locate(&probe).unwrap();
            let b = reloaded.locate(&probe).unwrap();
            assert_eq!(a.answer, b.answer, "{mac} at {t}");
        }
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
