//! The correctness cornerstone of the live service: **after any ingest
//! sequence, answers equal those of a freshly built system over the same
//! data** — with the caching engine *enabled*, i.e. epoch invalidation is
//! proven correct rather than sidestepped by clearing the cache.
//!
//! The seeded interleavings are the shared harness in `support/twin.rs`: its
//! tie bursts give every device an event at one instant, after which nothing
//! in the cache may be live, and the probes after each burst must answer
//! exactly like a service freshly built over the acked events and leave the
//! same live cache state behind. The covering rows with the cache on (R0,
//! R2 and R5) require most bursts of every run to have found it warm.

use crate::support::{fixture::space, twin};
use locater::events::clock;
use locater::prelude::*;
use locater::store::RawEvent;

/// The covering rows with the cache on, in I-FINE (R0, R2).
#[test]
fn ingest_then_locate_equals_fresh_build_independent_mode() {
    twin::check(0);
    twin::check(2);
}

/// The covering row with the cache on, in D-FINE (R5).
#[test]
fn ingest_then_locate_equals_fresh_build_dependent_mode() {
    twin::check(5);
}

#[test]
fn partial_ingest_invalidates_only_touched_devices() {
    // Epoch granularity: an ingest for one device must stale exactly the
    // edges incident to it, keeping the rest of the warm cache live.
    let service = ShardedLocaterService::new(EventStore::new(space()), LocaterConfig::default(), 1);
    // Four days: a morning block on wap0 for everyone, an afternoon block on
    // wap0 for alice and bob and on wap1 for carol.
    let mut events = Vec::new();
    for day in 0..4 {
        for (idx, mac) in ["alice", "bob", "carol"].into_iter().enumerate() {
            let afternoon = if idx == 2 { "wap1" } else { "wap0" };
            for slot in 0..6 {
                let offset = idx as i64 * 40;
                events.push(RawEvent::new(
                    mac,
                    clock::at(day, 9, slot * 20, 0) + offset,
                    "wap0",
                ));
                events.push(RawEvent::new(
                    mac,
                    clock::at(day, 13, slot * 20, 0) + offset,
                    afternoon,
                ));
            }
        }
    }
    service.ingest_batch(events.iter()).unwrap();
    // Warm edges around alice (alice↔bob on wap0) and carol (afternoon wap1).
    let morning = clock::at(3, 9, 30, 10);
    let afternoon = clock::at(3, 13, 30, 10);
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
        .ingest("alice", clock::at(4, 9, 0, 0), "wap0")
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
