//! Concurrent ingest-while-querying stress test for the live service: writer
//! threads append events while reader threads call `locate`, asserting that no
//! call panics, every query resolves, and — after quiescence and one more
//! ingest per device — answers are equivalent to a freshly rebuilt service
//! over the final store.

#[path = "support/fixture.rs"]
mod fixture;

use fixture::space;
use locater::prelude::*;
use locater::store::RawEvent;
use std::sync::atomic::{AtomicUsize, Ordering};

const MACS: [&str; 4] = ["alice", "bob", "carol", "dave"];

/// The seed store: every device already known, with one day of history so
/// queries always resolve while the writers append more days.
fn seed_store() -> EventStore {
    let mut store = EventStore::new(space());
    for (idx, mac) in MACS.iter().enumerate() {
        for slot in 0..8 {
            let t = locater::events::clock::at(0, 9, slot * 30, 0) + idx as i64 * 20;
            store.ingest_raw(mac, t, "wap0").unwrap();
        }
    }
    store
}

/// The event stream one writer appends: `days` further days of activity for
/// every device, in a writer-specific day range so the two writers never
/// produce colliding timestamps.
fn writer_stream(first_day: i64, days: i64) -> Vec<RawEvent> {
    let mut events = Vec::new();
    for day in first_day..first_day + days {
        for (idx, mac) in MACS.iter().enumerate() {
            let ap = if idx % 2 == 0 { "wap0" } else { "wap1" };
            for slot in 0..6 {
                let t = locater::events::clock::at(day, 9, slot * 25, 0) + idx as i64 * 20;
                events.push(RawEvent::new(*mac, t, ap));
            }
        }
    }
    events
}

#[test]
fn concurrent_ingest_and_locate_is_safe_and_converges() {
    let service = ShardedLocaterService::new(seed_store(), LocaterConfig::default(), 1);
    let answered = AtomicUsize::new(0);
    let ingested = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        // Two writers appending disjoint day ranges, in small batches so the
        // readers interleave with many store mutations.
        for (writer, first_day) in [(0i64, 1i64), (1, 4)] {
            let service = &service;
            let ingested = &ingested;
            scope.spawn(move || {
                let stream = writer_stream(first_day, 3);
                for chunk in stream.chunks(8) {
                    let count = service
                        .ingest_batch(chunk.iter())
                        .unwrap_or_else(|e| panic!("writer {writer} failed to ingest: {e}"));
                    ingested.fetch_add(count, Ordering::Relaxed);
                }
            });
        }
        // Three readers issuing queries over the growing dataset.
        for reader in 0..3usize {
            let service = &service;
            let answered = &answered;
            scope.spawn(move || {
                for i in 0..40usize {
                    let mac = MACS[(reader + i) % MACS.len()];
                    let day = (i % 7) as i64;
                    let minute = ((reader * 17 + i * 7) % 60) as i64;
                    let t = locater::events::clock::at(day, 9 + (i % 6) as i64, minute, 0);
                    let request = if i % 5 == 0 {
                        LocateRequest::by_mac(mac, t).with_diagnostics()
                    } else {
                        LocateRequest::by_mac(mac, t)
                    };
                    let response = service
                        .locate(&request)
                        .unwrap_or_else(|e| panic!("reader {reader} query failed: {e}"));
                    assert!((0.0..=1.0).contains(&response.answer.confidence));
                    answered.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });

    assert_eq!(answered.load(Ordering::Relaxed), 120);
    let expected_events = seed_store().num_events() + ingested.load(Ordering::Relaxed);
    assert_eq!(service.num_events(), expected_events);

    // Post-quiescence equivalence. Queries that ran after a device's last
    // ingest may have left *valid* warm state a cold rebuild would not have,
    // so one more event per device stales all of it first; the equivalence
    // then proves that everything the concurrent phase cached is invisible
    // once its epochs moved on.
    for mac in MACS {
        service
            .ingest(mac, locater::events::clock::at(7, 9, 0, 0), "wap0")
            .unwrap();
    }
    assert_eq!(service.live_cache_stats(), (0, 0));
    let fresh = ShardedLocaterService::new(service.store_snapshot(), LocaterConfig::default(), 1);
    for day in [2i64, 5, 6] {
        for mac in MACS {
            for (hour, minute) in [(9, 40), (12, 10), (3, 0)] {
                let t = locater::events::clock::at(day, hour, minute, 0);
                let request = LocateRequest::by_mac(mac, t);
                let live = service.locate(&request).unwrap();
                let rebuilt = fresh.locate(&request).unwrap();
                assert_eq!(
                    live.answer, rebuilt.answer,
                    "post-quiescence answer diverged for {mac} at day {day} {hour}:{minute}"
                );
            }
        }
    }
}
