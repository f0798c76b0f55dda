//! The correctness cornerstone of the durability subsystem: **kill-and-recover
//! equivalence**. A durable `ShardedLocaterService` killed at an arbitrary
//! point, then recovered from its WAL, must hold exactly the acked events.
//! The shared harness in `support/twin.rs` kills its durable subjects (R1,
//! R2 and R5) at seeded points of a live interleaving — after compactions,
//! on top of the reboot of an earlier crash, rebooting at another shard
//! count — and checks the recovered store against its event model and
//! every later answer against its twin: each reboot replays exactly the
//! ingests acked since the last checkpoint, with no torn tail. R1 requires
//! a replayed tail, R2 a reboot at another shard count (the WAL layout is
//! per-shard, but recovery merges by global event id), and every durable
//! run a second crash after a reboot.
//!
//! "Killed" means the service is dropped without a checkpoint: nothing runs
//! between the last acknowledged append and the reboot, exactly like a
//! `SIGKILL` after the last append returned. On top of the clean kills, the
//! directed tests below simulate *torn* final writes by truncating the last
//! segment at **every byte boundary** of its final frame (and reboot once
//! more to show the boot replaced the torn log), prove that a corrupt middle
//! segment is a typed error (never a panic, never silent data loss) repaired
//! by `truncate_wal`, and that a graceful drain checkpoints so a clean
//! shutdown leaves an empty tail.

use crate::support::{durability, fixture::space, lcg::Lcg, scratch::scratch, twin, MACS};
use locater::prelude::*;
use locater::proto::{WireRequest, WireResponse};
use locater::server::ServerState;
use locater::store::{
    checkpoint_path, inspect_wal, truncate_wal, Durability, FsyncPolicy, WalError,
};
use std::path::Path;

/// One LCG-seeded ingest trace: timestamps deliberately include exact
/// cross-device ties and *out-of-order splices* (a third of the events land
/// earlier than the device's current tail), so replay exercises the same
/// splice paths the live ingest did.
fn trace(seed: u64, len: usize) -> Vec<(String, i64, String)> {
    let mut rng = Lcg(seed);
    let mut ops = Vec::with_capacity(len);
    for i in 0..len {
        let mac = MACS[rng.below(MACS.len() as u64) as usize].to_string();
        let ap = if rng.below(2) == 0 { "wap0" } else { "wap1" };
        let t = if rng.below(3) == 0 {
            // Splice: strictly earlier than the trace frontier.
            1_000 + rng.below(200) as i64
        } else {
            // Frontier with ties: several devices share the same slot.
            2_000 + (i as i64 / 4) * 60
        };
        ops.push((mac, t, ap.to_string()));
    }
    ops
}

/// The uncrashed reference: a plain (non-durable) service that ingested the
/// prefix, rendered as snapshot bytes.
fn reference_bytes(shards: usize, prefix: &[(String, i64, String)]) -> Vec<u8> {
    let service =
        ShardedLocaterService::new(EventStore::new(space()), LocaterConfig::default(), shards);
    for (mac, t, ap) in prefix {
        service.ingest(mac, *t, ap).expect("reference ingest");
    }
    service
        .store_snapshot()
        .to_snapshot_bytes()
        .expect("reference snapshot")
}

/// Every durable harness run crashes at seeded points: each reboot replays
/// exactly the ingests acked since the last checkpoint, with no torn tail,
/// and recovers the model of what was acked (R1).
#[test]
fn kill_and_recover_is_byte_identical_to_the_uncrashed_prefix() {
    twin::check(1);
}

/// Every durable harness run crashes again after a reboot: the second
/// reboot recovers the first one's boot checkpoint plus the new tail (R5).
#[test]
fn recovery_survives_a_reboot_of_a_reboot() {
    twin::check(5);
}

/// The WAL layout is per-shard, but recovery merges by global event id:
/// every other crash of a durable harness run reboots at another shard
/// count (R2).
#[test]
fn recovery_across_a_shard_count_change_is_byte_identical() {
    twin::check(2);
}

#[test]
fn rejected_ingests_reach_neither_the_log_nor_the_store() {
    // Validation precedes the id draw and the append, so the store and the
    // log cannot diverge: every rejection leaves both exactly as they were.
    for shards in [1usize, 3] {
        let dir = scratch("rejected");
        let (service, _) = ShardedLocaterService::with_durability(
            EventStore::new(space()),
            LocaterConfig::default(),
            shards,
            durability(&dir),
        )
        .expect("durable boot");
        let accepted = trace(0xBAD, 12);
        let rejected = [
            (MACS[0], 9_000, "no-such-ap"),
            (MACS[0], -5, "wap0"),
            ("not:a:mac", 9_000, "wap0"),
        ];
        for (i, (mac, t, ap)) in accepted.iter().enumerate() {
            service.ingest(mac, *t, ap).expect("durable ingest");
            let device = service.device_id(MACS[0]);
            let gauges = || {
                (
                    service.wal_status().expect("durable").frames,
                    service.num_events(),
                    device.map(|d| service.device_epoch(d)),
                )
            };
            let before = gauges();
            let (mac, t, ap) = rejected[i % rejected.len()];
            service
                .ingest(mac, t, ap)
                .expect_err("invalid event must be rejected");
            assert_eq!(gauges(), before, "{mac} {t} {ap} (shards={shards})");
            assert_eq!(service.device_id("not:a:mac"), None, "nothing interned");
        }
        assert_eq!(service.wal_status().unwrap().frames, accepted.len() as u64);
        drop(service); // crash

        let (rebooted, report) = ShardedLocaterService::with_durability(
            EventStore::new(space()),
            LocaterConfig::default(),
            shards,
            durability(&dir),
        )
        .expect("reboot");
        assert_eq!(report.replayed, accepted.len() as u64);
        assert_eq!(
            rebooted.store_snapshot().to_snapshot_bytes().unwrap(),
            reference_bytes(shards, &accepted),
            "exactly the accepted ingests replay (shards={shards})"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn out_of_range_timestamps_draw_no_id_and_reach_no_log() {
    // A stored event keeps t in 32 bits. Every ingest path refuses a t
    // outside [0, 2³²) before it draws an id or appends a frame: the next
    // accepted event takes the id the refused ones would have, and a reboot
    // replays exactly the accepted events.
    use locater::events::EVENT_TIME_LIMIT;
    use locater::store::RawEvent;
    const NEWCOMER: &str = "bb:00:00:00:00:09";
    for shards in [1usize, 3] {
        let dir = scratch("out-of-range");
        let (service, _) = ShardedLocaterService::with_durability(
            EventStore::new(space()),
            LocaterConfig::default(),
            shards,
            durability(&dir),
        )
        .expect("durable boot");
        let state = ServerState::new(service, None);
        let service = state.service();
        let mut accepted = Vec::new();
        for (i, t) in [-1, EVENT_TIME_LIMIT, i64::MAX].into_iter().enumerate() {
            let gauges = || {
                (
                    service.wal_status().expect("durable").frames,
                    service.num_events(),
                )
            };
            let before = gauges();
            let expected = IngestError::InvalidTimestamp(t);
            // A known device (after the first round) and one never seen.
            for mac in [MACS[0], NEWCOMER] {
                let tagged = service.ingest_tagged(mac, t, "wap0", Some(i as u64));
                assert_eq!(tagged.unwrap_err(), expected, "{mac} {t}");
                let batch = [RawEvent {
                    mac: mac.into(),
                    t,
                    ap: "wap0".into(),
                }];
                assert_eq!(service.ingest_batch(&batch).unwrap_err(), expected);
                let wire = state.execute(&WireRequest::Ingest {
                    mac: mac.into(),
                    t,
                    ap: "wap0".into(),
                    request_id: Some(100 + i as u64),
                });
                let WireResponse::Error(err) = wire else {
                    panic!("{mac} {t}: expected an error, got {wire:?}");
                };
                assert!(err.to_string().contains(&expected.to_string()), "{err}");
            }
            assert_eq!(gauges(), before, "t {t} (shards={shards})");
            assert_eq!(service.device_id(NEWCOMER), None, "nothing interned");
            let event = (
                MACS[0].to_string(),
                2_000 + 60 * i as i64,
                "wap0".to_string(),
            );
            let id = service.ingest(&event.0, event.1, &event.2).unwrap();
            assert_eq!(id, EventId::new(accepted.len() as u64), "no id drawn");
            accepted.push(event);
        }
        assert_eq!(service.wal_status().unwrap().frames, accepted.len() as u64);
        drop(state); // crash

        let (rebooted, report) = ShardedLocaterService::with_durability(
            EventStore::new(space()),
            LocaterConfig::default(),
            shards,
            durability(&dir),
        )
        .expect("reboot");
        assert_eq!(report.replayed, accepted.len() as u64);
        assert_eq!(
            rebooted.store_snapshot().to_snapshot_bytes().unwrap(),
            reference_bytes(shards, &accepted),
            "exactly the accepted ingests replay (shards={shards})"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Copies a WAL directory tree (checkpoint + shard dirs) into `dst`.
fn copy_wal(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_wal(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).unwrap();
        }
    }
}

#[test]
fn torn_final_frame_is_truncated_at_every_byte_boundary() {
    // Single shard, fsync always: ingest N events, recording the segment
    // length after each append, then simulate a torn final write by cutting
    // the file at every byte boundary inside the last frame.
    let ops = trace(7, 8);
    let (last, durable) = ops.split_last().unwrap();
    let dir = scratch("torn");
    let seg = {
        let (service, _) = ShardedLocaterService::with_durability(
            EventStore::new(space()),
            LocaterConfig::default(),
            1,
            durability(&dir),
        )
        .unwrap();
        for (mac, t, ap) in durable {
            service.ingest(mac, *t, ap).unwrap();
        }
        let shard_dir = dir.join("shard-0000");
        let seg = std::fs::read_dir(&shard_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .max()
            .expect("one active segment");
        let len_before = std::fs::metadata(&seg).unwrap().len();
        let (mac, t, ap) = last;
        service.ingest(mac, *t, ap).unwrap();
        let len_after = std::fs::metadata(&seg).unwrap().len();
        assert!(len_after > len_before, "the last frame grew the segment");
        (seg, len_before, len_after)
    };
    let (seg_path, len_before, len_after) = seg;
    let seg_name = seg_path.file_name().unwrap().to_owned();
    let expect_durable = reference_bytes(1, durable);
    let expect_full = reference_bytes(1, &ops);

    for cut in len_before..=len_after {
        let case = scratch("torncase");
        copy_wal(&dir, &case);
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(case.join("shard-0000").join(&seg_name))
            .unwrap();
        file.set_len(cut).unwrap();
        drop(file);

        let (recovered, report) = ShardedLocaterService::with_durability(
            EventStore::new(space()),
            LocaterConfig::default(),
            1,
            durability(&case),
        )
        .unwrap_or_else(|e| panic!("torn tail at byte {cut} must recover, got {e}"));
        if cut == len_after {
            // Nothing torn: the full trace survives.
            assert!(report.torn.is_empty());
            assert_eq!(
                recovered.store_snapshot().to_snapshot_bytes().unwrap(),
                expect_full
            );
        } else {
            // The torn frame is discarded, the durable prefix survives
            // bit-for-bit — even when the cut slices the frame header. A cut
            // exactly at the previous frame boundary is simply a clean
            // (shorter) log, not a tear.
            if cut == len_before {
                assert!(report.torn.is_empty(), "byte {cut} is a frame boundary");
            } else {
                assert_eq!(report.torn.len(), 1, "cut at byte {cut} reports the tear");
            }
            assert_eq!(report.replayed, durable.len() as u64);
            assert_eq!(
                recovered.store_snapshot().to_snapshot_bytes().unwrap(),
                expect_durable,
                "durable prefix diverged after a cut at byte {cut}"
            );
            // The boot is the way back: its checkpoint replaced the torn
            // log, so the lost ingest logs again and the next crash
            // recovers it from a clean tail.
            let (mac, t, ap) = last;
            recovered.ingest(mac, *t, ap).unwrap();
            drop(recovered);
            let (rebooted, report) = ShardedLocaterService::with_durability(
                EventStore::new(space()),
                LocaterConfig::default(),
                1,
                durability(&case),
            )
            .unwrap_or_else(|e| panic!("reboot after a cut at byte {cut}: {e}"));
            assert_eq!(report.replayed, 1, "cut at byte {cut}");
            assert!(report.torn.is_empty(), "cut at byte {cut}");
            assert_eq!(
                rebooted.store_snapshot().to_snapshot_bytes().unwrap(),
                expect_full,
                "cut at byte {cut}"
            );
        }
        std::fs::remove_dir_all(&case).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_middle_segment_is_a_typed_error_and_truncate_repairs_it() {
    // Tiny segments force a rotation per append, so the log has several
    // sealed middles. Damage in a *middle* segment is not a torn tail — it
    // must refuse recovery with a typed error pointing at the repair tool.
    let ops = trace(23, 6);
    let dir = scratch("corrupt");
    let config = Durability::new(&dir)
        .with_fsync(FsyncPolicy::Always)
        .with_segment_max_bytes(1);
    {
        let (service, _) = ShardedLocaterService::with_durability(
            EventStore::new(space()),
            LocaterConfig::default(),
            1,
            config.clone(),
        )
        .unwrap();
        for (mac, t, ap) in &ops {
            service.ingest(mac, *t, ap).unwrap();
        }
    }
    let shard_dir = dir.join("shard-0000");
    let mut segments: Vec<_> = std::fs::read_dir(&shard_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    segments.sort();
    assert!(segments.len() >= 4, "rotation produced sealed middles");

    // Flip one payload byte in the second segment.
    let victim = &segments[1];
    let mut bytes = std::fs::read(victim).unwrap();
    let idx = bytes.len() - 1;
    bytes[idx] ^= 0xFF;
    std::fs::write(victim, bytes).unwrap();

    let err = ShardedLocaterService::with_durability(
        EventStore::new(space()),
        LocaterConfig::default(),
        1,
        config.clone(),
    )
    .expect_err("corrupt middle segment must refuse recovery");
    assert!(
        matches!(err, WalError::Corrupt { .. }),
        "expected WalError::Corrupt, got {err:?}"
    );
    assert!(
        err.to_string().contains("wal truncate"),
        "the error must point at the repair tool: {err}"
    );

    // Repair: everything from the first invalid frame onward is discarded,
    // and the next boot replays exactly the frames that survived.
    let report = truncate_wal(&dir).expect("truncate repairs");
    assert_eq!(report.len(), 1);
    assert!(report[0].truncated.is_some());
    assert!(report[0].segments_removed >= 1);
    let surviving: u64 = inspect_wal(&dir)
        .unwrap()
        .shards
        .iter()
        .flat_map(|s| s.segments.iter())
        .map(|s| s.frames)
        .sum();
    assert_eq!(surviving, 1, "only the first segment's frame survives");

    let (recovered, recovery) = ShardedLocaterService::with_durability(
        EventStore::new(space()),
        LocaterConfig::default(),
        1,
        config,
    )
    .expect("repaired log recovers");
    assert_eq!(recovery.replayed, surviving);
    assert_eq!(
        recovered.store_snapshot().to_snapshot_bytes().unwrap(),
        reference_bytes(1, &ops[..surviving as usize]),
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The full restart-spanning idempotence chain: an ingest acknowledged (and
/// WAL-durable) whose ack the client never saw, a crash, a reboot that
/// re-seeds the serving layer's replay window from the recovery report —
/// and the client's retry answered from the reconstructed ack instead of
/// applied a second time.
#[test]
fn retries_of_acked_ingests_replay_across_a_crash_reboot() {
    let dir = scratch("dedup-reseed");
    {
        let (service, _) = ShardedLocaterService::with_durability(
            EventStore::new(space()),
            LocaterConfig::default(),
            2,
            durability(&dir),
        )
        .expect("durable boot");
        let state = ServerState::new(service, None);
        let ack = state.execute(&WireRequest::Ingest {
            mac: MACS[0].into(),
            t: 1_000,
            ap: "wap0".into(),
            request_id: Some(7_001),
        });
        assert!(matches!(ack, WireResponse::Ingested { .. }), "got {ack:?}");
        // Crash: dropped without a checkpoint. The ack never reached the
        // client, which will retry the same request id after the reboot.
    }
    let (service, report) = ShardedLocaterService::with_durability(
        EventStore::new(space()),
        LocaterConfig::default(),
        2,
        durability(&dir),
    )
    .expect("reboot");
    assert_eq!(report.replayed, 1);
    let state = ServerState::new(service, None);
    assert_eq!(state.seed_dedup_from_recovery(&report), 1);
    let retry = state.execute(&WireRequest::Ingest {
        mac: MACS[0].into(),
        t: 1_000,
        ap: "wap0".into(),
        request_id: Some(7_001),
    });
    let WireResponse::Ingested { mac, t, ap, .. } = retry else {
        panic!("retry must replay an ack, got {retry:?}");
    };
    assert_eq!((mac.as_str(), t, ap.as_str()), (MACS[0], 1_000, "wap0"));
    assert_eq!(state.stats().events, 1, "no second apply");
    assert_eq!(state.stats().deduped, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn graceful_drain_checkpoints_and_leaves_an_empty_tail() {
    let ops = trace(11, 24);
    let dir = scratch("drain");
    {
        let (service, _) = ShardedLocaterService::with_durability(
            EventStore::new(space()),
            LocaterConfig::default(),
            4,
            durability(&dir),
        )
        .unwrap();
        let state = ServerState::new(service, None);
        for (mac, t, ap) in &ops {
            state.execute(&WireRequest::Ingest {
                mac: mac.clone(),
                t: *t,
                ap: ap.clone(),
                request_id: None,
            });
        }
        let status = state.service().wal_status().expect("durable service");
        assert_eq!(status.frames, ops.len() as u64, "every ingest was framed");
        assert_eq!(status.checkpoints, 1, "the boot checkpoint");
        assert_eq!(status.fsync, "always");

        state.execute(&WireRequest::Shutdown);
        let summary = state.finish_drain();
        assert!(!summary.has_failure(), "drain: {summary:?}");
        let bytes = summary.checkpoint.expect("wal attached").unwrap();
        assert!(bytes > 0);
        let status = state.service().wal_status().unwrap();
        assert_eq!(status.frames, 0, "clean shutdown leaves an empty tail");
        assert_eq!(status.checkpoints, 2, "boot + drain");
    }

    // The empty tail is visible on disk and on reboot: nothing to replay.
    let inspection = inspect_wal(&dir).unwrap();
    let frames: u64 = inspection
        .shards
        .iter()
        .flat_map(|s| s.segments.iter())
        .map(|s| s.frames)
        .sum();
    assert_eq!(frames, 0);
    let (recovered, report) = ShardedLocaterService::with_durability(
        EventStore::new(space()),
        LocaterConfig::default(),
        4,
        durability(&dir),
    )
    .unwrap();
    assert!(report.checkpoint_loaded);
    assert_eq!(report.replayed, 0);
    assert_eq!(report.base_events, ops.len());
    assert_eq!(
        recovered.store_snapshot().to_snapshot_bytes().unwrap(),
        reference_bytes(4, &ops),
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The checkpoint is encoded straight from the shard partitions; the file
/// must be, byte for byte, the snapshot of the rejoined store — and so must a
/// `save_snapshot` of the same service.
#[test]
fn checkpoint_file_is_the_snapshot_of_the_rejoined_store() {
    for shards in [1usize, 3] {
        let dir = scratch("checkpoint-bytes");
        let (service, _) = ShardedLocaterService::with_durability(
            EventStore::new(space()),
            LocaterConfig::default(),
            shards,
            durability(&dir),
        )
        .unwrap();
        for (mac, t, ap) in &trace(23, 60) {
            service.ingest(mac, *t, ap).expect("durable ingest");
        }
        let size = service.checkpoint().unwrap().expect("wal attached");
        let expected = service.store_snapshot().to_snapshot_bytes().unwrap();
        let written = std::fs::read(checkpoint_path(&dir)).unwrap();
        assert_eq!(size, written.len() as u64);
        assert!(written == expected, "checkpoint bytes (shards={shards})");
        let saved = dir.join("saved.snap");
        service.save_snapshot(&saved).unwrap();
        assert!(
            std::fs::read(&saved).unwrap() == expected,
            "shards={shards}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Pins a known divergence between boot paths, not a property to keep: a
/// device first seen through `Ingest` keeps `DEFAULT_DELTA` across a
/// checkpoint, a log replay and a reboot, because δ is estimated only when
/// a store is built from raw events (the CSV, simulator and benchmark
/// loaders). Re-loading the same events from a CSV re-estimates its δ, so
/// its answers depend on the boot path (docs/OPERATIONS.md). Closing the
/// gap moves answers; when it is closed, this test changes with it.
#[test]
fn a_device_first_seen_live_keeps_the_default_delta_until_a_csv_reload() {
    use locater::events::validity::DEFAULT_DELTA;
    let mac = "aa:00:00:00:00:09";
    // Every 300 s: a history the estimator reads as δ = 300 s.
    let events: Vec<(i64, &str)> = (0..40).map(|i| (1_000 + i * 300, "wap0")).collect();
    let dir = scratch("live-delta");
    let boot = || {
        ShardedLocaterService::with_durability(
            EventStore::new(space()),
            LocaterConfig::default(),
            2,
            durability(&dir),
        )
        .unwrap()
        .0
    };
    let delta = |service: &ShardedLocaterService| {
        let store = service.store_snapshot();
        store.delta(store.device_id(mac).expect("the device is known"))
    };
    {
        let service = boot();
        let (head, tail) = events.split_at(30);
        for &(t, ap) in head {
            service.ingest(mac, t, ap).unwrap();
        }
        service.checkpoint().unwrap().expect("wal attached");
        for &(t, ap) in tail {
            service.ingest(mac, t, ap).unwrap();
        }
        assert_eq!(delta(&service), DEFAULT_DELTA, "live");
        // Dropped without a checkpoint: the tail is replayed on reboot.
    }
    let recovered = boot();
    assert_eq!(recovered.num_events(), events.len());
    assert_eq!(delta(&recovered), DEFAULT_DELTA, "after recovery");

    // The same events through the CSV boot path (`locater-cli`'s loader).
    let mut reloaded = EventStore::from_csv(space(), &recovered.store_snapshot().to_csv()).unwrap();
    reloaded.estimate_deltas();
    let device = reloaded.device_id(mac).unwrap();
    assert_eq!(reloaded.delta(device), 300, "after a CSV reload");
    std::fs::remove_dir_all(&dir).ok();
}
