//! Crash recovery: checkpoint snapshot + WAL-tail replay.
//!
//! Recovery reconstructs the exact pre-crash store from what is durable on
//! disk:
//!
//! 1. load `<wal-dir>/checkpoint.snap` if present (a regular
//!    [`crate::snapshot`] file — bit-identical round-trip, event ids
//!    included), otherwise start from the caller-provided fallback store;
//! 2. scan every shard's segments and collect the valid records — damage in
//!    any but the last segment of a shard refuses recovery (it needs an
//!    explicit `wal truncate`); on the last it is the expected signature of
//!    a crash mid-append, and the records stop at the last whole frame;
//! 3. merge the per-shard tails by global event id and replay each record
//!    with its original id pinned.
//!
//! Because event ids are drawn from one global sequence and every record
//! carries its id, the merged replay reproduces the exact ingest order the
//! pre-crash process executed, across any shard count — recovering a log
//! written by a 4-shard service into a single store (or vice versa) yields
//! byte-identical snapshots. Replay is idempotent: records whose id precedes
//! the checkpoint's event-id counter are already inside the checkpoint and
//! are skipped, so a crash *between* writing a checkpoint and trimming the
//! segments loses nothing and duplicates nothing.

use crate::io::{RealIo, StorageIo};
use crate::snapshot::write_atomic_io;
use crate::store::EventStore;
use crate::wal::{
    checkpoint_path, scan_segment, walk_wal, Durability, ShardWal, WalError, WalRecord,
};
use locater_space::AccessPointId;
use std::path::{Path, PathBuf};

/// What [`recover_store`] did: where the base came from and how much of the
/// WAL was replayed on top of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// `true` when `checkpoint.snap` existed and loaded; `false` when the
    /// fallback store was used as the base.
    pub checkpoint_loaded: bool,
    /// Events already inside the base before replay.
    pub base_events: usize,
    /// WAL records applied on top of the base.
    pub replayed: u64,
    /// WAL records skipped because the base already contained them (replay
    /// idempotence across a checkpoint/trim crash window).
    pub skipped: u64,
    /// Shard directories found.
    pub shards: u64,
    /// Segment files scanned.
    pub segments: u64,
    /// Torn tails encountered (and ignored past the tear), as
    /// `(segment, offset of the first invalid byte)`.
    pub torn: Vec<(PathBuf, u64)>,
    /// Durable ingests that carried a client idempotency token, in event-id
    /// order — both replayed records and records the checkpoint already
    /// covered. A serving layer re-seeds its replay-dedup cache from these,
    /// so a client retry of a durable-but-unacked ingest is answered instead
    /// of re-applied, even across a crash.
    pub acked_ingests: Vec<AckedIngest>,
}

/// One durable ingest recovered together with its client idempotency token
/// (see [`RecoveryReport::acked_ingests`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AckedIngest {
    /// The client request id the ingest frame carried.
    pub request_id: u64,
    /// Device MAC address / log identifier.
    pub mac: String,
    /// Event timestamp.
    pub t: i64,
    /// Resolved access point id ([`locater_space::AccessPointId::raw`]).
    pub ap: u32,
}

/// Reads the durable tail of every shard under `dir`, read-only. Damage in a
/// shard's last segment ends that shard's tail (and is reported as torn);
/// anywhere else it is [`WalError::Corrupt`], as is a segment that is not
/// the one its directory and name say.
fn read_tails(
    dir: &Path,
    report: &mut RecoveryReport,
    io: &dyn StorageIo,
) -> Result<Vec<WalRecord>, WalError> {
    let mut records = Vec::new();
    for log in walk_wal(dir)? {
        report.shards += 1;
        let last = log.segments.len().saturating_sub(1);
        for (position, (_, path)) in log.segments.iter().enumerate() {
            let scan = scan_segment(path, io)?;
            report.segments += 1;
            if let Some(torn) = scan.torn {
                if position != last {
                    return Err(WalError::Corrupt {
                        segment: path.clone(),
                        offset: torn.offset,
                        reason: torn.reason,
                    });
                }
                report.torn.push((path.clone(), torn.offset));
            }
            records.extend(scan.records);
        }
    }
    Ok(records)
}

/// Recovers a store from the WAL directory `dir`: checkpoint (or `fallback`
/// when no checkpoint exists yet) + merged WAL-tail replay. Returns the
/// recovered store and a [`RecoveryReport`]. The directory is not modified.
pub fn recover_store(
    dir: &Path,
    fallback: EventStore,
) -> Result<(EventStore, RecoveryReport), WalError> {
    recover_store_io(dir, fallback, &RealIo)
}

/// [`recover_store`] with an explicit storage backend, so chaos tests can
/// fault the checkpoint load and the segment scans.
pub fn recover_store_io(
    dir: &Path,
    fallback: EventStore,
    io: &dyn StorageIo,
) -> Result<(EventStore, RecoveryReport), WalError> {
    let checkpoint = checkpoint_path(dir);
    let (mut store, checkpoint_loaded) = if checkpoint.exists() {
        let bytes = io.read(&checkpoint).map_err(WalError::Io)?;
        (EventStore::from_snapshot_bytes(&bytes)?, true)
    } else {
        (fallback, false)
    };
    let mut report = RecoveryReport {
        checkpoint_loaded,
        base_events: store.num_events(),
        replayed: 0,
        skipped: 0,
        shards: 0,
        segments: 0,
        torn: Vec::new(),
        acked_ingests: Vec::new(),
    };
    if !dir.exists() {
        return Ok((store, report));
    }
    let mut records = read_tails(dir, &mut report, io)?;
    records.sort_by_key(|r| r.id);
    for pair in records.windows(2) {
        if pair[0].id == pair[1].id {
            return Err(WalError::InvalidLog(format!(
                "two WAL records claim event id {} (devices {:?} and {:?})",
                pair[0].id, pair[0].mac, pair[1].mac
            )));
        }
    }
    let resume_at = store.next_event_id();
    for record in records {
        // Tokens are collected for skipped records too: a record inside the
        // checkpoint was just as durable, and its ack just as losable.
        if let Some(request_id) = record.request_id {
            report.acked_ingests.push(AckedIngest {
                request_id,
                mac: record.mac.clone(),
                t: record.t,
                ap: record.ap,
            });
        }
        if record.id < resume_at {
            report.skipped += 1;
            continue;
        }
        store.set_next_event_id(record.id);
        store
            .ingest(&record.mac, record.t, AccessPointId::new(record.ap))
            .map_err(WalError::Replay)?;
        report.replayed += 1;
    }
    Ok((store, report))
}

/// Writes (atomically) the checkpoint snapshot for `store` under `dir`,
/// creating the directory if needed. Returns the snapshot size in bytes.
pub fn write_checkpoint(dir: &Path, store: &EventStore) -> Result<u64, WalError> {
    write_checkpoint_io(dir, &store.to_snapshot_bytes()?, &RealIo)
}

/// Writes already-encoded snapshot bytes as the checkpoint under `dir`, with
/// an explicit storage backend, so chaos tests can fault the snapshot write,
/// its fsync, or the commit rename. Whatever fails, an existing checkpoint
/// at the same path is never damaged.
pub fn write_checkpoint_io(
    dir: &Path,
    snapshot: &[u8],
    io: &dyn StorageIo,
) -> Result<u64, WalError> {
    std::fs::create_dir_all(dir)?;
    write_atomic_io(&checkpoint_path(dir), snapshot, io)?;
    Ok(snapshot.len() as u64)
}

/// Brings a WAL directory to a clean post-recovery state for `store` and
/// opens fresh per-shard writers: writes the checkpoint snapshot (so the
/// replayed prefix is captured durably), removes every existing shard
/// directory (their records are now inside the checkpoint — and the previous
/// process may have run with a different shard count), and creates `shards`
/// empty logs. Returns the writers (index = shard).
pub fn initialize_wal(
    config: &Durability,
    store: &EventStore,
    shards: usize,
) -> Result<Vec<ShardWal>, WalError> {
    write_checkpoint_io(&config.dir, &store.to_snapshot_bytes()?, config.io.as_ref())?;
    for log in walk_wal(&config.dir)? {
        std::fs::remove_dir_all(&log.dir)?;
    }
    crate::wal::fsync_dir(&config.dir);
    let mut writers = Vec::with_capacity(shards);
    for shard in 0..shards {
        writers.push(ShardWal::open(config, shard as u32)?.0);
    }
    Ok(writers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::IngestError;
    use locater_space::SpaceBuilder;
    use std::path::PathBuf;

    fn space() -> locater_space::Space {
        SpaceBuilder::new("recovery-test")
            .add_access_point("wap0", &["r0", "r1"])
            .add_access_point("wap1", &["r1", "r2"])
            .add_access_point("wap2", &["r2", "r3"])
            .build()
            .unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "locater-recovery-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Validate → append → apply for one `(mac, t, ap name)` event: the order
    /// `ShardedLocaterService::sequenced_ingest` keeps, so a rejected event
    /// reaches neither the log nor the store.
    fn log_then_apply(
        store: &mut EventStore,
        wal: &mut ShardWal,
        (mac, t, ap_name): (&str, i64, &str),
    ) -> Result<u64, IngestError> {
        let ap = store.validate_raw(t, ap_name)?.raw();
        let (id, mac) = (store.next_event_id(), mac.to_string());
        let record = WalRecord {
            id,
            t,
            ap,
            mac,
            request_id: None,
        };
        wal.append(&record).unwrap();
        store.ingest_raw(&record.mac, t, ap_name).map(|id| id.0)
    }

    #[test]
    fn durable_store_recovers_bit_identically_after_drop() {
        let dir = temp_dir("bit-identical");
        std::fs::remove_dir_all(&dir).ok();
        let config = Durability::new(&dir);
        let mut reference = EventStore::new(space());
        {
            // First boot: nothing to recover; checkpoint the (empty) base and
            // attach a writer, as a durable service does.
            let (mut store, report) = recover_store(&dir, EventStore::new(space())).unwrap();
            assert!(!report.checkpoint_loaded);
            write_checkpoint(&dir, &store).unwrap();
            let (mut wal, _) = ShardWal::open(&config, 0).unwrap();
            for i in 0..40u64 {
                let mac = format!("aa:bb:cc:dd:ee:{:02x}", i % 5);
                let t = 1_000 + (i as i64) * 7;
                let ap = format!("wap{}", i % 3);
                log_then_apply(&mut store, &mut wal, (&mac, t, &ap)).unwrap();
                reference.ingest_raw(&mac, t, &ap).unwrap();
            }
            // Dropped without checkpoint: simulates a crash (fsync=always,
            // so every frame is durable).
        }
        let (recovered, report) = recover_store(&dir, EventStore::new(space())).unwrap();
        assert!(report.checkpoint_loaded);
        assert_eq!(report.replayed, 40);
        assert_eq!(recovered, reference);
        assert_eq!(
            recovered.to_snapshot_bytes().unwrap(),
            reference.to_snapshot_bytes().unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_trims_the_tail_and_skips_replay() {
        let dir = temp_dir("checkpoint-trim");
        std::fs::remove_dir_all(&dir).ok();
        let config = Durability::new(&dir);
        let mut store = EventStore::new(space());
        let (mut wal, _) = ShardWal::open(&config, 0).unwrap();
        for i in 0..10u64 {
            let event = ("aa:bb:cc:dd:ee:01", 100 + i as i64, "wap0");
            log_then_apply(&mut store, &mut wal, event).unwrap();
        }
        // Checkpoint, then trim: recovery loads the snapshot, replays nothing.
        write_checkpoint(&dir, &store).unwrap();
        wal.reset().unwrap();
        assert_eq!(wal.stats().frames, 0);
        let snapshot = store.to_snapshot_bytes().unwrap();
        drop(wal);
        let (recovered, report) = recover_store(&dir, EventStore::new(space())).unwrap();
        assert_eq!(report.replayed, 0);
        assert_eq!(report.base_events, 10);
        assert_eq!(recovered.to_snapshot_bytes().unwrap(), snapshot);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_is_idempotent_when_checkpoint_already_covers_the_tail() {
        // Simulates a crash between checkpoint write and segment trim: the
        // checkpoint contains everything and the stale tail must be skipped.
        let dir = temp_dir("idempotent");
        std::fs::remove_dir_all(&dir).ok();
        let config = Durability::new(&dir);
        let mut store = EventStore::new(space());
        let (mut wal, _) = ShardWal::open(&config, 0).unwrap();
        for i in 0..8u64 {
            let event = ("aa:bb:cc:dd:ee:02", 500 + i as i64, "wap1");
            log_then_apply(&mut store, &mut wal, event).unwrap();
        }
        // Write the checkpoint WITHOUT trimming (crash window).
        write_checkpoint(&config.dir, &store).unwrap();
        let snapshot = store.to_snapshot_bytes().unwrap();
        drop(wal);
        let (recovered, report) = recover_store(&config.dir, EventStore::new(space())).unwrap();
        assert!(report.checkpoint_loaded);
        assert_eq!(report.replayed, 0);
        assert_eq!(report.skipped, 8);
        assert_eq!(recovered.to_snapshot_bytes().unwrap(), snapshot);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_reports_durable_request_ids_for_replayed_and_skipped_records() {
        let dir = temp_dir("acked-ingests");
        std::fs::remove_dir_all(&dir).ok();
        let config = Durability::new(&dir);
        let (mut wal, _) = ShardWal::open(&config, 0).unwrap();
        for (id, request_id) in [(0u64, Some(0xA1)), (1, None), (2, Some(0xA2))] {
            wal.append(&WalRecord {
                id,
                t: 100 + id as i64,
                ap: 0,
                mac: "aa:bb:cc:dd:ee:01".into(),
                request_id,
            })
            .unwrap();
        }
        drop(wal);
        let (recovered, report) = recover_store(&dir, EventStore::new(space())).unwrap();
        assert_eq!(report.replayed, 3);
        // Only tagged records surface, in event-id order; untagged ones
        // (batch members, pre-token clients) carry nothing to replay.
        assert_eq!(
            report.acked_ingests,
            vec![
                AckedIngest {
                    request_id: 0xA1,
                    mac: "aa:bb:cc:dd:ee:01".into(),
                    t: 100,
                    ap: 0,
                },
                AckedIngest {
                    request_id: 0xA2,
                    mac: "aa:bb:cc:dd:ee:01".into(),
                    t: 102,
                    ap: 0,
                },
            ]
        );
        // A checkpoint covering the tail keeps the tokens visible: a record
        // inside the checkpoint was just as durable, and its ack just as
        // losable, as one the replay applied.
        write_checkpoint(&dir, &recovered).unwrap();
        let (_, report) = recover_store(&dir, EventStore::new(space())).unwrap();
        assert_eq!((report.replayed, report.skipped), (0, 3));
        assert_eq!(report.acked_ingests.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_event_ids_across_shards_are_a_typed_error() {
        let dir = temp_dir("duplicate-ids");
        std::fs::remove_dir_all(&dir).ok();
        let config = Durability::new(&dir);
        for shard in 0..2 {
            let (mut wal, _) = ShardWal::open(&config, shard).unwrap();
            wal.append(&WalRecord {
                id: 7,
                t: 100,
                ap: 0,
                mac: format!("aa:bb:cc:dd:ee:{shard:02x}"),
                request_id: None,
            })
            .unwrap();
        }
        let err = recover_store(&dir, EventStore::new(space())).unwrap_err();
        assert!(matches!(err, WalError::InvalidLog(_)), "got: {err}");
        assert!(err.to_string().contains("event id 7"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replaying_into_a_mismatched_space_is_a_typed_error() {
        let dir = temp_dir("bad-space");
        std::fs::remove_dir_all(&dir).ok();
        let config = Durability::new(&dir);
        let (mut wal, _) = ShardWal::open(&config, 0).unwrap();
        wal.append(&WalRecord {
            id: 0,
            t: 100,
            ap: 99, // no such access point in the fallback space
            mac: "aa:bb:cc:dd:ee:01".into(),
            request_id: None,
        })
        .unwrap();
        drop(wal);
        let err = recover_store(&dir, EventStore::new(space())).unwrap_err();
        assert!(matches!(err, WalError::Replay(_)), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_range_records_are_typed_replay_errors() {
        // Frames with a valid checksum whose timestamp or id a stored event
        // cannot hold (the WAL keeps them at full width): replay refuses
        // them with the ingest error, never a panic or a wrapped value.
        use locater_events::{EVENT_ID_LIMIT, EVENT_TIME_LIMIT};
        for (id, t, expected) in [
            (0, i64::MAX, IngestError::InvalidTimestamp(i64::MAX)),
            (
                0,
                EVENT_TIME_LIMIT,
                IngestError::InvalidTimestamp(EVENT_TIME_LIMIT),
            ),
            (0, -1, IngestError::InvalidTimestamp(-1)),
            (
                EVENT_ID_LIMIT,
                100,
                IngestError::InvalidEventId(EVENT_ID_LIMIT),
            ),
        ] {
            let dir = temp_dir("out-of-range");
            std::fs::remove_dir_all(&dir).ok();
            let (mut wal, _) = ShardWal::open(&Durability::new(&dir), 0).unwrap();
            wal.append(&WalRecord {
                id,
                t,
                ap: 0,
                mac: "aa:bb:cc:dd:ee:01".into(),
                request_id: None,
            })
            .unwrap();
            drop(wal);
            match recover_store(&dir, EventStore::new(space())) {
                Err(WalError::Replay(err)) => assert_eq!(err, expected),
                other => panic!("id {id} t {t}: expected a replay error, got {other:?}"),
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn a_segment_whose_header_disagrees_with_its_name_is_refused() {
        let dir = temp_dir("misnamed");
        std::fs::remove_dir_all(&dir).ok();
        let config = Durability::new(&dir);
        let mut store = EventStore::new(space());
        let (mut wal, seg) = ShardWal::open(&config, 0).unwrap();
        log_then_apply(&mut store, &mut wal, ("aa:bb:cc:dd:ee:01", 100, "wap0")).unwrap();
        drop(wal);
        let renamed = seg.with_file_name("seg-0000000000000005.wal");
        std::fs::rename(&seg, &renamed).unwrap();
        let err = recover_store(&dir, EventStore::new(space())).unwrap_err();
        assert!(
            matches!(&err, WalError::Corrupt { segment, offset: 12, .. } if *segment == renamed),
            "got: {err}"
        );
        // The repair tool drops the misnamed segment, and the log recovers.
        let repair = crate::wal::truncate_wal(&dir).unwrap();
        assert_eq!(repair[0].segments_removed, 1);
        assert!(!renamed.exists());
        let (_, report) = recover_store(&dir, EventStore::new(space())).unwrap();
        assert_eq!((report.segments, report.replayed), (0, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_append_failure_leaves_the_store_unchanged() {
        let dir = temp_dir("append-fail");
        std::fs::remove_dir_all(&dir).ok();
        let config = Durability::new(&dir);
        let mut store = EventStore::new(space());
        let (mut wal, _) = ShardWal::open(&config, 0).unwrap();
        log_then_apply(&mut store, &mut wal, ("aa:bb:cc:dd:ee:01", 100, "wap0")).unwrap();
        // Unknown AP fails validation before the id draw and the append.
        let err =
            log_then_apply(&mut store, &mut wal, ("aa:bb:cc:dd:ee:01", 200, "wap9")).unwrap_err();
        assert!(matches!(err, IngestError::UnknownAccessPoint(_)));
        assert_eq!(store.num_events(), 1);
        assert_eq!(wal.stats().frames, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
