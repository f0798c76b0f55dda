//! Compaction of the event store: evict what the engine no longer reads.
//!
//! LOCATER's cleaning engine only ever consults the configured history window
//! (coarse bootstrap and fine affinity, paper §4–5), so events older than the
//! retained horizon contribute nothing to in-window answers — yet an
//! always-on service accumulates them forever. [`crate::EventStore::compact`]
//! evicts every event below a horizon in one coherent mutation across both
//! structures (the per-device timelines and the global timeline index — each
//! drops exactly the events with `t < horizon`, so the two trims remove the
//! same event set) and hands the
//! evicted events back ([`CompactionReport::evicted`]). It builds nothing
//! from them.
//!
//! There is one cold tier, and only where a spill directory asks for it: the
//! evicted events are encoded — by the same encoder every snapshot goes
//! through ([`crate::ShardedRead::spill_snapshot_bytes`]) — as an ordinary
//! snapshot holding the full device table, the original event ids and only
//! the evicted events, and written with [`write_spill`].
//! [`crate::EventStore::load_snapshot`] opens it like any other snapshot.
//! Without a spill directory the evicted events are simply dropped.
//!
//! Compaction never touches the event-id counter and never rewrites retained
//! events, so answers whose full consulted window lies at or above the cut
//! are **byte-identical** with compaction on or off (the cornerstone
//! `tests/equivalence/compaction.rs` suite and the store property tests assert this).

use crate::error::StoreError;
use crate::io::StorageIo;
use crate::snapshot::write_atomic_io;
use locater_events::{DeviceId, StoredEvent, Timestamp};
use std::path::{Path, PathBuf};

/// What one [`crate::EventStore::compact`] call did.
#[derive(Debug, Clone, PartialEq)]
pub struct CompactionReport {
    /// The cut applied — the horizon the caller asked for: every event with
    /// `t < cut` was evicted, every event with `t >= cut` retained.
    pub cut: Timestamp,
    /// Events evicted from the hot tier.
    pub evicted_events: usize,
    /// The evicted events themselves, per device in device order, each run
    /// time-sorted — moved out of the timelines, original event ids and
    /// all. Drop them, or encode them into a spill file
    /// ([`crate::ShardedRead::spill_snapshot_bytes`]).
    pub evicted: Vec<(DeviceId, Vec<StoredEvent>)>,
}

/// Writes one run's spill file into `dir` (created if missing) as
/// `spill-<cut>.<first id>.snap`: `bytes` is the encoding of `evicted`
/// ([`crate::ShardedRead::spill_snapshot_bytes`]) and `first id` its lowest
/// event id. Event ids are never reused, so two runs at the same cut (a late
/// ingest below it, evicted by the next run) get
/// distinct names and the later spill never replaces the earlier one — while
/// re-running a compaction over the same input names the same file. The
/// write is atomic: a faulted write leaves no partial spill behind. Returns
/// the path written, or `None` when `evicted` holds no event.
pub fn write_spill(
    dir: &Path,
    cut: Timestamp,
    evicted: &[(DeviceId, Vec<StoredEvent>)],
    bytes: &[u8],
    io: &dyn StorageIo,
) -> Result<Option<PathBuf>, StoreError> {
    let first_id = evicted
        .iter()
        .flat_map(|(_, events)| events)
        .map(|event| event.id().0)
        .min();
    let Some(first_id) = first_id else {
        return Ok(None);
    };
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("spill-{cut}.{first_id}.snap"));
    write_atomic_io(&path, bytes, io)?;
    Ok(Some(path))
}

/// Lists the spill files in a directory — the `spill-<cut>.<first id>.snap`
/// names [`write_spill`] writes — sorted by their cut timestamp (then by
/// name).
pub fn list_spills(dir: &Path) -> Result<Vec<(Timestamp, PathBuf)>, StoreError> {
    let mut out = Vec::new();
    if !dir.exists() {
        return Ok(out);
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(cut) = name
            .strip_prefix("spill-")
            .and_then(|rest| rest.strip_suffix(".snap"))
            .and_then(|rest| rest.split_once('.'))
            .filter(|(_, first_id)| first_id.parse::<u64>().is_ok())
            .and_then(|(cut, _)| cut.parse::<Timestamp>().ok())
        {
            out.push((cut, path));
        }
    }
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventStore, RealIo, ShardedRead};
    use locater_space::SpaceBuilder;

    #[test]
    fn spill_paths_are_parseable() {
        let dir = std::env::temp_dir().join(format!("locater-spill-names-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let space = SpaceBuilder::new("spill-names")
            .add_access_point("wap0", &["r0"])
            .build()
            .unwrap();
        let mut store = EventStore::new(space);
        for t in [250, 40, 10, 130] {
            store.ingest_raw("aa:00:00:00:00:01", t, "wap0").unwrap();
        }
        // Two runs: ids {1, 2} below cut 100, then id 3 below cut 200.
        for (horizon, name) in [(100, "spill-100.1.snap"), (200, "spill-200.3.snap")] {
            let report = store.compact(horizon);
            let bytes = ShardedRead::new(vec![&store])
                .spill_snapshot_bytes(&report.evicted)
                .unwrap();
            let path = write_spill(&dir, report.cut, &report.evicted, &bytes, &RealIo).unwrap();
            assert_eq!(path, Some(dir.join(name)));
        }
        let nothing = store.compact(200);
        assert_eq!(
            write_spill(&dir, nothing.cut, &nothing.evicted, &[], &RealIo).unwrap(),
            None
        );
        // Only the names `write_spill` writes are listed: the `spill-<cut>`
        // names earlier builds wrote and anything else are skipped.
        for name in [
            "spill-0.snap",
            "spill-x.1.snap",
            "spill-0.x.snap",
            "checkpoint.snap",
        ] {
            std::fs::write(dir.join(name), b"").unwrap();
        }
        let listed: Vec<(Timestamp, String)> = list_spills(&dir)
            .unwrap()
            .into_iter()
            .map(|(cut, path)| (cut, path.file_name().unwrap().to_string_lossy().to_string()))
            .collect();
        assert_eq!(
            listed,
            vec![
                (100, "spill-100.1.snap".to_string()),
                (200, "spill-200.3.snap".to_string()),
            ]
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
