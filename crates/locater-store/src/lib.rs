//! # locater-store
//!
//! Storage, ingestion and indexing substrate for LOCATER (paper §5, "Architecture of
//! LOCATER": ingestion engine + storage engine + the database of dirty data, clean
//! data and metadata).
//!
//! The centerpiece is [`EventStore`]: an in-memory store of WiFi connectivity
//! events organised for the access patterns of the cleaning engine:
//!
//! * **per-device timelines** ([`EventSeq`](locater_events::EventSeq)) — each
//!   device's history is one array sorted by `(t, id)`, receiving live appends
//!   at its end, returned as is by [`EventRead::timeline_of`]. Gap
//!   detection, validity lookups and history scans binary-search the array for
//!   the window's ends before doing any per-event work, so windowed queries
//!   cost `O(log history + window)`;
//! * **a global timeline index** ([`Timeline`]) — "which devices did the access
//!   points of this region see around time `t`?" (needed to find the *neighbor
//!   devices* of the fine-grained algorithm) is one short scan per AP of one
//!   time-sorted posting list per access point. These two are the only
//!   copies of an event the store keeps — a 12-byte
//!   [`StoredEvent`](locater_events::StoredEvent) and an 8-byte posting
//!   (a timestamp below 2³² s and the device; the access point, below 2¹⁶
//!   in the stored event, is the list's; the stored event also holds a
//!   48-bit id; ingest and every decoder refuse what does not fit);
//!   the fine step's affinity merges group a device timeline slice by access
//!   point per call;
//! * **device interning** — MAC-address strings are interned to dense
//!   [`DeviceId`](locater_events::DeviceId)s at ingestion; all downstream processing
//!   uses integer ids;
//! * **binary snapshot persistence** ([`EventStore::save_snapshot`] /
//!   [`EventStore::load_snapshot`]) — the whole store round-trips bit-identically
//!   through a compact, versioned, checksummed binary format (see [`snapshot`]), so
//!   cold starts skip CSV replay entirely;
//! * **a CSV loader** — CSV, the one event-file format
//!   ([`EventStore::from_csv`]), is parsed one line at a time into the
//!   two-pass bulk load [`EventStore::ingest_batch`] runs, with parse *and*
//!   semantic errors annotated with their input line (and column, for field
//!   errors);
//! * **durability** ([`wal`] + [`recovery`]) — a per-shard append-only
//!   write-ahead log of checksummed frames makes every acknowledged ingest
//!   crash-safe; recovery loads the last checkpoint snapshot and replays the
//!   log tail (stopping at a torn final frame; the boot checkpoint then
//!   replaces the log), reproducing the pre-crash store bit-identically.
//!   The ingest path that drives them (validate → draw id → append →
//!   apply) lives in `locater-core`'s `ShardedLocaterService::with_durability`;
//! * **compaction** ([`compaction`]) — [`EventStore::compact`] evicts every
//!   event below a retention horizon from both structures in one
//!   coherent mutation and hands the evicted events back; where a
//!   spill directory asks for them they are encoded as an ordinary snapshot
//!   (the one cold tier), otherwise dropped, so an always-on service runs at
//!   bounded memory while answers inside the retained window stay
//!   byte-identical;
//! * **per-device sharding** — [`EventStore::split`] / [`EventStore::rejoin`]
//!   partition a store into per-device shards and reassemble them
//!   bit-identically ([`shard_of_device`] is the assignment), and the
//!   [`EventRead`] trait + [`ShardedRead`] view let readers treat the
//!   partitions as one logical store with answers identical to the combined
//!   one (neighbor reads collect devices from every shard's [`Timeline`]
//!   lists, check each against its owner's timeline and sort the result by
//!   each device's first `(t, device)` key in the window).
//!
//! ## Ingest and query
//!
//! ```
//! use locater_events::Interval;
//! use locater_space::SpaceBuilder;
//! use locater_store::EventStore;
//!
//! let space = SpaceBuilder::new("demo")
//!     .add_access_point("wap1", &["r1", "r2"])
//!     .add_access_point("wap2", &["r2", "r3"])
//!     .build()
//!     .unwrap();
//! let mut store = EventStore::new(space);
//! store.ingest_raw("aa:bb:cc:dd:ee:01", 100, "wap1").unwrap();
//! store.ingest_raw("aa:bb:cc:dd:ee:02", 150, "wap2").unwrap();
//! store.ingest_raw("aa:bb:cc:dd:ee:01", 4_000, "wap2").unwrap();
//! assert_eq!(store.num_devices(), 2);
//! assert_eq!(store.num_events(), 3);
//!
//! let d1 = store.device_id("aa:bb:cc:dd:ee:01").unwrap();
//! // One time-sorted array per device.
//! let timeline = store.timeline_of(d1);
//! assert_eq!(timeline.len(), 2);
//! assert_eq!(timeline.last().unwrap().t(), 4_000);
//! // Window queries binary-search the array for the window's ends.
//! let in_window: Vec<i64> = store
//!     .events_of_in(d1, Interval::new(0, 3_600))
//!     .map(|e| e.t())
//!     .collect();
//! assert_eq!(in_window, vec![100]);
//! ```
//!
//! ## Snapshot round-trip
//!
//! ```
//! use locater_space::SpaceBuilder;
//! use locater_store::EventStore;
//!
//! let space = SpaceBuilder::new("demo")
//!     .add_access_point("wap1", &["r1"])
//!     .build()
//!     .unwrap();
//! let mut store = EventStore::new(space);
//! store.ingest_raw("aa:bb:cc:dd:ee:01", 1_000, "wap1").unwrap();
//!
//! // The snapshot embeds the space, devices and event runs; reloading it
//! // reproduces the store bit-for-bit (event ids included).
//! let bytes = store.to_snapshot_bytes().unwrap();
//! let reloaded = EventStore::from_snapshot_bytes(&bytes).unwrap();
//! assert_eq!(reloaded, store);
//!
//! // Decoding failures are typed errors, never panics.
//! assert!(matches!(
//!     EventStore::from_snapshot_bytes(b"not a snapshot"),
//!     Err(locater_store::StoreError::NotASnapshot)
//! ));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compaction;
mod csv;
mod error;
pub mod io;
mod read;
pub mod recovery;
mod shard;
pub mod snapshot;
mod stats;
mod store;
mod timeline;
pub mod wal;

pub use compaction::{list_spills, write_spill, CompactionReport};
pub use csv::{format_csv, parse_csv, RawEvent};
pub use error::{IngestError, StoreError};
pub use io::{FaultIo, FaultKind, FaultPlan, RealIo, StorageIo};
pub use read::{EventRead, NearbyDevice};
pub use recovery::{
    initialize_wal, recover_store, recover_store_io, write_checkpoint, write_checkpoint_io,
    AckedIngest, RecoveryReport,
};
pub use shard::{shard_of_device, ShardedRead};
pub use stats::DatasetStatistics;
pub use store::EventStore;
pub use timeline::Timeline;
pub use wal::{
    checkpoint_path, inspect_wal, truncate_wal, Durability, FsyncPolicy, ShardWal, WalError,
    WalInspection, WalRecord, WalShardStats,
};
