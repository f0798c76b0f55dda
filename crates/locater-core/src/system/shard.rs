//! The live service: N ≥ 1 independent per-device partitions behind one query
//! API.
//!
//! LOCATER's pipeline is embarrassingly partitionable by device — coarse
//! localization, δ estimation, epochs and model state are per-device, and only
//! the fine-grained affinity step reads across devices. The
//! [`ShardedLocaterService`] exploits that: each shard owns its own
//! [`EventStore`], `RwLock`, [`EpochTable`] and coarse-model cache, so
//! **concurrent ingests for different devices never contend on a lock**.
//! Cross-device reads go through a read-only multi-shard view
//! ([`locater_store::ShardedRead`]) assembled from per-shard read guards taken
//! in ascending shard order. The affinity step's cache — edges between two
//! devices, wherever they live — is one [`GlobalAffinityGraph`] for the whole
//! service, behind its own `RwLock`.
//!
//! ## Lifecycle
//!
//! 1. **build** — construct the service over an initial (possibly empty) store;
//! 2. **serve** — answer [`LocateRequest`]s concurrently from many threads;
//! 3. **ingest** — append live events through
//!    [`ShardedLocaterService::ingest`] / [`ShardedLocaterService::ingest_batch`];
//!    each appended event bumps its device's epoch;
//! 4. **invalidate** — nothing to do: the epoch bump makes exactly the cached
//!    state derived from the touched device stale (see [`super::epoch`]), and
//!    the next query over that device recomputes it.
//!
//! Locks are `std::sync` locks taken through one poison-recovering helper
//! (`relock` in `engine.rs` states why recovery is sound here): a request
//! that panics under a shard lock must not wedge every later request. The
//! lock order is shard locks in ascending order, then the affinity graph's;
//! nothing holding the graph's lock takes a shard lock.
//!
//! ## State placement
//!
//! | State | Lives in |
//! |---|---|
//! | device `d`'s timeline, epoch counter, coarse model | `d`'s home shard (`shard_of_device(d, n)`) |
//! | device table (ids, MACs, δs) | replicated in every shard store |
//! | affinity edge `{a, b}` | the service's one affinity graph |
//!
//! ## Equivalence
//!
//! Answers are **byte-identical for every shard count**, `shards = 1` — one
//! store behind one lock — included. Neighbor discovery collects devices from
//! every shard's per-AP index lists and orders them by each device's first
//! `(t, device)` key, so it is representation-transparent; model/epoch placement partitions (never
//! duplicates) the state a single-shard deployment would hold, and the
//! affinity graph is the same one graph at every shard count.
//! `tests/equivalence/` enforces this with the seeded twin harness
//! (`support/twin.rs` there): subjects at N ∈ {2, 3} answer every op like a
//! one-shard twin.

use super::batch::{self, Answered, BatchItem};
use super::engine::{relock, resolve_target, Engine, ModelCache};
use super::epoch::{EpochRead, EpochTable, ModelEntry};
use super::request::{LocateRequest, LocateResponse};
use super::{CacheMode, LocaterConfig};
use crate::cache::GlobalAffinityGraph;
use crate::error::LocaterError;
use locater_events::clock::Timestamp;
use locater_events::{DeviceId, EventId, EVENT_ID_LIMIT};
use locater_space::{AccessPointId, Space};
use locater_store::recovery::{
    initialize_wal, recover_store_io, write_checkpoint_io, RecoveryReport,
};
use locater_store::{
    shard_of_device, write_spill, Durability, EventRead, EventStore, IngestError, RawEvent, RealIo,
    ShardWal, ShardedRead, StorageIo, StoreError, WalError, WalRecord, WalShardStats,
};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};
use std::time::Instant;

/// The mutable half of one shard: its partition of the event store, the epoch
/// table authoritative for its owned devices, and (when durability is
/// configured) the shard's write-ahead log — all updated together under one
/// lock, so a query always sees a consistent `(store, epochs)` pair and the
/// WAL append is part of the same mutation as the in-memory append.
#[derive(Debug)]
struct ShardLive {
    store: EventStore,
    epochs: EpochTable,
    wal: Option<ShardWal>,
}

/// One shard: its mutable `(store, epochs)` pair plus the coarse models of
/// its owned devices.
#[derive(Debug)]
struct Shard {
    live: RwLock<ShardLive>,
    models: ModelCache,
}

impl Shard {
    fn new(store: EventStore) -> Self {
        Self {
            live: RwLock::new(ShardLive {
                store,
                epochs: EpochTable::new(),
                wal: None,
            }),
            models: ModelCache::default(),
        }
    }
}

/// Per-shard observability counters reported by
/// [`ShardedLocaterService::shard_stats`]; the server's `stats` frame carries
/// them as they are, one `per_shard` entry each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Events stored in this shard's partition.
    pub events: usize,
    /// Devices whose home shard this is (their timelines, epochs and models
    /// live here).
    pub owned_devices: usize,
    /// Approximate resident heap bytes of this shard's store partition.
    pub resident_bytes: usize,
}

/// Service-wide compaction gauges reported by
/// [`ShardedLocaterService::compaction_status`] and returned by every
/// [`ShardedLocaterService::compact`] run; the server sends them as they are,
/// in the `stats` frame and as the `Compacted` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CompactionStatus {
    /// Compaction runs since boot that evicted at least one event.
    pub runs: u64,
    /// Events evicted from the hot tier since boot.
    pub evicted_events: u64,
    /// The cut of the most recent effective run, if any: every event with
    /// `t <` this is out of the hot tier.
    pub last_cut: Option<Timestamp>,
}

/// Service-wide write-ahead-log gauges reported by
/// [`ShardedLocaterService::wal_status`] when durability is configured; the
/// server's `stats` frame carries them as they are.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WalStatus {
    /// The WAL directory.
    pub dir: String,
    /// The configured fsync policy, rendered (`always` / `every=N`).
    pub fsync: String,
    /// Live segment files across all shards.
    pub segments: u64,
    /// Frames (logged events) across all shards — the replay cost of a crash
    /// right now.
    pub frames: u64,
    /// Bytes across all shard logs (segment headers included).
    pub bytes: u64,
    /// Milliseconds since the last checkpoint (boot counts as one).
    pub last_checkpoint_age_ms: u64,
    /// Checkpoints taken since boot (the boot checkpoint included).
    pub checkpoints: u64,
}

/// Where a compaction run cuts the hot tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cut {
    /// Keep the newest `retain` seconds behind the event-time watermark
    /// ([`ShardedLocaterService::watermark`]).
    Retain(Timestamp),
    /// Evict every event with `t <` this timestamp.
    Horizon(Timestamp),
}

impl Cut {
    /// The one rule turning a compaction request into a cut, shared by the
    /// wire verb and offline `locater-cli compact`: a request names a retain
    /// or a horizon, never both; naming neither falls back to `default_retain`
    /// (the server's `--retain`); a negative retain — a horizon past the
    /// newest event, so the whole hot tier would go — is refused. A negative
    /// horizon is not refused: it cuts below every event and evicts nothing.
    pub fn from_request(
        retain: Option<Timestamp>,
        horizon: Option<Timestamp>,
        default_retain: Option<Timestamp>,
    ) -> Result<Cut, &'static str> {
        match (retain, horizon) {
            (Some(_), Some(_)) => Err("compact takes a retain or a horizon, not both"),
            (None, Some(horizon)) => Ok(Cut::Horizon(horizon)),
            (retain, None) => match retain.or(default_retain) {
                Some(retain) if retain < 0 => Err("compact retain must be 0 or more seconds"),
                Some(retain) => Ok(Cut::Retain(retain)),
                None => Err("compact needs a retain or a horizon"),
            },
        }
    }

    /// The horizon this cut evicts below, given the event-time watermark
    /// (`None` for a retention over an empty store: there is nothing to cut).
    pub fn horizon(self, watermark: Option<Timestamp>) -> Option<Timestamp> {
        match self {
            Cut::Retain(retain) => watermark.map(|w| w.saturating_sub(retain)),
            Cut::Horizon(horizon) => Some(horizon),
        }
    }
}

/// Epoch view over the per-shard tables: the table of a device's home shard is
/// authoritative for it.
struct ShardedEpochs<'a> {
    tables: Vec<&'a EpochTable>,
}

impl EpochRead for ShardedEpochs<'_> {
    fn epoch_of(&self, device: DeviceId) -> u64 {
        self.tables[shard_of_device(device, self.tables.len())].of(device)
    }
}

/// The live LOCATER service: a cleaning + caching engine over a **mutable**
/// event store, partitioned into `N ≥ 1` per-device shards, that ingests
/// connectivity events while answering queries (see the [module docs](self)
/// for the design).
///
/// Correctness under ingestion is maintained by epoch-based invalidation (see
/// [`super::epoch`]): after any ingest sequence, answers are identical to
/// those of a freshly built service over the same final store — and
/// byte-identical for every shard count. Use more shards when concurrent
/// ingest throughput matters: an ingest for a known device write-locks only
/// the device's home shard.
///
/// ```
/// use locater_core::system::{LocateRequest, LocaterConfig, ShardedLocaterService};
/// use locater_space::SpaceBuilder;
/// use locater_store::EventStore;
///
/// let space = SpaceBuilder::new("demo")
///     .add_access_point("wap1", &["101", "102"])
///     .build()
///     .unwrap();
/// let service =
///     ShardedLocaterService::new(EventStore::new(space), LocaterConfig::default(), 4);
/// assert_eq!(service.num_shards(), 4);
///
/// // Ingest routes each event to the device's home shard.
/// service.ingest("aa:bb:cc:dd:ee:01", 1_000, "wap1").unwrap();
/// service.ingest("aa:bb:cc:dd:ee:01", 4_000, "wap1").unwrap();
///
/// // Queries answer over the multi-shard view, identically to one shard.
/// let response = service
///     .locate(&LocateRequest::by_mac("aa:bb:cc:dd:ee:01", 2_500))
///     .unwrap();
/// assert!(response.answer.is_inside());
/// assert_eq!(response.device_epoch, 2);
/// ```
#[derive(Debug)]
pub struct ShardedLocaterService {
    engine: Engine,
    shards: Vec<Shard>,
    /// The caching engine's global affinity graph, shared by every shard.
    /// Its lock is taken after any shard locks, never before.
    cache: RwLock<GlobalAffinityGraph>,
    /// Global event-id sequence: ids stay globally sequential across shards
    /// (each append aligns the owning shard's counter from here), so the
    /// rejoined store is bit-identical to a single-shard deployment's.
    next_event_id: AtomicU64,
    /// Durability configuration when a WAL is attached
    /// ([`ShardedLocaterService::with_durability`]); `None` for the default
    /// in-memory-only service.
    durability: Option<Durability>,
    /// When the last checkpoint was written (boot counts as one).
    last_checkpoint: Mutex<Option<Instant>>,
    /// Checkpoints taken since boot.
    checkpoints: AtomicU64,
    /// Cumulative compaction gauges. Held briefly by compaction runs and
    /// `stats` reads — never while a shard lock is held for ingest or query
    /// work.
    compaction: Mutex<CompactionStatus>,
    /// Where the most recent effective compaction run spilled, if anywhere.
    last_spill: Mutex<Option<PathBuf>>,
}

impl ShardedLocaterService {
    /// Creates a service over an initial (possibly empty) store, partitioned
    /// into `shards` per-device shards (clamped to at least 1).
    pub fn new(store: EventStore, config: LocaterConfig, shards: usize) -> Self {
        let next_event_id = AtomicU64::new(store.next_event_id());
        let shards = store
            .split(shards.max(1))
            .into_iter()
            .map(Shard::new)
            .collect();
        Self {
            engine: Engine::new(config),
            shards,
            cache: RwLock::default(),
            next_event_id,
            durability: None,
            last_checkpoint: Mutex::new(None),
            checkpoints: AtomicU64::new(0),
            compaction: Mutex::new(CompactionStatus::default()),
            last_spill: Mutex::new(None),
        }
    }

    /// Creates a durable service: recovers whatever state the WAL directory
    /// holds (checkpoint snapshot + log tails — `store` is the fallback base
    /// when no checkpoint exists yet, e.g. a CSV preload on first boot),
    /// writes a fresh boot checkpoint, and attaches one write-ahead log per
    /// shard so every subsequent ingest is logged inside the same per-shard
    /// mutation that applies it. Returns the service and the
    /// [`RecoveryReport`] describing what was recovered.
    ///
    /// The boot checkpoint makes shard-count changes safe: the recovered
    /// state is captured in one combined snapshot and the logs restart empty,
    /// so the on-disk layout never mixes records from different shardings.
    pub fn with_durability(
        store: EventStore,
        config: LocaterConfig,
        shards: usize,
        durability: Durability,
    ) -> Result<(Self, RecoveryReport), WalError> {
        let (store, report) = recover_store_io(&durability.dir, store, durability.io.as_ref())?;
        let writers = initialize_wal(&durability, &store, shards.max(1))?;
        let mut service = Self::new(store, config, shards);
        for (shard, wal) in service.shards.iter().zip(writers) {
            relock(shard.live.write()).wal = Some(wal);
        }
        *relock(service.last_checkpoint.lock()) = Some(Instant::now());
        service.checkpoints.store(1, Ordering::Relaxed);
        service.durability = Some(durability);
        Ok((service, report))
    }

    /// Cold-starts a sharded service from a binary snapshot (the same file
    /// format a single-shard deployment writes — the store is split after
    /// loading).
    pub fn from_snapshot(
        path: impl AsRef<Path>,
        config: LocaterConfig,
        shards: usize,
    ) -> Result<Self, StoreError> {
        Ok(Self::new(EventStore::load_snapshot(path)?, config, shards))
    }

    /// Number of shards the service is partitioned into.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The home shard of a device under this service's shard count.
    pub(crate) fn home_shard(&self, device: DeviceId) -> usize {
        shard_of_device(device, self.shards.len())
    }

    /// The system configuration (per-request overrides are applied on top).
    pub fn config(&self) -> &LocaterConfig {
        &self.engine.config
    }

    /// Read guards on every shard, taken in ascending shard order (the
    /// service-wide lock order; writers acquire in the same order).
    fn read_all(&self) -> Vec<RwLockReadGuard<'_, ShardLive>> {
        self.shards
            .iter()
            .map(|shard| relock(shard.live.read()))
            .collect()
    }

    /// Write guards on every shard, in ascending shard order.
    fn write_all(&self) -> Vec<RwLockWriteGuard<'_, ShardLive>> {
        self.shards
            .iter()
            .map(|shard| relock(shard.live.write()))
            .collect()
    }

    /// Read access to the state every shard replicates (device table, space):
    /// the first shard whose lock is free answers, so a lookup never waits
    /// behind an ingest into a shard it has no other business with. Only when
    /// every shard is being written to does it wait, on shard 0.
    fn any_shard(&self) -> RwLockReadGuard<'_, ShardLive> {
        self.shards
            .iter()
            .find_map(|shard| match shard.live.try_read() {
                Ok(guard) => Some(guard),
                Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
                Err(TryLockError::WouldBlock) => None,
            })
            .unwrap_or_else(|| relock(self.shards[0].live.read()))
    }

    /// Runs `f` over one consistent read view of the whole service: the
    /// multi-shard store view and the matching epoch view, both backed by
    /// every shard's read lock held for the duration of the call.
    fn with_view<R>(&self, f: impl FnOnce(&ShardedRead<'_>, &ShardedEpochs<'_>) -> R) -> R {
        let guards = self.read_all();
        let view = ShardedRead::new(guards.iter().map(|guard| &guard.store).collect());
        let epochs = ShardedEpochs {
            tables: guards.iter().map(|guard| &guard.epochs).collect(),
        };
        f(&view, &epochs)
    }

    // ------------------------------------------------------------------
    // Ingestion
    // ------------------------------------------------------------------

    /// Appends one connectivity event (access point given by name, as found in
    /// logs) and bumps the device's epoch.
    ///
    /// For a device the service has already seen, only the device's **home
    /// shard** is write-locked — ingests for devices on different shards
    /// proceed fully in parallel. The first event of a new device takes a
    /// brief all-shard write lock to intern it into every replicated device
    /// table at the same dense id.
    pub fn ingest(&self, mac: &str, t: Timestamp, ap_name: &str) -> Result<EventId, IngestError> {
        self.ingest_tagged(mac, t, ap_name, None).map(|(id, ..)| id)
    }

    /// [`ingest`](Self::ingest) carrying the client's idempotency token. When
    /// the shard is durable, the token is persisted inside the event's WAL
    /// frame, so crash recovery can report which acked ingests a retrying
    /// client might replay (see `RecoveryReport::acked_ingests`) — without it,
    /// a replay-dedup cache cannot survive a restart.
    ///
    /// Returns the event id together with the device's id, the resolved
    /// access point and the epoch this very ingest left the device at (read
    /// under the same write lock) — what an ack reports, and what a replay
    /// window keeps to recognise the event again without resolving it twice.
    pub fn ingest_tagged(
        &self,
        mac: &str,
        t: Timestamp,
        ap_name: &str,
        request_id: Option<u64>,
    ) -> Result<(EventId, DeviceId, AccessPointId, u64), IngestError> {
        let known = self.any_shard().store.device_id(mac);
        if let Some(device) = known {
            let mut live = relock(self.shards[self.home_shard(device)].live.write());
            let ap = live.store.validate_raw(t, ap_name)?;
            return self.sequenced_ingest(&mut live, device, mac, t, ap, request_id);
        }
        // New device: intern into every shard under the full lock so the
        // replicated tables assign the same dense id everywhere.
        let mut guards = self.write_all();
        let (device, ap) = Self::validate_and_intern(&mut guards, mac, t, ap_name)?;
        let home = shard_of_device(device, guards.len());
        self.sequenced_ingest(&mut guards[home], device, mac, t, ap, request_id)
    }

    /// Appends one validated event of an interned device and bumps the
    /// device's epoch, drawing the event id from the service-wide sequence so
    /// ids stay globally sequential across shards. When the shard carries a
    /// write-ahead log, the record is appended to the log *before* the
    /// in-memory apply, under the same shard write lock (log-then-apply):
    /// an event that reached the log always applies — the store never runs
    /// ahead of what recovery can reproduce. A failed log append rejects the
    /// event ([`IngestError::Wal`]) without mutating the store; the drawn id
    /// is skipped, which recovery tolerates (ids are merged, not assumed
    /// dense).
    fn sequenced_ingest(
        &self,
        live: &mut ShardLive,
        device: DeviceId,
        mac: &str,
        t: Timestamp,
        ap: AccessPointId,
        request_id: Option<u64>,
    ) -> Result<(EventId, DeviceId, AccessPointId, u64), IngestError> {
        let id = self.next_event_id.fetch_add(1, Ordering::Relaxed);
        // An id a stored event cannot hold must not reach the log either.
        if id >= EVENT_ID_LIMIT {
            return Err(IngestError::InvalidEventId(id));
        }
        if let Some(wal) = live.wal.as_mut() {
            wal.append(&WalRecord {
                id,
                t,
                ap: ap.raw(),
                mac: mac.to_string(),
                request_id,
            })
            .map_err(|e| IngestError::Wal(e.to_string()))?;
        }
        live.store.set_next_event_id(id);
        let id = live.store.ingest(mac, t, ap)?;
        live.epochs.bump(device);
        Ok((id, device, ap, live.epochs.of(device)))
    }

    /// Appends a batch of raw events under one all-shard write lock (the batch
    /// is atomic with respect to queries), stopping at the first error —
    /// events before it are kept and their devices' epochs bumped. Returns the
    /// number of events appended.
    pub fn ingest_batch<'a>(
        &self,
        events: impl IntoIterator<Item = &'a RawEvent>,
    ) -> Result<usize, IngestError> {
        let mut guards = self.write_all();
        let mut count = 0usize;
        for event in events {
            let (device, ap) =
                Self::validate_and_intern(&mut guards, &event.mac, event.t, &event.ap)?;
            let home = shard_of_device(device, guards.len());
            // Batch tokens are not persisted per event: a batch is acked only
            // as a whole, and a partially durable batch must re-execute on
            // retry, so its replay window stays in-memory (see the server's
            // dedup cache).
            self.sequenced_ingest(&mut guards[home], device, &event.mac, event.t, ap, None)?;
            count += 1;
        }
        Ok(count)
    }

    /// Validates one raw event and resolves its device under the all-shard
    /// write lock, interning a new device into every shard's replicated
    /// table. Validation comes first, so an invalid event interns nothing and
    /// the error order is that of [`EventStore::ingest_raw`]: access point,
    /// then timestamp, then MAC.
    fn validate_and_intern(
        guards: &mut [RwLockWriteGuard<'_, ShardLive>],
        mac: &str,
        t: Timestamp,
        ap_name: &str,
    ) -> Result<(DeviceId, AccessPointId), IngestError> {
        let ap = guards[0].store.validate_raw(t, ap_name)?;
        // Looked up under the write lock: another ingest may have interned the
        // device since the caller's read probe.
        if let Some(device) = guards[0].store.device_id(mac) {
            return Ok((device, ap));
        }
        let mut device = None;
        for guard in guards.iter_mut() {
            let interned = guard.store.intern_device(mac)?;
            debug_assert!(device.is_none() || device == Some(interned));
            device = Some(interned);
        }
        Ok((device.expect("at least one shard"), ap))
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Answers one request over the multi-shard view. Holds every shard's read
    /// lock for the duration of the query (acquired in ascending order), so
    /// concurrent queries proceed in parallel and ingests are only delayed by
    /// in-flight queries touching their shard.
    pub fn locate(&self, request: &LocateRequest) -> Result<LocateResponse, LocaterError> {
        self.locate_to_depth(request, false)
    }

    /// Answers one request with the coarse step only — the *degraded* path a
    /// server takes when a request's deadline has already expired: the room
    /// stays unknown ([`Location::Region`](super::Location::Region)) but the
    /// caller still learns whether the device was inside and where, at
    /// coarse-step cost (no neighbor scan, no fine-step iterations, no cache
    /// writes, no diagnostics).
    pub fn locate_coarse(&self, request: &LocateRequest) -> Result<LocateResponse, LocaterError> {
        self.locate_to_depth(request, true)
    }

    /// One request as a batch of one ([`super::batch`]): the affinity graph is
    /// read-locked for the fine-step plan and write-locked for the merge,
    /// each alone.
    fn locate_to_depth(
        &self,
        request: &LocateRequest,
        coarse_only: bool,
    ) -> Result<LocateResponse, LocaterError> {
        self.with_view(|view, epochs| {
            let items = [BatchItem {
                t: request.t,
                device: resolve_target(view, request.mac.as_deref(), request.device),
                eff: self.engine.effective_for(request, coarse_only),
            }];
            let models_of = |device| &self.shards[self.home_shard(device)].models;
            let plan = |device, t_q, neighbors: &[DeviceId]| {
                relock(self.cache.read()).plan(device, neighbors, t_q, epochs)
            };
            let answered =
                batch::run_batch(&self.engine, view, epochs, &items, 1, &models_of, &plan);
            self.merge(&items, &answered, epochs);
            let (answer, diagnostics) = answered.into_iter().next().expect("one item")?;
            Ok(LocateResponse {
                device_epoch: epochs.epoch_of(answer.device),
                events_seen: view.num_events(),
                answer,
                diagnostics: (request.diagnostics && !coarse_only).then_some(diagnostics),
            })
        })
    }

    /// Answers a batch of requests through the parallel map every query runs
    /// through (`system/batch.rs`): `jobs` workers (the calling thread is
    /// one) claim the requests' per-device runs, each answered with its
    /// device's live home-shard model map and planned under one read guard of
    /// the affinity graph held for the whole run; after the workers join, the
    /// guard is dropped and the edges merge into the graph in request order.
    /// Responses are identical for every `jobs` value **and every shard
    /// count**, in request order; per-request overrides are honored; batch
    /// responses carry no diagnostics.
    pub fn locate_batch(
        &self,
        requests: &[LocateRequest],
        jobs: usize,
    ) -> Vec<Result<LocateResponse, LocaterError>> {
        self.with_view(|view, epochs| {
            let items: Vec<BatchItem> = requests
                .iter()
                .map(|request| BatchItem {
                    t: request.t,
                    device: resolve_target(view, request.mac.as_deref(), request.device),
                    eff: self.engine.effective_for(request, false),
                })
                .collect();
            // The read guard is gone before the merge takes the write lock on
            // the same graph.
            let models_of = |device| &self.shards[self.home_shard(device)].models;
            let answered = {
                let graph = relock(self.cache.read());
                let plan = |device, t_q, neighbors: &[DeviceId]| {
                    graph.plan(device, neighbors, t_q, epochs)
                };
                batch::run_batch(&self.engine, view, epochs, &items, jobs, &models_of, &plan)
            };
            self.merge(&items, &answered, epochs);
            let events_seen = view.num_events();
            answered
                .into_iter()
                .map(|answered| {
                    answered.map(|(answer, _)| LocateResponse {
                        device_epoch: epochs.epoch_of(answer.device),
                        events_seen,
                        answer,
                        diagnostics: None,
                    })
                })
                .collect()
        })
    }

    /// Merges the affinity contributions of answered items into the graph,
    /// in request order, under one write lock taken only if there is one.
    fn merge(&self, items: &[BatchItem], answered: &[Answered], epochs: &dyn EpochRead) {
        let mut contributions = items
            .iter()
            .zip(answered)
            .filter(|(item, _)| item.eff.cache == CacheMode::Enabled)
            .filter_map(|(_, answered)| {
                let (answer, diagnostics) = answered.as_ref().ok()?;
                let neighbors = &diagnostics.fine.as_ref()?.contributions;
                (!neighbors.is_empty()).then_some((answer, neighbors))
            })
            .peekable();
        if contributions.peek().is_some() {
            let mut graph = relock(self.cache.write());
            for (answer, neighbors) in contributions {
                graph.merge_stamped(answer.device, neighbors, answer.t, epochs);
            }
        }
    }

    // ------------------------------------------------------------------
    // Observability & maintenance
    // ------------------------------------------------------------------

    /// The current ingest epoch of a device (0 for devices never ingested
    /// through the service).
    pub fn device_epoch(&self, device: DeviceId) -> u64 {
        relock(self.shards[self.home_shard(device)].live.read())
            .epochs
            .of(device)
    }

    /// The space metadata the service answers over.
    pub fn space(&self) -> Arc<Space> {
        self.any_shard().store.space().clone()
    }

    /// Looks up a device id by MAC address / log identifier.
    pub fn device_id(&self, mac: &str) -> Option<DeviceId> {
        self.any_shard().store.device_id(mac)
    }

    /// A combined clone of the current store — the basis of the service's
    /// answers at this instant, reassembled from the shard partitions
    /// ([`EventStore::rejoin`]); bit-identical to what a single-shard service
    /// over the same events would hold. Useful for rebuild-equivalence checks.
    pub fn store_snapshot(&self) -> EventStore {
        let guards = self.read_all();
        EventStore::rejoin(guards.iter().map(|guard| &guard.store))
            .expect("shards of one service always rejoin")
    }

    /// Persists the combined store as one binary snapshot — the same file a
    /// single-shard deployment writes, loadable with any shard count
    /// ([`ShardedLocaterService::from_snapshot`]). Encoded straight from the
    /// timelines the shards hold; no combined store is assembled.
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        let bytes = self.with_view(|view, _| view.to_snapshot_bytes())?;
        locater_store::snapshot::write_atomic(path.as_ref(), &bytes)
    }

    /// Checkpoints the durable service: writes one consistent combined
    /// snapshot (atomically, under the all-shard write lock so no ingest can
    /// land between a shard's log and the snapshot) and trims every shard's
    /// log. After this, recovery loads the snapshot and replays nothing — a
    /// clean shutdown that checkpoints leaves an empty tail. Returns the
    /// checkpoint size in bytes, or `None` when the service has no WAL.
    pub fn checkpoint(&self) -> Result<Option<u64>, WalError> {
        let Some(durability) = self.durability.as_ref() else {
            return Ok(None);
        };
        let mut guards = self.write_all();
        let snapshot = ShardedRead::new(guards.iter().map(|guard| &guard.store).collect())
            .to_snapshot_bytes()?;
        let bytes = write_checkpoint_io(&durability.dir, &snapshot, durability.io.as_ref())?;
        for guard in guards.iter_mut() {
            if let Some(wal) = guard.wal.as_mut() {
                wal.reset()?;
            }
        }
        *relock(self.last_checkpoint.lock()) = Some(Instant::now());
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(Some(bytes))
    }

    // ------------------------------------------------------------------
    // Compaction / tiered ageing
    // ------------------------------------------------------------------

    /// The service's event-time watermark: the timestamp of the newest stored
    /// event, or `None` while empty. A [`Cut::Retain`] retains relative to
    /// this, so retention follows event time (deterministic under replay and
    /// in simulations), never the wall clock.
    pub fn watermark(&self) -> Option<Timestamp> {
        self.read_all()
            .iter()
            .filter_map(|guard| guard.store.time_span().map(|span| span.end - 1))
            .max()
    }

    /// Compacts every shard to `cut` ([`Cut::horizon`]): every event with
    /// `t <` the horizon leaves the hot tier and — only when `spill_dir` is
    /// given — is written there in one `spill-<cut>.<first id>.snap`
    /// snapshot, encoded straight from the evicted events. Without a spill
    /// directory the run keeps nothing of what it evicts. A retention over an
    /// empty service is a no-op. This is the one compaction path: the wire
    /// verb, the server's `--compact-interval` tick and offline
    /// `locater-cli compact` (over a one-shard service) all run it.
    ///
    /// Scheduling properties, in the order they matter operationally:
    ///
    /// * **off the ingest path** — shards are compacted sequentially, one
    ///   shard write lock at a time and only for the eviction itself, so
    ///   ingest and queries on every other shard proceed throughout the run;
    /// * **epoch-safe** — no device epoch is bumped: answers whose consulted
    ///   window lies inside the retained history are byte-identical before
    ///   and after, so every cached affinity and model stays valid (a model
    ///   still to be fitted on events this run evicts is fitted first, under
    ///   the same shard lock: [`Self::fit_pending_models`]);
    /// * **WAL-coherent** — on a durable service an effective run is followed
    ///   by a [`Self::checkpoint`], so recovery restarts from the compacted
    ///   state instead of resurrecting evicted history from an old snapshot
    ///   (either way answers in the retained window are unchanged).
    ///
    /// Returns the updated cumulative [`CompactionStatus`]. A run that evicts
    /// nothing is a cheap no-op (no spill file, no checkpoint). When the
    /// spill write fails the events are already out of the hot tier and the
    /// checkpoint is skipped: on a durable service the previous checkpoint
    /// plus the logs still hold them.
    pub fn compact(
        &self,
        cut: Cut,
        spill_dir: Option<&Path>,
    ) -> Result<CompactionStatus, WalError> {
        let Some(horizon) = cut.horizon(self.watermark()) else {
            return Ok(self.compaction_status());
        };
        let mut evicted_events = 0usize;
        let mut evicted = Vec::new();
        for shard in &self.shards {
            let mut live = relock(shard.live.write());
            self.fit_pending(shard, &live, horizon);
            let report = live.store.compact(horizon);
            drop(live);
            evicted_events += report.evicted_events;
            if spill_dir.is_some() {
                evicted.extend(report.evicted);
            }
        }

        let status = {
            let mut status = relock(self.compaction.lock());
            if evicted_events > 0 {
                status.runs += 1;
                status.evicted_events += evicted_events as u64;
                status.last_cut = Some(horizon);
            }
            *status
        };
        if evicted_events == 0 {
            return Ok(status);
        }

        let mut spill = None;
        if let Some(dir) = spill_dir {
            let bytes = self.with_view(|view, _| view.spill_snapshot_bytes(&evicted))?;
            let io: &dyn StorageIo = match self.durability.as_ref() {
                Some(durability) => durability.io.as_ref(),
                None => &RealIo,
            };
            spill = write_spill(dir, horizon, &evicted, &bytes, io)?;
        }
        *relock(self.last_spill.lock()) = spill;
        if self.durability.is_some() {
            self.checkpoint()?;
        }
        Ok(status)
    }

    /// The spill file the most recent effective [`Self::compact`] run wrote
    /// (`None` when that run had no spill directory).
    pub fn last_spill(&self) -> Option<PathBuf> {
        relock(self.last_spill.lock()).clone()
    }

    /// The cumulative compaction gauges (runs, evictions, last cut) since
    /// boot.
    pub fn compaction_status(&self) -> CompactionStatus {
        *relock(self.compaction.lock())
    }

    /// Approximate resident heap bytes across all shard stores (allocated
    /// capacity of the device timelines and the global timeline) — the gauge
    /// the soak harness asserts stays flat under compaction.
    pub fn approx_resident_bytes(&self) -> usize {
        self.read_all()
            .iter()
            .map(|guard| guard.store.approx_resident_bytes())
            .sum()
    }

    /// Current WAL gauges (`None` when the service has no WAL): segment,
    /// frame and byte counts summed over the shards, fsync policy, checkpoint
    /// age.
    pub fn wal_status(&self) -> Option<WalStatus> {
        let durability = self.durability.as_ref()?;
        let guards = self.read_all();
        let per_shard: Vec<WalShardStats> = guards
            .iter()
            .filter_map(|guard| guard.wal.as_ref().map(|wal| wal.stats()))
            .collect();
        let age = relock(self.last_checkpoint.lock())
            .map(|at| at.elapsed().as_millis() as u64)
            .unwrap_or(0);
        Some(WalStatus {
            dir: durability.dir.display().to_string(),
            fsync: durability.fsync.to_string(),
            segments: per_shard.iter().map(|s| s.segments).sum(),
            frames: per_shard.iter().map(|s| s.frames).sum(),
            bytes: per_shard.iter().map(|s| s.bytes).sum(),
            last_checkpoint_age_ms: age,
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
        })
    }

    /// Total number of events currently stored across all shards.
    pub fn num_events(&self) -> usize {
        self.read_all()
            .iter()
            .map(|guard| guard.store.num_events())
            .sum()
    }

    /// Number of distinct devices currently known (the device table is
    /// replicated, so one shard answers).
    pub fn num_devices(&self) -> usize {
        self.any_shard().store.num_devices()
    }

    /// Number of edges and samples physically held by the affinity graph,
    /// including stale ones awaiting eviction.
    pub fn cache_stats(&self) -> (usize, usize) {
        let graph = relock(self.cache.read());
        (graph.num_edges(), graph.num_samples())
    }

    /// Number of edges and samples live under the current epochs — the state
    /// queries can actually observe.
    pub fn live_cache_stats(&self) -> (usize, usize) {
        self.with_view(|_, epochs| relock(self.cache.read()).live_stats(epochs))
    }

    /// Per-shard event/device/store counters (what `locater-cli serve`'s
    /// `stats` command prints).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        let shards = self.shards.len();
        self.with_view(|view, _| {
            (0..shards)
                .map(|index| {
                    let store = view.shard(index);
                    let owned_devices = (0..store.num_devices())
                        .filter(|&idx| shard_of_device(DeviceId::new(idx as u32), shards) == index)
                        .count();
                    ShardStats {
                        shard: index,
                        events: store.num_events(),
                        owned_devices,
                        resident_bytes: store.approx_resident_bytes(),
                    }
                })
                .collect()
        })
    }

    /// The cached coarse-model entry of a device, live or stale, if any.
    pub fn cached_model(&self, device: DeviceId) -> Option<ModelEntry> {
        relock(self.shards[self.home_shard(device)].models.read())
            .get(&device)
            .cloned()
    }

    /// Fits the classifiers of every epoch-live cached coarse model that has
    /// not needed them yet and whose fit reads an event older than `below`;
    /// returns how many were fitted. Classifiers are a pure function of the
    /// device's events in the model's window, so this changes no answer:
    /// [`Self::compact`] does it before evicting those events, and with
    /// `below = i64::MAX` the service becomes one that trains eagerly.
    pub fn fit_pending_models(&self, below: Timestamp) -> usize {
        let fit = |shard: &Shard| {
            let live = relock(shard.live.read());
            self.fit_pending(shard, &live, below)
        };
        self.shards.iter().map(fit).sum()
    }

    /// [`Self::fit_pending_models`] for one shard, whose `live` lock the caller
    /// holds. The models leave the map lock before any of them is fitted.
    fn fit_pending(&self, shard: &Shard, live: &ShardLive, below: Timestamp) -> usize {
        let pending: Vec<_> = relock(shard.models.read())
            .values()
            .filter(|e| !e.model.is_fitted() && e.epoch == live.epochs.of(e.model.device))
            .map(|entry| Arc::clone(&entry.model))
            .collect();
        let coarse = &self.engine.coarse;
        let fit = |model: &&Arc<_>| coarse.fit_before_eviction(&live.store, model, below);
        pending.iter().filter(fit).count()
    }

    /// Eagerly evicts stale affinity edges and every shard's stale coarse
    /// models, returning `(edges_evicted, models_evicted)`. Optional
    /// maintenance — queries never observe stale state either way.
    pub fn purge_stale(&self) -> (usize, usize) {
        self.with_view(|_, epochs| {
            let edges = relock(self.cache.write()).purge_stale(epochs);
            let mut models_evicted = 0usize;
            for shard in &self.shards {
                let mut models = relock(shard.models.write());
                let before = models.len();
                models.retain(|&device, entry| entry.epoch == epochs.epoch_of(device));
                models_evicted += before - models.len();
            }
            (edges, models_evicted)
        })
    }

    /// Drops all cached affinities and every shard's per-device coarse models
    /// (epochs are untouched; prefer letting epoch invalidation work instead).
    pub fn clear_cache(&self) {
        relock(self.cache.write()).clear();
        for shard in &self.shards {
            relock(shard.models.write()).clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::MAX_SAMPLES_PER_EDGE;
    use crate::coarse::CoarseMethod;
    use crate::fine::FineMode;
    use crate::system::{Answer, Location};
    use locater_events::clock;
    use locater_space::{RegionId, RoomType, SpaceBuilder};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicBool;
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;

    /// `wap2`'s region overlaps no other: devices seen only there are never
    /// neighbors of devices on `wap0` / `wap1`.
    fn space() -> Space {
        SpaceBuilder::new("service-test")
            .add_access_point("wap0", &["office-a", "office-b", "lounge"])
            .add_access_point("wap1", &["lounge", "lab"])
            .add_access_point("wap2", &["annex-a", "annex-b"])
            .room_type("lounge", RoomType::Public)
            .room_owner("office-a", "alice")
            .room_owner("office-b", "bob")
            .build()
            .unwrap()
    }

    /// Alice and Bob work together on wap0 on weekdays for `weeks` weeks.
    fn office_store(weeks: i64) -> EventStore {
        let mut store = EventStore::new(space());
        work_together(&mut store, ("alice", "bob"), "wap0", weeks);
        store
    }

    /// Both devices connect to `ap` every half hour from 9:00 on weekdays for
    /// `weeks` weeks, the second 45 s after the first.
    fn work_together(store: &mut EventStore, (a, b): (&str, &str), ap: &str, weeks: i64) {
        for week in 0..weeks {
            for day in 0..5 {
                let d = week * 7 + day;
                for slot in 0..16 {
                    let t = clock::at(d, 9, slot * 30, 0);
                    store.ingest_raw(a, t, ap).unwrap();
                    store.ingest_raw(b, t + 45, ap).unwrap();
                }
            }
        }
    }

    /// Every behaviour pinned here must hold for one store behind one lock and
    /// for a partitioned one: each listed `fn(shards)` becomes one test per
    /// shard count.
    macro_rules! at_shard_counts_1_and_3 {
        ($($name:ident),* $(,)?) => {
            mod one_shard {
                $(#[test] fn $name() { super::$name(1); })*
            }
            mod three_shards {
                $(#[test] fn $name() { super::$name(3); })*
            }
        };
    }

    at_shard_counts_1_and_3!(
        request_resolution_by_mac_and_id,
        covered_query_resolves_to_a_room_in_the_covering_region,
        coarse_only_answer_stops_at_the_region,
        overnight_query_is_outside,
        out_of_span_query_is_outside,
        coarse_models_are_cached_and_reused,
        a_placeholder_never_displaces_a_fitted_model,
        caching_engine_accumulates_edges_across_queries,
        disabled_cache_never_stores_affinities,
        configured_modes_answer,
        locate_batch_is_identical_across_job_counts,
        locate_batch_preserves_request_order_and_errors,
        locate_batch_warms_cache_and_models_afterwards,
        locate_batch_with_cache_disabled_stores_nothing,
        locate_batch_merges_in_request_order,
        locate_batch_on_empty_input_is_empty,
        consecutive_locate_batches_are_identical_across_job_counts,
        locate_batch_of_only_unresolvable_requests_errors_in_place,
        batch_routes_through_request_layer_in_order,
        ingest_appends_and_bumps_epochs,
        ingest_batch_stops_at_first_error_but_keeps_prefix,
        panic_under_the_write_locks_does_not_wedge_the_service,
        locate_answers_and_reports_epoch_and_store_size,
        per_request_cache_bypass_stores_nothing,
        per_request_fine_mode_override_answers,
        ingest_invalidates_exactly_the_touched_device,
    );

    fn office_service(weeks: i64, config: LocaterConfig, shards: usize) -> ShardedLocaterService {
        ShardedLocaterService::new(office_store(weeks), config, shards)
    }

    fn empty_service(shards: usize) -> ShardedLocaterService {
        ShardedLocaterService::new(EventStore::new(space()), LocaterConfig::default(), shards)
    }

    fn request_resolution_by_mac_and_id(shards: usize) {
        let service = office_service(1, LocaterConfig::default(), shards);
        let alice = service.device_id("alice").unwrap();
        let resolve = |request: LocateRequest| service.locate(&request).map(|r| r.answer.device);
        assert_eq!(resolve(LocateRequest::by_mac("alice", 0)).unwrap(), alice);
        assert_eq!(resolve(LocateRequest::by_device(alice, 0)).unwrap(), alice);
        assert!(matches!(
            resolve(LocateRequest::by_mac("nobody", 0)),
            Err(LocaterError::UnknownDevice(_))
        ));
        assert!(matches!(
            resolve(LocateRequest::by_device(DeviceId::new(99), 0)),
            Err(LocaterError::UnknownDevice(_))
        ));
        let mut nameless = LocateRequest::by_mac("alice", 0);
        nameless.mac = None;
        assert!(matches!(
            resolve(nameless),
            Err(LocaterError::MissingDevice)
        ));
    }

    fn covered_query_resolves_to_a_room_in_the_covering_region(shards: usize) {
        let service = office_service(2, LocaterConfig::default(), shards);
        let t_q = clock::at(8, 9, 5, 10);
        let answer = service
            .locate(&LocateRequest::by_mac("alice", t_q))
            .unwrap()
            .answer;
        assert!(answer.is_inside());
        assert_eq!(answer.coarse_method, CoarseMethod::CoveredByEvent);
        let region = answer.region().unwrap();
        assert_eq!(region, RegionId::new(0));
        let room = answer.room().unwrap();
        assert!(service.space().rooms_in_region(region).contains(&room));
        assert!(answer.confidence > 0.0);
    }

    fn coarse_only_answer_stops_at_the_region(shards: usize) {
        let service = office_service(2, LocaterConfig::default(), shards);
        let request = LocateRequest::by_mac("alice", clock::at(8, 9, 5, 10)).with_diagnostics();
        // On a fresh service the coarse-only answer writes no edge, where the
        // full answer to the same request does.
        let degraded = service.locate_coarse(&request).unwrap();
        assert_eq!(service.cache_stats(), (0, 0));
        let full = service.locate(&request).unwrap();
        assert_ne!(service.cache_stats(), (0, 0));
        assert_eq!(
            degraded.answer.location,
            Location::Region(full.answer.region().unwrap())
        );
        assert_eq!(degraded.answer.coarse_method, full.answer.coarse_method);
        assert!(degraded.diagnostics.is_none());
        assert_eq!(degraded.events_seen, full.events_seen);
    }

    fn overnight_query_is_outside(shards: usize) {
        let service = office_service(4, LocaterConfig::default(), shards);
        let t_q = clock::at(22, 3, 0, 0);
        let answer = service
            .locate(&LocateRequest::by_mac("alice", t_q))
            .unwrap()
            .answer;
        assert!(answer.is_outside());
        assert_eq!(answer.location, Location::Outside);
        assert_eq!(answer.room(), None);
        assert_eq!(answer.region(), None);
    }

    fn out_of_span_query_is_outside(shards: usize) {
        let service = office_service(1, LocaterConfig::default(), shards);
        let answer = service
            .locate(&LocateRequest::by_mac("alice", clock::at(400, 12, 0, 0)))
            .unwrap()
            .answer;
        assert!(answer.is_outside());
        assert_eq!(answer.coarse_method, CoarseMethod::OutOfSpan);
    }

    fn coarse_models_are_cached_and_reused(shards: usize) {
        let service = office_service(4, LocaterConfig::default(), shards);
        // A query in a short mid-day gap on the last week.
        let t_q = clock::at(22, 9, 20, 10);
        let diagnostics = |t| {
            service
                .locate(&LocateRequest::by_mac("alice", t).with_diagnostics())
                .unwrap()
                .diagnostics
                .unwrap()
        };
        let first = diagnostics(t_q);
        let second = diagnostics(t_q + 60);
        // The first gap-classifying query trains the model; the second reuses it
        // (covered queries never touch the model, so pick gap times).
        if first.coarse.gap.is_some() && second.coarse.gap.is_some() {
            assert!(!first.coarse_model_reused);
            assert!(second.coarse_model_reused);
        }
    }

    fn a_placeholder_never_displaces_a_fitted_model(shards: usize) {
        let service = three_team_service(shards);
        let erin = service.device_id("erin").unwrap();
        let locate = |t| {
            service
                .locate(&LocateRequest::by_mac("erin", t).with_diagnostics())
                .unwrap()
                .diagnostics
                .unwrap()
        };
        let cached = || {
            let entry = service.cached_model(erin).expect("cached");
            (entry.model.history.end, entry.model.is_fitted())
        };
        // Erin's silent lunch of the fourth week: the classifiers decide it,
        // with the window that ends at the start of that week.
        let lunch = clock::at(22, 12, 0, 0);
        assert_eq!(locate(lunch).coarse.method, CoarseMethod::Classifier);
        assert_eq!(cached(), (clock::days(21), true));
        // A night of the third week misses (another window) and is decided by
        // duration: its unfitted model does not replace the fitted one.
        let night = locate(clock::at(15, 3, 0, 0));
        assert_eq!(night.coarse.method, CoarseMethod::BootstrapHeuristic);
        assert!(!night.coarse_model_reused);
        assert_eq!(cached(), (clock::days(21), true));
        assert!(locate(lunch + 60).coarse_model_reused);
        // One that does fit replaces it.
        let earlier_lunch = locate(clock::at(15, 12, 0, 0));
        assert_eq!(earlier_lunch.coarse.method, CoarseMethod::Classifier);
        assert_eq!(cached(), (clock::days(14), true));
    }

    fn caching_engine_accumulates_edges_across_queries(shards: usize) {
        let service = office_service(3, LocaterConfig::default(), shards);
        assert_eq!(service.cache_stats(), (0, 0));
        // Alice is covered at this time and Bob is online nearby: the fine step runs
        // and produces contributions.
        let t_q = clock::at(15, 9, 30, 20);
        let diagnostics = |t| {
            service
                .locate(&LocateRequest::by_mac("alice", t).with_diagnostics())
                .unwrap()
                .diagnostics
                .unwrap()
        };
        assert!(diagnostics(t_q).fine.is_some());
        let (edges, samples) = service.cache_stats();
        assert!(edges >= 1, "expected cached edges after a fine query");
        assert!(samples >= 1);
        // The second query sees a warm cache.
        assert!(diagnostics(t_q + 120).cache_warm);
        service.clear_cache();
        assert_eq!(service.cache_stats(), (0, 0));
    }

    fn disabled_cache_never_stores_affinities(shards: usize) {
        let config = LocaterConfig::default().with_cache(CacheMode::Disabled);
        let service = office_service(3, config, shards);
        let t_q = clock::at(15, 9, 30, 20);
        service
            .locate(&LocateRequest::by_mac("alice", t_q))
            .unwrap();
        assert_eq!(service.cache_stats(), (0, 0));
    }

    fn configured_modes_answer(shards: usize) {
        let config = LocaterConfig::default()
            .with_fine_mode(FineMode::Dependent)
            .with_cache(CacheMode::Disabled)
            .with_history(clock::weeks(2));
        let service = office_service(2, config, shards);
        let response = service
            .locate(&LocateRequest::by_mac("bob", clock::at(8, 9, 30, 10)))
            .unwrap();
        assert!(response.answer.is_inside());
    }

    /// A mixed batch workload over the office store: covered instants, gaps,
    /// out-of-span times, and an unknown device.
    fn batch_requests() -> Vec<LocateRequest> {
        let mut requests = Vec::new();
        for day in 10..20 {
            for (mac, minute) in [("alice", 5), ("bob", 20), ("alice", 40)] {
                requests.push(LocateRequest::by_mac(mac, clock::at(day, 9, minute, 10)));
                requests.push(LocateRequest::by_mac(mac, clock::at(day, 13, minute, 0)));
                requests.push(LocateRequest::by_mac(mac, clock::at(day, 3, minute, 0)));
            }
        }
        requests.push(LocateRequest::by_mac("ghost", clock::at(12, 9, 0, 0)));
        requests.push(LocateRequest::by_mac("alice", clock::at(400, 9, 0, 0)));
        requests
    }

    fn locate_batch_is_identical_across_job_counts(shards: usize) {
        let requests = batch_requests();
        let baseline = office_service(4, LocaterConfig::default(), shards);
        let sequential = baseline.locate_batch(&requests, 1);
        for jobs in [2, 3, 8, 64] {
            let service = office_service(4, LocaterConfig::default(), shards);
            let parallel = service.locate_batch(&requests, jobs);
            assert_eq!(sequential, parallel, "jobs={jobs} diverged from jobs=1");
        }
    }

    fn locate_batch_preserves_request_order_and_errors(shards: usize) {
        let service = office_service(3, LocaterConfig::default(), shards);
        let requests = batch_requests();
        let results = service.locate_batch(&requests, 4);
        assert_eq!(results.len(), requests.len());
        for (request, result) in requests.iter().zip(&results) {
            match result {
                Ok(response) => assert_eq!(response.answer.t, request.t),
                Err(e) => assert!(matches!(e, LocaterError::UnknownDevice(_))),
            }
        }
        // The ghost request errors in place; its neighbors are still answered.
        let ghost = requests
            .iter()
            .position(|r| r.mac.as_deref() == Some("ghost"));
        assert!(results[ghost.unwrap()].is_err());
        assert!(results.iter().filter(|r| r.is_ok()).count() >= requests.len() - 1);
    }

    fn locate_batch_warms_cache_and_models_afterwards(shards: usize) {
        let service = office_service(3, LocaterConfig::default(), shards);
        assert_eq!(service.cache_stats(), (0, 0));
        let requests: Vec<LocateRequest> = (0..8)
            .map(|i| LocateRequest::by_mac("alice", clock::at(15, 9, 30, 20 + i)))
            .collect();
        let results = service.locate_batch(&requests, 2);
        assert!(results.iter().all(Result::is_ok));
        let (edges, samples) = service.cache_stats();
        assert!(
            edges >= 1,
            "batch contributions must reach the global graph"
        );
        assert!(samples >= 1);

        // A batch gap query caches alice's model in the live map, so the next
        // single query in the same grid cell reuses it.
        let gap = clock::at(15, 9, 20, 10);
        service.locate_batch(&[LocateRequest::by_mac("alice", gap)], 2);
        let diagnostics = service
            .locate(&LocateRequest::by_mac("alice", gap + 60).with_diagnostics())
            .unwrap()
            .diagnostics
            .unwrap();
        if diagnostics.coarse.gap.is_some() {
            assert!(diagnostics.coarse_model_reused);
        }
    }

    fn locate_batch_with_cache_disabled_stores_nothing(shards: usize) {
        let config = LocaterConfig::default().with_cache(CacheMode::Disabled);
        let service = office_service(3, config, shards);
        let results = service.locate_batch(&batch_requests(), 4);
        assert!(results.iter().any(Result::is_ok));
        assert_eq!(service.cache_stats(), (0, 0));
    }

    /// A batch that alternates between Alice and Bob gives their one edge
    /// more contributions than it keeps samples, so which samples survive
    /// depends on the merge order. The batch must leave the graph that merging
    /// the same contributions in request order builds. Each reference
    /// contribution comes from a fresh service, whose graph is empty, as the
    /// batch's frozen graph is.
    fn locate_batch_merges_in_request_order(shards: usize) {
        let fresh = || office_service(3, LocaterConfig::default(), shards);
        let requests: Vec<LocateRequest> = (14..19)
            .flat_map(|day| (0..8).map(move |slot| clock::at(day, 9, slot * 30, 50)))
            .flat_map(|t| {
                [
                    LocateRequest::by_mac("alice", t),
                    LocateRequest::by_mac("bob", t + 5),
                ]
            })
            .collect();
        let service = fresh();
        assert!(service.locate_batch(&requests, 2).iter().all(Result::is_ok));
        let (alice, bob) = (
            service.device_id("alice").unwrap(),
            service.device_id("bob").unwrap(),
        );
        service.with_view(|_, epochs| {
            let mut reference = GlobalAffinityGraph::new();
            let mut on_edge = 0;
            for request in &requests {
                let response = fresh().locate(&request.clone().with_diagnostics()).unwrap();
                let device = response.answer.device;
                let fine = response.diagnostics.unwrap().fine.expect("a covered query");
                on_edge += (fine.contributions.iter())
                    .filter(|c| c.device != device && [alice, bob].contains(&c.device))
                    .count();
                reference.merge_stamped(device, &fine.contributions, request.t, epochs);
            }
            assert!(on_edge > MAX_SAMPLES_PER_EDGE, "{on_edge} contributions");
            let graph = relock(service.cache.read());
            for request in &requests {
                let bits = |graph: &GlobalAffinityGraph| {
                    let (weight, pair) = graph.lookup(alice, bob, request.t, epochs)?;
                    Some((weight.to_bits(), pair.to_bits()))
                };
                assert_eq!(bits(&graph), bits(&reference), "at t = {}", request.t);
            }
        });
    }

    fn locate_batch_on_empty_input_is_empty(shards: usize) {
        let service = office_service(1, LocaterConfig::default(), shards);
        assert!(service.locate_batch(&[], 4).is_empty());
    }

    /// Three pairs of colleagues on three access points for four weeks. Erin
    /// and Frank are silent from 11:00 to 13:30: a gap the duration
    /// thresholds leave to the classifiers, so their queries train models.
    fn three_team_service(shards: usize) -> ShardedLocaterService {
        let mut store = office_store(4);
        work_together(&mut store, ("carol", "dave"), "wap1", 4);
        for day in (0..4).flat_map(|week| (0..5).map(move |day| week * 7 + day)) {
            for slot in (0..16).filter(|slot| !(5..9).contains(slot)) {
                let t = clock::at(day, 9, slot * 30, 0);
                store.ingest_raw("erin", t, "wap2").unwrap();
                store.ingest_raw("frank", t + 45, "wap2").unwrap();
            }
        }
        ShardedLocaterService::new(store, LocaterConfig::default(), shards)
    }

    /// Covered, gap and overnight queries over ten days, `k + 1` a day for
    /// the `k`-th device, so groups differ in size; `offset` seconds later
    /// than the base times.
    fn skewed_requests(offset: i64) -> Vec<LocateRequest> {
        let macs = ["alice", "bob", "carol", "dave", "erin", "frank"];
        let mut requests = Vec::new();
        for day in 10..20 {
            for (k, mac) in macs.into_iter().enumerate() {
                for j in 0..=k as i64 {
                    let hour = [9, 13, 3][(j % 3) as usize];
                    let t = clock::at(day, hour, 5 + 7 * j, 10) + offset;
                    requests.push(LocateRequest::by_mac(mac, t));
                }
            }
        }
        requests
    }

    fn consecutive_locate_batches_are_identical_across_job_counts(shards: usize) {
        // The second call reads the models the first cached and the edges it
        // merged, so a cache state that depends on which thread answered
        // shows up there.
        let (first, second) = (skewed_requests(0), skewed_requests(60));
        let run = |jobs: usize| {
            let service = three_team_service(shards);
            let first = service.locate_batch(&first, jobs);
            let after_first = service.live_cache_stats();
            let second = service.locate_batch(&second, jobs);
            (first, after_first, second, service.live_cache_stats())
        };
        let sequential = run(1);
        assert!(sequential.1 .0 > 0, "the first call must merge edges");
        let answers = || sequential.0.iter().chain(&sequential.2);
        assert!(answers().all(Result::is_ok));
        assert!(
            answers()
                .flatten()
                .any(|r| r.answer.coarse_method == CoarseMethod::Classifier),
            "the calls must train and reuse models"
        );
        for jobs in [2, 5] {
            assert_eq!(run(jobs), sequential, "jobs={jobs} diverged from jobs=1");
        }
    }

    fn locate_batch_of_only_unresolvable_requests_errors_in_place(shards: usize) {
        let service = office_service(1, LocaterConfig::default(), shards);
        let mut nameless = LocateRequest::by_mac("alice", 0);
        nameless.mac = None;
        let requests = [
            LocateRequest::by_mac("ghost", clock::at(3, 9, 0, 0)),
            nameless,
            LocateRequest::by_device(DeviceId::new(99), clock::at(3, 9, 0, 0)),
        ];
        let results = service.locate_batch(&requests, 4);
        assert_eq!(results.len(), 3);
        assert!(matches!(results[0], Err(LocaterError::UnknownDevice(_))));
        assert!(matches!(results[1], Err(LocaterError::MissingDevice)));
        assert!(matches!(results[2], Err(LocaterError::UnknownDevice(_))));
        assert_eq!(service.cache_stats(), (0, 0));
    }

    fn batch_routes_through_request_layer_in_order(shards: usize) {
        let service = office_service(3, LocaterConfig::default(), shards);
        let requests = vec![
            LocateRequest::by_mac("alice", clock::at(15, 9, 30, 20)),
            LocateRequest::by_mac("ghost", 1_000),
            LocateRequest::by_mac("bob", clock::at(15, 3, 0, 0)).bypass_cache(),
        ];
        let responses = service.locate_batch(&requests, 2);
        assert_eq!(responses.len(), 3);
        assert!(responses[0].as_ref().unwrap().answer.is_inside());
        assert!(matches!(responses[1], Err(LocaterError::UnknownDevice(_))));
        assert!(responses[2].as_ref().unwrap().answer.is_outside());
    }

    fn ingest_appends_and_bumps_epochs(shards: usize) {
        let service = empty_service(shards);
        assert_eq!(service.num_events(), 0);
        service.ingest("alice", 1_000, "wap0").unwrap();
        service.ingest("alice", 1_300, "wap0").unwrap();
        service.ingest("bob", 1_100, "wap1").unwrap();
        assert_eq!(service.num_events(), 3);
        assert_eq!(service.num_devices(), 2);
        let alice = service.device_id("alice").unwrap();
        let bob = service.device_id("bob").unwrap();
        assert_eq!(service.device_epoch(alice), 2);
        assert_eq!(service.device_epoch(bob), 1);

        // Unknown AP: error surfaces, nothing appended.
        assert!(service.ingest("alice", 2_000, "wap9").is_err());
        assert_eq!(service.num_events(), 3);
        assert_eq!(service.device_epoch(alice), 2);
    }

    fn ingest_batch_stops_at_first_error_but_keeps_prefix(shards: usize) {
        let service = empty_service(shards);
        let events = [
            RawEvent::new("alice", 1_000, "wap0"),
            RawEvent::new("bob", 1_100, "wap1"),
            RawEvent::new("alice", 1_200, "nope"),
            RawEvent::new("bob", 1_300, "wap1"),
        ];
        let err = service.ingest_batch(events.iter()).unwrap_err();
        assert!(matches!(err, IngestError::UnknownAccessPoint(_)));
        assert_eq!(service.num_events(), 2);
        let alice = service.device_id("alice").unwrap();
        assert_eq!(service.device_epoch(alice), 1);
    }

    /// `ingest_batch` pulls a caller-supplied iterator under the all-shard
    /// write lock. A panic out of that iterator poisons every shard lock; the
    /// service must recover them (the server isolates requests with
    /// `catch_unwind` and keeps serving), with the events applied before the
    /// panic intact.
    fn panic_under_the_write_locks_does_not_wedge_the_service(shards: usize) {
        let service = empty_service(shards);
        let events = [
            RawEvent::new("alice", 1_000, "wap0"),
            RawEvent::new("bob", 1_100, "wap1"),
        ];
        let mut pulled = 0;
        let panicking = std::iter::from_fn(|| {
            pulled += 1;
            match pulled {
                1 | 2 => Some(&events[pulled - 1]),
                _ => panic!("iterator failed on its third next()"),
            }
        });
        let outcome = catch_unwind(AssertUnwindSafe(|| service.ingest_batch(panicking)));
        assert!(outcome.is_err(), "the iterator's panic must propagate");

        // The two events before the panic are visible...
        assert_eq!(service.num_events(), 2);
        let alice = service.device_id("alice").unwrap();
        assert_eq!(service.device_epoch(alice), 1);
        // ...and ingest, locate and ingest_batch all still work.
        service.ingest("alice", 4_000, "wap0").unwrap();
        let response = service
            .locate(&LocateRequest::by_mac("alice", 2_500))
            .unwrap();
        assert!(response.answer.is_inside());
        assert_eq!(response.events_seen, 3);
        let more = [RawEvent::new("carol", 1_200, "wap1")];
        assert_eq!(service.ingest_batch(more.iter()).unwrap(), 1);
        assert_eq!(service.num_events(), 4);
    }

    /// The device table is replicated, so looking a device up must not wait
    /// behind a write to a shard the device does not live on: while shard 0 is
    /// write-locked, an ingest for a device homed elsewhere goes through.
    #[test]
    fn ingest_does_not_wait_behind_a_write_to_another_shard() {
        let service = office_service(1, LocaterConfig::default(), 3);
        let (mac, device) = ["alice", "bob"]
            .into_iter()
            .map(|mac| (mac, service.device_id(mac).unwrap()))
            .find(|&(_, device)| service.home_shard(device) != 0)
            .expect("two dense ids cannot both live on shard 0 of 3");
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let busy = relock(service.shards[0].live.write());
            scope.spawn(|| {
                let ingested = service.ingest(mac, clock::at(8, 9, 0, 0), "wap0");
                let looked_up = service.device_id(mac);
                done.send((ingested.is_ok(), looked_up)).unwrap();
            });
            let outcome = finished.recv_timeout(std::time::Duration::from_secs(10));
            drop(busy);
            assert_eq!(outcome, Ok((true, Some(device))));
        });
    }

    /// A batch answers with the affinity graph read-locked while locates merge
    /// into it and ingests write-lock shards: nothing may deadlock, and since
    /// the busy devices live on `wap2` only, they can change none of the
    /// batch's answers — each round must equal the same round on a quiet twin
    /// that only runs the batches.
    #[test]
    fn locate_batch_beside_concurrent_locates_and_ingests_matches_a_quiet_twin() {
        const ROUNDS: usize = 6;
        let build = || {
            let mut store = office_store(4);
            work_together(&mut store, ("carol", "dave"), "wap2", 4);
            ShardedLocaterService::new(store, LocaterConfig::default(), 3)
        };
        fn answers(
            service: &ShardedLocaterService,
            requests: &[LocateRequest],
        ) -> Vec<Option<Answer>> {
            let responses = service.locate_batch(requests, 2);
            responses
                .into_iter()
                .map(|r| r.ok().map(|r| r.answer))
                .collect()
        }
        let requests = batch_requests();
        let quiet = build();
        let expected: Vec<_> = (0..ROUNDS).map(|_| answers(&quiet, &requests)).collect();

        let busy = Arc::new(build());
        let (done, finished) = mpsc::channel();
        // Not scoped: on a deadlock the main thread must still reach its
        // timeout, so this thread is joined only once it has reported.
        let driver = std::thread::spawn({
            let busy = Arc::clone(&busy);
            let requests = requests.clone();
            move || {
                let start = Barrier::new(3);
                let batching = AtomicBool::new(true);
                let rounds: Vec<_> = std::thread::scope(|scope| {
                    for mac in ["carol", "dave"] {
                        let (busy, start, batching) = (&busy, &start, &batching);
                        scope.spawn(move || {
                            start.wait();
                            // The flag publishes no data, so Relaxed suffices.
                            let mut i = 0;
                            while i < 8 || batching.load(Ordering::Relaxed) {
                                let t = clock::at(14 + i % 5, 9, 30, 20);
                                let located = busy.locate(&LocateRequest::by_mac(mac, t));
                                assert!(located.unwrap().answer.is_inside());
                                busy.ingest(mac, clock::at(60, 9, 0, i), "wap2").unwrap();
                                let guest = format!("{mac}-guest-{i}");
                                busy.ingest(&guest, clock::at(60, 10, 0, i), "wap2")
                                    .unwrap();
                                i += 1;
                            }
                        });
                    }
                    start.wait();
                    let rounds = (0..ROUNDS).map(|_| answers(&busy, &requests)).collect();
                    batching.store(false, Ordering::Relaxed);
                    rounds
                });
                done.send(rounds)
                    .expect("the test thread waits for the rounds");
            }
        });
        let rounds = finished
            .recv_timeout(Duration::from_secs(120))
            .expect("batch, locates and ingests must not deadlock");
        driver
            .join()
            .expect("the driver thread reported, so it ends");
        assert_eq!(rounds, expected);
        assert!(busy.num_devices() >= 4 + 2 * 8);
    }

    fn locate_answers_and_reports_epoch_and_store_size(shards: usize) {
        let service = office_service(2, LocaterConfig::default(), shards);
        let t_q = clock::at(8, 9, 5, 10);
        let response = service
            .locate(&LocateRequest::by_mac("alice", t_q))
            .unwrap();
        assert!(response.answer.is_inside());
        assert_eq!(response.device_epoch, 0, "no live ingests yet");
        assert_eq!(response.events_seen, service.num_events());
        assert!(response.diagnostics.is_none(), "diagnostics are opt-in");

        let detailed = service
            .locate(&LocateRequest::by_mac("alice", t_q).with_diagnostics())
            .unwrap();
        assert!(detailed.diagnostics.is_some());
    }

    fn per_request_cache_bypass_stores_nothing(shards: usize) {
        let service = office_service(3, LocaterConfig::default(), shards);
        let t_q = clock::at(15, 9, 30, 20);
        let bypass = LocateRequest::by_mac("alice", t_q).bypass_cache();
        service.locate(&bypass).unwrap();
        assert_eq!(service.cache_stats(), (0, 0));

        // The same request without the bypass warms the graph.
        service
            .locate(&LocateRequest::by_mac("alice", t_q))
            .unwrap();
        assert!(service.cache_stats().0 >= 1);
    }

    fn per_request_fine_mode_override_answers(shards: usize) {
        let service = office_service(3, LocaterConfig::default(), shards);
        let t_q = clock::at(15, 9, 30, 20);
        let response = service
            .locate(&LocateRequest::by_mac("alice", t_q).with_fine_mode(FineMode::Dependent))
            .unwrap();
        assert!(response.answer.is_inside());
    }

    fn ingest_invalidates_exactly_the_touched_device(shards: usize) {
        let service = office_service(3, LocaterConfig::default(), shards);
        let t_q = clock::at(15, 9, 30, 20);
        // Warm alice↔bob (via alice's query).
        service
            .locate(&LocateRequest::by_mac("alice", t_q))
            .unwrap();
        let (live_edges, _) = service.live_cache_stats();
        assert!(live_edges >= 1);

        // An event for bob invalidates the alice↔bob edge...
        service.ingest("bob", t_q + 600, "wap0").unwrap();
        assert_eq!(service.live_cache_stats().0, 0);
        assert!(
            service.cache_stats().0 >= 1,
            "stale edge lingers until eviction"
        );

        // ...and a purge reclaims it.
        let (edges_evicted, _) = service.purge_stale();
        assert!(edges_evicted >= 1);
        assert_eq!(service.cache_stats().0, 0);
    }
}
