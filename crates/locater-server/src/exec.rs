//! The request executor: one [`ServerState::execute`] path shared by every
//! protocol front end (TCP connection threads and the stdin REPL, which
//! write the same response frames).
//!
//! The executor owns the [`ShardedLocaterService`] plus the serving-layer
//! counters ([`WireStats`] uptime, in-flight/queued gauges, rejection
//! counters), so `stats` reports the same numbers no matter which transport
//! asked.

use locater_core::system::{Cut, ShardedLocaterService};
use locater_events::clock::Timestamp;
use locater_events::DeviceId;
use locater_proto::{WireError, WireRequest, WireResponse, WireStats, PROTOCOL_VERSION};
use locater_space::{AccessPointId, Space};
use locater_store::RecoveryReport;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Default bound on how many acknowledged ingest request ids a
/// [`ServerState`] remembers for replay deduplication. `locater-cli serve`
/// overrides it with [`ServerState::with_dedup_capacity`], sizing the window
/// off its admission limit; [`Server::bind`](crate::Server::bind) keeps
/// whatever window the state it is given carries. Old entries age out in
/// insertion order; a client retrying within this window gets the original
/// ack back instead of a second apply.
const DEDUP_CAPACITY: usize = 1024;

/// One request id's place in the replay-dedup window. A completed ack is
/// kept as the ids it resolved to, not as a response frame: a replay
/// rebuilds the frame from the retry's own strings, so a verbatim retry
/// gets the original bytes back and the window costs 24 bytes a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DedupSlot {
    /// A thread claimed the id and is executing it right now. Concurrent
    /// arrivals of the same id park on the marker instead of executing a
    /// second apply.
    InFlight,
    /// The id acked one `Ingest`: the device and access point it resolved
    /// to, its timestamp (ingest refuses any outside `u32`) and the epoch
    /// the ack reported.
    Ingested {
        device: DeviceId,
        t: u32,
        ap: AccessPointId,
        device_epoch: u64,
    },
    /// The id acked one `IngestBatch` of `appended` events.
    IngestedBatch { appended: usize },
}

/// The bounded replay cache: per-request-id slots plus the insertion order
/// of *completed* acks, so eviction is FIFO over completed entries only —
/// an in-flight marker is never evicted (the thread that planted it always
/// completes or removes it).
#[derive(Debug, Default)]
struct DedupCache {
    slots: HashMap<u64, DedupSlot>,
    order: VecDeque<u64>,
}

/// What [`ServerState::claim_dedup`] decided for a request id.
enum DedupClaim {
    /// The caller owns the id: execute the request, then resolve the marker
    /// with [`ServerState::complete_dedup`].
    Execute,
    /// The id already completed (possibly while this call waited out an
    /// in-flight marker): answer with the original ack, apply nothing.
    Replay(DedupSlot),
}

/// A live service plus the serving-layer bookkeeping around it.
///
/// Front ends funnel every request through [`execute`](Self::execute); the
/// TCP server additionally drives the admission counters
/// (`try_admit`, `begin_execution`, `finish_execution`) so `stats` can report
/// in-flight/queued gauges and the load harness can assert that backpressure
/// engaged.
#[derive(Debug)]
pub struct ServerState {
    service: ShardedLocaterService,
    /// The service's space (fixed for its lifetime), kept to resolve a
    /// replayed ingest's access point without a shard lock.
    space: Arc<Space>,
    started: Instant,
    requests_served: AtomicU64,
    in_flight: AtomicUsize,
    queued: AtomicUsize,
    rejected_overloaded: AtomicU64,
    rejected_shutting_down: AtomicU64,
    panics: AtomicU64,
    degraded: AtomicU64,
    deduped: AtomicU64,
    dedup_evicted: AtomicU64,
    dedup: Mutex<DedupCache>,
    /// Signalled whenever an in-flight dedup marker resolves, waking
    /// duplicates parked in [`claim_dedup`](Self::claim_dedup).
    dedup_done: Condvar,
    dedup_capacity: usize,
    draining: AtomicBool,
    drain_snapshot: Option<String>,
    /// Default retention for `compact` requests that carry no horizon of
    /// their own (`serve --retain`); `None` means such requests are rejected.
    retain: Option<Timestamp>,
    /// Where compaction writes its spill files (`serve --spill-dir`);
    /// `None` drops what it evicts.
    spill_dir: Option<PathBuf>,
    /// Test-only fault injection ([`with_ingest_hook`](Self::with_ingest_hook)).
    ingest_hook: Option<fn(&str)>,
}

impl ServerState {
    /// Wraps a live service. `drain_snapshot` is the path the store is
    /// persisted to when a graceful drain completes (`None` to skip).
    pub fn new(service: ShardedLocaterService, drain_snapshot: Option<String>) -> Self {
        ServerState {
            space: service.space(),
            service,
            started: Instant::now(),
            requests_served: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
            queued: AtomicUsize::new(0),
            rejected_overloaded: AtomicU64::new(0),
            rejected_shutting_down: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            deduped: AtomicU64::new(0),
            dedup_evicted: AtomicU64::new(0),
            dedup: Mutex::new(DedupCache::default()),
            dedup_done: Condvar::new(),
            dedup_capacity: DEDUP_CAPACITY,
            draining: AtomicBool::new(false),
            drain_snapshot,
            retain: None,
            spill_dir: None,
            ingest_hook: None,
        }
    }

    /// Installs a function the `Ingest` arm calls with the request's MAC
    /// before applying it, inside the panic fence. Tests use it to panic or
    /// stall on chosen identifiers; no front end installs one, so nothing a
    /// client sends can reach such behaviour.
    #[doc(hidden)]
    pub fn with_ingest_hook(mut self, hook: fn(&str)) -> Self {
        self.ingest_hook = Some(hook);
        self
    }

    /// Configures retention: the default `retain` for compact requests that
    /// carry none, and the directory cold tiers are persisted into.
    pub fn with_retention(mut self, retain: Option<Timestamp>, spill_dir: Option<PathBuf>) -> Self {
        self.retain = retain;
        self.spill_dir = spill_dir;
        self
    }

    /// Sizes the replay-dedup window. `locater-cli serve` passes 4× its
    /// admission limit (at least 1024): with a window no smaller than the
    /// number of requests that can be in the building at once, an id acked
    /// moments ago cannot be evicted while its client is still inside the
    /// retry backoff (evictions under load are visible as `dedup_evicted` in
    /// `stats`).
    /// Clamped to at least one entry.
    pub fn with_dedup_capacity(mut self, capacity: usize) -> Self {
        self.dedup_capacity = capacity.max(1);
        self
    }

    /// Runs one scheduled compaction tick against the configured retention
    /// (the `--compact-interval` timer calls this). No-op without `--retain`.
    pub fn compaction_tick(&self) -> Result<(), String> {
        let Some(retain) = self.retain else {
            return Ok(());
        };
        self.service
            .compact(Cut::Retain(retain), self.spill_dir.as_deref())
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    /// The wrapped service.
    pub fn service(&self) -> &ShardedLocaterService {
        &self.service
    }

    /// `true` once a graceful drain has been requested (by a `shutdown`
    /// request or SIGTERM); new requests are rejected from then on.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Starts a graceful drain (idempotent).
    pub(crate) fn request_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Executes one request against the service. Every failure is a
    /// structured [`WireResponse::Error`]; this never panics on user input —
    /// even a bug-induced panic inside the service is caught and isolated
    /// into [`WireError::Internal`].
    pub fn execute(&self, request: &WireRequest) -> WireResponse {
        self.execute_with_budget(request, false)
    }

    /// [`execute`](Self::execute) with an explicit time-budget verdict from
    /// the caller. When `over_deadline` is true, `Locate` requests degrade
    /// to the coarse-only answer (marked `degraded: true` on the wire)
    /// instead of spending the fine-grained budget the request no longer
    /// has; every other request type runs normally, since partial ingest or
    /// compaction would be worse than late ingest or compaction.
    pub(crate) fn execute_with_budget(
        &self,
        request: &WireRequest,
        over_deadline: bool,
    ) -> WireResponse {
        let response = match Self::dedup_key(request) {
            Some(id) => match self.claim_dedup(id) {
                DedupClaim::Replay(slot) => self.replay(id, request, slot),
                DedupClaim::Execute => {
                    let (response, acked) = match self.fenced(|| self.apply_ingest(request)) {
                        Ok((response, slot)) => (response, Some(slot)),
                        Err(e) => (WireResponse::Error(e), None),
                    };
                    self.complete_dedup(id, acked);
                    response
                }
            },
            None => self
                .fenced(|| Ok(self.execute_inner(request, over_deadline)))
                .unwrap_or_else(WireResponse::Error),
        };
        self.requests_served.fetch_add(1, Ordering::Relaxed);
        response
    }

    /// The replay-dedup key: only ingest requests carry one, and only when
    /// the client opted in by sending a `request_id`.
    fn dedup_key(request: &WireRequest) -> Option<u64> {
        match request {
            WireRequest::Ingest { request_id, .. }
            | WireRequest::IngestBatch { request_id, .. } => *request_id,
            _ => None,
        }
    }

    /// Resolves a request id against the replay window in **one** lock
    /// acquisition — check and claim are atomic, so two retries of the same
    /// id can never both apply, however they interleave. A completed id
    /// replays its original ack (the client is retrying an ingest the
    /// server already applied; the ack was lost on the wire). An unseen id
    /// is claimed with an in-flight marker; the caller must resolve it with
    /// [`complete_dedup`](Self::complete_dedup). An id some other thread is
    /// executing right now parks until that thread resolves the marker,
    /// then replays its ack — or, if it resolved to an error (which removes
    /// the marker: nothing was applied, nothing to replay), claims the id
    /// and re-executes.
    fn claim_dedup(&self, id: u64) -> DedupClaim {
        let mut cache = self.dedup.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            match cache.slots.get(&id) {
                Some(DedupSlot::InFlight) => {
                    cache = self
                        .dedup_done
                        .wait(cache)
                        .unwrap_or_else(|p| p.into_inner());
                }
                Some(&slot) => return DedupClaim::Replay(slot),
                None => {
                    cache.slots.insert(id, DedupSlot::InFlight);
                    return DedupClaim::Execute;
                }
            }
        }
    }

    /// Answers a retry of the completed id `id` from its slot, applying
    /// nothing. The ack is rebuilt from the retry's own frame — its MAC, `t`
    /// and AP strings as sent, the epoch the slot kept — so a verbatim retry
    /// gets the original bytes back, and a retry spelling the same device's
    /// MAC in another case echoes its own spelling. A retry whose frame names
    /// another event than the one the id acked (another device, time or
    /// access point, or a batch id reused for a single ingest) is refused
    /// with `BadRequest`: answering it with an ack would confirm an event the
    /// server never applied. The slot is kept either way.
    fn replay(&self, id: u64, request: &WireRequest, slot: DedupSlot) -> WireResponse {
        let ack = match (request, slot) {
            (
                WireRequest::Ingest { mac, t, ap, .. },
                DedupSlot::Ingested {
                    device,
                    t: acked_t,
                    ap: acked_ap,
                    device_epoch,
                },
            ) if u32::try_from(*t) == Ok(acked_t)
                && self.space.ap_id(ap) == Some(acked_ap)
                && self.service.device_id(mac) == Some(device) =>
            {
                WireResponse::Ingested {
                    mac: mac.clone(),
                    t: *t,
                    ap: ap.clone(),
                    device_epoch,
                }
            }
            (WireRequest::IngestBatch { .. }, DedupSlot::IngestedBatch { appended }) => {
                WireResponse::IngestedBatch { appended }
            }
            _ => {
                return WireResponse::Error(WireError::BadRequest {
                    message: format!("request_id {id} was already used for another event"),
                })
            }
        };
        self.deduped.fetch_add(1, Ordering::Relaxed);
        ack
    }

    /// Resolves an in-flight marker planted by [`claim_dedup`](Self::claim_dedup)
    /// and wakes every duplicate parked on it. Only acks are remembered for
    /// replay: a failed ingest (`acked` is `None`) applied nothing, so its
    /// marker is dropped and a retry after an error re-executes instead of
    /// replaying the failure.
    fn complete_dedup(&self, id: u64, acked: Option<DedupSlot>) {
        {
            let mut cache = self.dedup.lock().unwrap_or_else(|p| p.into_inner());
            match acked {
                Some(slot) => self.remember_locked(&mut cache, id, slot),
                None => {
                    cache.slots.remove(&id);
                }
            }
        }
        self.dedup_done.notify_all();
    }

    /// Inserts a completed ack under the (held) dedup lock, then evicts the
    /// oldest completed entries beyond the window. Every eviction bumps the
    /// `dedup_evicted` gauge — a nonzero value in `stats` means retries can
    /// outlive the window under the current load.
    fn remember_locked(&self, cache: &mut DedupCache, id: u64, slot: DedupSlot) {
        let previous = cache.slots.insert(id, slot);
        if matches!(previous, None | Some(DedupSlot::InFlight)) {
            cache.order.push_back(id);
        }
        while cache.order.len() > self.dedup_capacity {
            if let Some(evicted) = cache.order.pop_front() {
                cache.slots.remove(&evicted);
                self.dedup_evicted.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Re-seeds the replay window from crash recovery, restoring dedup
    /// across a restart: every durable ingest that carried a client request
    /// id gets its ack reconstructed, so a client retrying an ingest whose
    /// ack was lost to the crash is answered instead of re-applied. The
    /// reconstructed `device_epoch` is the *post-recovery* epoch (the
    /// pre-crash value died with the process, and recovery rebuilt the
    /// device's state wholesale anyway). Ids whose device, access point or
    /// timestamp no longer resolves (a checkpoint from a different space)
    /// are skipped, not errors. `acked_ingests` is in event-id order, so only
    /// its newest window's worth is seeded: an older id would only be
    /// evicted again at once, and boot must not read as `dedup_evicted`
    /// load. Returns how many acks were seeded.
    pub fn seed_dedup_from_recovery(&self, report: &RecoveryReport) -> usize {
        let newest = report
            .acked_ingests
            .len()
            .saturating_sub(self.dedup_capacity);
        let mut seeded = 0;
        let mut cache = self.dedup.lock().unwrap_or_else(|p| p.into_inner());
        for acked in &report.acked_ingests[newest..] {
            let Some(device) = self.service.device_id(&acked.mac) else {
                continue;
            };
            let ap = AccessPointId::new(acked.ap);
            let Ok(t) = u32::try_from(acked.t) else {
                continue;
            };
            if ap.index() >= self.space.num_access_points() {
                continue;
            }
            let slot = DedupSlot::Ingested {
                device,
                t,
                ap,
                device_epoch: self.service.device_epoch(device),
            };
            self.remember_locked(&mut cache, acked.request_id, slot);
            seeded += 1;
        }
        seeded
    }

    /// Runs `f` with a panic fence around it: a panic anywhere in the
    /// service becomes a typed `Internal` error (retryable — the client
    /// cannot know how far the request got) and bumps the `panics` counter,
    /// instead of unwinding through the serving thread and poisoning shared
    /// locks.
    fn fenced<R>(&self, f: impl FnOnce() -> Result<R, WireError>) -> Result<R, WireError> {
        catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
            self.panics.fetch_add(1, Ordering::Relaxed);
            Err(WireError::Internal {
                message: format!("worker panicked: {}", panic_message(&payload)),
            })
        })
    }

    /// Applies an `Ingest` or `IngestBatch` request, returning its ack and
    /// the slot a replay window keeps for it — the ids the apply resolved,
    /// so nothing is parsed or locked a second time to remember it.
    fn apply_ingest(&self, request: &WireRequest) -> Result<(WireResponse, DedupSlot), WireError> {
        match request {
            WireRequest::Ingest {
                mac,
                t,
                ap,
                request_id,
            } => {
                if let Some(hook) = self.ingest_hook {
                    hook(mac);
                }
                let (_, device, resolved, device_epoch) =
                    self.service.ingest_tagged(mac, *t, ap, *request_id)?;
                let slot = DedupSlot::Ingested {
                    device,
                    // Ingest refuses any timestamp outside `u32`.
                    t: *t as u32,
                    ap: resolved,
                    device_epoch,
                };
                let ack = WireResponse::Ingested {
                    mac: mac.clone(),
                    t: *t,
                    ap: ap.clone(),
                    device_epoch,
                };
                Ok((ack, slot))
            }
            WireRequest::IngestBatch { events, .. } => {
                let appended = self.service.ingest_batch(events.iter())?;
                Ok((
                    WireResponse::IngestedBatch { appended },
                    DedupSlot::IngestedBatch { appended },
                ))
            }
            _ => Err(WireError::BadRequest {
                message: "only ingest requests carry a request_id".into(),
            }),
        }
    }

    fn execute_inner(&self, request: &WireRequest, over_deadline: bool) -> WireResponse {
        match request {
            WireRequest::Ping => WireResponse::Pong {
                version: PROTOCOL_VERSION,
            },
            WireRequest::Ingest { .. } | WireRequest::IngestBatch { .. } => self
                .apply_ingest(request)
                .map_or_else(WireResponse::Error, |(ack, _)| ack),
            WireRequest::Locate { .. } => {
                let locate = request.to_locate().expect("Locate variant");
                if over_deadline {
                    self.degraded.fetch_add(1, Ordering::Relaxed);
                    match self.service.locate_coarse(&locate) {
                        Ok(response) => WireResponse::located_degraded(&response, true),
                        Err(e) => WireResponse::Error(e.into()),
                    }
                } else {
                    match self.service.locate(&locate) {
                        Ok(response) => WireResponse::located(&response),
                        Err(e) => WireResponse::Error(e.into()),
                    }
                }
            }
            WireRequest::Stats => WireResponse::Stats(self.stats()),
            WireRequest::Snapshot { path } => match self.service.save_snapshot(path) {
                Ok(()) => WireResponse::SnapshotSaved {
                    path: path.clone(),
                    bytes: std::fs::metadata(path).map(|m| m.len()).unwrap_or(0),
                },
                Err(e) => WireResponse::Error(WireError::Internal {
                    message: e.to_string(),
                }),
            },
            WireRequest::Compact { retain, horizon } => {
                let cut = match Cut::from_request(*retain, *horizon, self.retain) {
                    Ok(cut) => cut,
                    Err(message) => {
                        return WireResponse::Error(WireError::BadRequest {
                            message: message.to_string(),
                        })
                    }
                };
                match self.service.compact(cut, self.spill_dir.as_deref()) {
                    Ok(status) => WireResponse::Compacted(status),
                    Err(e) => WireResponse::Error(WireError::Internal {
                        message: e.to_string(),
                    }),
                }
            }
            WireRequest::Shutdown => {
                self.request_drain();
                WireResponse::ShuttingDown
            }
        }
    }

    /// One statistics sweep: store totals are sums of the per-shard counters
    /// (the header can never disagree with the lines), plus the affinity
    /// graph's counters and the serving-layer gauges.
    pub fn stats(&self) -> WireStats {
        let per_shard = self.service.shard_stats();
        let (edges, samples) = self.service.cache_stats();
        let (live_edges, live_samples) = self.service.live_cache_stats();
        WireStats {
            version: PROTOCOL_VERSION,
            uptime_ms: self.started.elapsed().as_millis() as u64,
            events: per_shard.iter().map(|s| s.events).sum(),
            devices: self.service.num_devices(),
            shards: self.service.num_shards(),
            edges,
            live_edges,
            samples,
            live_samples,
            requests_served: self.requests_served.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            queued: self.queued.load(Ordering::Relaxed),
            rejected_overloaded: self.rejected_overloaded.load(Ordering::Relaxed),
            rejected_shutting_down: self.rejected_shutting_down.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            deduped: self.deduped.load(Ordering::Relaxed),
            dedup_evicted: self.dedup_evicted.load(Ordering::Relaxed),
            resident_bytes: per_shard.iter().map(|s| s.resident_bytes).sum(),
            compaction: self.service.compaction_status(),
            per_shard,
            wal: self.service.wal_status(),
        }
    }

    /// Admission control: admits the request (incrementing the queued gauge)
    /// unless `queued + in_flight` has reached `limit`, in which case the
    /// caller must answer with the returned [`WireError::Overloaded`] —
    /// explicit backpressure, never a silent drop. The check is approximate
    /// under concurrent readers (it may overshoot by at most the number of
    /// connections), which is fine for a load-shedding bound.
    pub(crate) fn try_admit(&self, limit: usize) -> Result<(), WireError> {
        let queued = self.queued.load(Ordering::Relaxed);
        let in_flight = self.in_flight.load(Ordering::Relaxed);
        if queued + in_flight >= limit {
            self.rejected_overloaded.fetch_add(1, Ordering::Relaxed);
            Err(WireError::Overloaded {
                in_flight,
                queued,
                limit,
            })
        } else {
            self.queued.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
    }

    /// Counts one request turned away because the service is draining.
    pub(crate) fn reject_shutting_down(&self) -> WireError {
        self.rejected_shutting_down.fetch_add(1, Ordering::Relaxed);
        WireError::ShuttingDown
    }

    /// Moves one admitted request from the queued gauge to the in-flight
    /// gauge (called by the connection thread once it holds an execution
    /// permit).
    pub(crate) fn begin_execution(&self) {
        self.queued.fetch_sub(1, Ordering::Relaxed);
        self.in_flight.fetch_add(1, Ordering::Relaxed);
    }

    /// Drops the in-flight gauge after [`begin_execution`](Self::begin_execution).
    pub(crate) fn finish_execution(&self) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Requests admitted but not yet executing.
    pub fn queued(&self) -> usize {
        self.queued.load(Ordering::Relaxed)
    }

    /// Requests executing right now.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Runs the graceful-drain epilogue: checkpoints the WAL (when the
    /// service has one — a clean shutdown leaves an empty tail, so the next
    /// boot replays nothing) and writes the configured drain snapshot (if
    /// any). Failures are *recorded* in the summary, never swallowed and
    /// never aborting the other step — a failed drain snapshot must stay
    /// visible to the operator. Called once by the server after the drain
    /// completes; the REPL front end calls it on `shutdown` too.
    pub fn finish_drain(&self) -> DrainSummary {
        let checkpoint = match self.service.checkpoint() {
            Ok(None) => None,
            Ok(Some(bytes)) => Some(Ok(bytes)),
            Err(e) => Some(Err(e.to_string())),
        };
        let snapshot = self.drain_snapshot.as_ref().map(|path| {
            self.service
                .save_snapshot(path)
                .map(|()| {
                    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
                    (path.clone(), bytes)
                })
                .map_err(|e| format!("{path}: {e}"))
        });
        DrainSummary {
            checkpoint,
            snapshot,
        }
    }
}

/// Best-effort rendering of a panic payload (`&str` and `String` payloads
/// cover `panic!` and `expect`; anything else is opaque).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// What the graceful-drain epilogue did: the WAL checkpoint and the drain
/// snapshot, each `None` when not configured, `Err` with the rendered cause
/// when attempted and failed. The server surfaces failures in its final
/// report so the process can exit non-zero.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DrainSummary {
    /// WAL checkpoint outcome: `Ok(bytes)` on success.
    pub checkpoint: Option<Result<u64, String>>,
    /// Drain snapshot outcome: `Ok((path, bytes))` on success.
    pub snapshot: Option<Result<(String, u64), String>>,
}

impl DrainSummary {
    /// `true` when any attempted drain step failed.
    pub fn has_failure(&self) -> bool {
        matches!(self.checkpoint, Some(Err(_))) || matches!(self.snapshot, Some(Err(_)))
    }

    /// All failure causes joined into one line, `None` when the drain was
    /// clean — the short form for front ends that exit with a single message.
    pub fn failure_message(&self) -> Option<String> {
        let mut causes: Vec<String> = Vec::new();
        if let Some(Err(e)) = &self.checkpoint {
            causes.push(format!("wal checkpoint failed: {e}"));
        }
        if let Some(Err(e)) = &self.snapshot {
            causes.push(format!("drain snapshot failed: {e}"));
        }
        (!causes.is_empty()).then(|| causes.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locater_core::system::{LocaterConfig, Location};
    use locater_proto::{WireCompactionStats, PROTOCOL_VERSION};
    use locater_space::SpaceBuilder;
    use locater_store::EventStore;

    const PANIC_MAC: &str = "chaos:panic";
    /// Colon-free on purpose: unlike [`PANIC_MAC`], this identifier continues
    /// into a real ingest, and a colon would trip strict hardware-MAC syntax
    /// validation.
    const STALL_MAC: &str = "chaos-stall";
    const STALL: std::time::Duration = std::time::Duration::from_millis(150);

    /// Panics on [`PANIC_MAC`]; holds [`STALL_MAC`] in its in-flight window
    /// long enough for a concurrent duplicate of the same id to arrive.
    fn chaos_hook(mac: &str) {
        if mac == PANIC_MAC {
            panic!("injected chaos panic (mac {PANIC_MAC})");
        }
        if mac == STALL_MAC {
            std::thread::sleep(STALL);
        }
    }

    fn state() -> ServerState {
        let space = SpaceBuilder::new("exec-test")
            .add_access_point("wap1", &["101", "102"])
            .build()
            .unwrap();
        ServerState::new(
            locater_core::system::ShardedLocaterService::new(
                EventStore::new(space),
                LocaterConfig::default(),
                2,
            ),
            None,
        )
    }

    #[test]
    fn execute_covers_every_request_variant() {
        let state = state();
        assert_eq!(
            state.execute(&WireRequest::Ping),
            WireResponse::Pong {
                version: PROTOCOL_VERSION
            }
        );
        let ingest = WireRequest::Ingest {
            mac: "aa".into(),
            t: 1_000,
            ap: "wap1".into(),
            request_id: None,
        };
        assert!(matches!(
            state.execute(&ingest),
            WireResponse::Ingested {
                device_epoch: 1,
                ..
            }
        ));
        let locate = WireRequest::Locate {
            mac: Some("aa".into()),
            device: None,
            t: 1_000,
            fine_mode: None,
            cache: None,
        };
        assert!(matches!(
            state.execute(&locate),
            WireResponse::Located { .. }
        ));
        let ghost = WireRequest::Locate {
            mac: Some("ghost".into()),
            device: None,
            t: 1_000,
            fine_mode: None,
            cache: None,
        };
        assert_eq!(
            state.execute(&ghost),
            WireResponse::Error(WireError::UnknownDevice {
                mac: "ghost".into()
            })
        );
        let WireResponse::Stats(stats) = state.execute(&WireRequest::Stats) else {
            panic!("stats request answers with stats");
        };
        assert_eq!(stats.events, 1);
        assert_eq!(stats.shards, 2);
        assert_eq!(stats.requests_served, 4);
        // Without a configured or per-request horizon, compaction is refused;
        // so are a negative retention (it would evict the whole hot tier) and
        // a request naming both a retention and a horizon — each in the words
        // of the one rule, `Cut::from_request`, that offline compact shares.
        for (retain, horizon, message) in [
            (None, None, "compact needs a retain or a horizon"),
            (
                Some(-10_000_000),
                None,
                "compact retain must be 0 or more seconds",
            ),
            (
                Some(1_000_000),
                Some(500),
                "compact takes a retain or a horizon, not both",
            ),
        ] {
            assert_eq!(
                state.execute(&WireRequest::Compact { retain, horizon }),
                WireResponse::Error(WireError::BadRequest {
                    message: message.into()
                })
            );
        }
        let WireResponse::Stats(after) = state.execute(&WireRequest::Stats) else {
            panic!("stats request answers with stats");
        };
        assert_eq!(after.events, 1, "a refused compact evicts nothing");
        // With one, it answers with the cumulative gauges (nothing evictable
        // here: all history is within the retention).
        assert_eq!(
            state.execute(&WireRequest::Compact {
                retain: Some(1_000_000),
                horizon: None
            }),
            WireResponse::Compacted(WireCompactionStats::default())
        );
        assert!(!state.is_draining());
        assert_eq!(
            state.execute(&WireRequest::Shutdown),
            WireResponse::ShuttingDown
        );
        assert!(state.is_draining());
    }

    #[test]
    fn admission_control_rejects_at_the_limit() {
        let state = state();
        assert!(state.try_admit(2).is_ok());
        assert!(state.try_admit(2).is_ok());
        let err = state.try_admit(2).unwrap_err();
        assert!(matches!(
            err,
            WireError::Overloaded {
                queued: 2,
                limit: 2,
                ..
            }
        ));
        state.begin_execution();
        assert_eq!((state.queued(), state.in_flight()), (1, 1));
        // Still at the limit: queued + in-flight counts.
        assert!(state.try_admit(2).is_err());
        state.finish_execution();
        assert!(state.try_admit(2).is_ok());
        let stats = state.stats();
        assert_eq!(stats.rejected_overloaded, 2);
    }

    #[test]
    fn replayed_ingest_request_ids_are_idempotent() {
        let state = state();
        let ingest = WireRequest::Ingest {
            mac: "aa".into(),
            t: 1_000,
            ap: "wap1".into(),
            request_id: Some(42),
        };
        let first = state.execute(&ingest);
        assert!(matches!(first, WireResponse::Ingested { .. }));
        // The retry replays the original ack byte-for-byte and applies
        // nothing: still one event, and the dedup counter records the hit.
        let retry = state.execute(&ingest);
        assert_eq!(retry, first);
        let stats = state.stats();
        assert_eq!(stats.events, 1);
        assert_eq!(stats.deduped, 1);
        // A different id is a different request, even for identical bytes
        // (the service itself then rejects the duplicate (mac, t) pair or
        // applies it, per its own semantics — here it applies).
        let other = WireRequest::Ingest {
            mac: "bb".into(),
            t: 2_000,
            ap: "wap1".into(),
            request_id: Some(43),
        };
        assert!(matches!(
            state.execute(&other),
            WireResponse::Ingested { .. }
        ));
        assert_eq!(state.stats().events, 2);
    }

    #[test]
    fn concurrent_duplicates_of_one_id_apply_once() {
        let state = state().with_ingest_hook(chaos_hook);
        let stall = WireRequest::Ingest {
            mac: STALL_MAC.into(),
            t: 1_000,
            ap: "wap1".into(),
            request_id: Some(9),
        };
        // Two connections race the same request id; whichever claims first
        // stalls inside the executor long enough for the other to arrive
        // while the id is in flight. The loser must park on the in-flight
        // marker and replay the winner's ack — never execute a second apply
        // (the original check-then-execute-then-remember flow lost exactly
        // this race).
        let (first, second) = std::thread::scope(|scope| {
            let a = scope.spawn(|| state.execute(&stall));
            let b = scope.spawn(|| state.execute(&stall));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(
            matches!(first, WireResponse::Ingested { .. }),
            "got {first:?} / {second:?}"
        );
        assert_eq!(first, second, "the duplicate replays the original ack");
        let stats = state.stats();
        assert_eq!(stats.events, 1, "exactly one apply");
        assert_eq!(stats.deduped, 1, "exactly one replay");
    }

    #[test]
    fn dedup_window_eviction_is_fifo_and_counted() {
        let state = state().with_dedup_capacity(2);
        for (i, mac) in ["aa", "bb", "cc"].iter().enumerate() {
            let response = state.execute(&WireRequest::Ingest {
                mac: (*mac).into(),
                t: 1_000 + i as i64,
                ap: "wap1".into(),
                request_id: Some(i as u64 + 1),
            });
            assert!(matches!(response, WireResponse::Ingested { .. }));
        }
        // Three acks through a two-entry window: the oldest id aged out.
        assert_eq!(state.stats().dedup_evicted, 1);
        // A retry of the evicted id re-executes (the service applies a
        // second event — the window was too small for this retry, which is
        // exactly what the gauge is there to surface)…
        state.execute(&WireRequest::Ingest {
            mac: "aa".into(),
            t: 1_000,
            ap: "wap1".into(),
            request_id: Some(1),
        });
        assert_eq!(state.stats().events, 4);
        assert_eq!(state.stats().deduped, 0);
        // …while a retry of an id still inside the window replays.
        state.execute(&WireRequest::Ingest {
            mac: "cc".into(),
            t: 1_002,
            ap: "wap1".into(),
            request_id: Some(3),
        });
        assert_eq!(state.stats().events, 4);
        assert_eq!(state.stats().deduped, 1);
    }

    #[test]
    fn recovery_seeded_ids_replay_across_a_restart() {
        use locater_store::AckedIngest;
        let state = state();
        // The "pre-crash" ingest: durable in the store, but its ack never
        // reached the client.
        state.execute(&WireRequest::Ingest {
            mac: "aa".into(),
            t: 1_000,
            ap: "wap1".into(),
            request_id: None,
        });
        let report = RecoveryReport {
            checkpoint_loaded: false,
            base_events: 0,
            replayed: 1,
            skipped: 0,
            shards: 1,
            segments: 1,
            torn: Vec::new(),
            acked_ingests: vec![
                AckedIngest {
                    request_id: 42,
                    mac: "aa".into(),
                    t: 1_000,
                    ap: 0,
                },
                // Tokens whose device or AP no longer resolves (a WAL from
                // a different space) are skipped, not errors.
                AckedIngest {
                    request_id: 43,
                    mac: "ghost".into(),
                    t: 1_000,
                    ap: 0,
                },
                AckedIngest {
                    request_id: 44,
                    mac: "aa".into(),
                    t: 1_000,
                    ap: 7,
                },
            ],
        };
        assert_eq!(state.seed_dedup_from_recovery(&report), 1);
        // The client's retry of the durable-but-unacked ingest replays the
        // reconstructed ack instead of applying a second event.
        let retry = state.execute(&WireRequest::Ingest {
            mac: "aa".into(),
            t: 1_000,
            ap: "wap1".into(),
            request_id: Some(42),
        });
        let WireResponse::Ingested { mac, t, ap, .. } = retry else {
            panic!("seeded id must replay an ack, got {retry:?}");
        };
        assert_eq!((mac.as_str(), t, ap.as_str()), ("aa", 1_000, "wap1"));
        let stats = state.stats();
        assert_eq!(stats.events, 1);
        assert_eq!(stats.deduped, 1);
    }

    fn ingest(mac: &str, t: i64, ap: &str, request_id: u64) -> WireRequest {
        WireRequest::Ingest {
            mac: mac.into(),
            t,
            ap: ap.into(),
            request_id: Some(request_id),
        }
    }

    #[test]
    fn a_dedup_slot_is_ids_not_a_response() {
        // The window holds thousands of slots; a boxed response frame (and
        // its echoed strings) per slot must not creep back in.
        assert!(std::mem::size_of::<DedupSlot>() <= 24);
    }

    #[test]
    fn verbatim_retries_replay_the_original_bytes() {
        use locater_proto::encode_response;
        use locater_store::RawEvent;
        let state = state();
        let batch = WireRequest::IngestBatch {
            events: vec![
                RawEvent {
                    mac: "dd".into(),
                    t: 4_000,
                    ap: "wap1".into(),
                },
                RawEvent {
                    mac: "aa".into(),
                    t: 4_100,
                    ap: "wap1".into(),
                },
            ],
            request_id: Some(20),
        };
        let frames = [
            ingest("aa", 2_000, "wap1", 10),
            // The same device in upper case: its ack echoes its own spelling.
            ingest("AA", 3_000, "wap1", 11),
            // Late: before the device's newest event.
            ingest("aa", 1_000, "wap1", 12),
            // A device seen for the first time.
            ingest("bb", 2_500, "wap1", 13),
            batch,
        ];
        let acks: Vec<String> = frames
            .iter()
            .map(|frame| encode_response(&state.execute(frame)))
            .collect();
        assert!(acks.iter().all(|ack| !ack.contains("Error")), "{acks:?}");
        let events = state.stats().events;
        for _ in 0..3 {
            for (frame, ack) in frames.iter().zip(&acks) {
                assert_eq!(&encode_response(&state.execute(frame)), ack);
            }
        }
        let stats = state.stats();
        assert_eq!(stats.deduped, 3 * frames.len() as u64);
        assert_eq!(stats.events, events, "a replay applies nothing");
        assert!(acks[1].contains("\"AA\""), "{}", acks[1]);
    }

    #[test]
    fn a_reused_request_id_naming_another_event_is_refused() {
        use locater_store::RawEvent;
        let state = state();
        let first = state.execute(&ingest("aa", 1_000, "wap1", 5));
        assert!(matches!(first, WireResponse::Ingested { .. }));
        state.execute(&ingest("bb", 1_000, "wap1", 99));
        let batch = |request_id| WireRequest::IngestBatch {
            events: vec![RawEvent {
                mac: "cc".into(),
                t: 1_000,
                ap: "wap1".into(),
            }],
            request_id: Some(request_id),
        };
        let refused = WireResponse::Error(WireError::BadRequest {
            message: "request_id 5 was already used for another event".into(),
        });
        // Another time, another (known) device, an access point that does
        // not resolve to the acked one, an unknown device, another kind of
        // request: each names an event id 5 never acked.
        for other in [
            ingest("aa", 1_001, "wap1", 5),
            ingest("bb", 1_000, "wap1", 5),
            ingest("aa", 1_000, "wap2", 5),
            ingest("zz", 1_000, "wap1", 5),
            batch(5),
        ] {
            assert_eq!(state.execute(&other), refused, "{other:?}");
        }
        let stats = state.stats();
        assert_eq!((stats.events, stats.deduped), (2, 0), "nothing applied");
        // The slot survives: the same device in another case still replays,
        // echoing its own spelling, and so does the original frame.
        let WireResponse::Ingested { mac, .. } = state.execute(&ingest("AA", 1_000, "wap1", 5))
        else {
            panic!("a same-event retry replays");
        };
        assert_eq!(mac, "AA");
        assert_eq!(state.execute(&ingest("aa", 1_000, "wap1", 5)), first);
        // A batch id replays its count to a batch frame, whatever it holds,
        // and refuses a single ingest.
        let appended = state.execute(&batch(6));
        assert_eq!(appended, WireResponse::IngestedBatch { appended: 1 });
        assert_eq!(state.execute(&batch(6)), appended);
        assert!(matches!(
            state.execute(&ingest("cc", 1_000, "wap1", 6)),
            WireResponse::Error(WireError::BadRequest { .. })
        ));
        let stats = state.stats();
        assert_eq!((stats.events, stats.deduped), (3, 3));
    }

    fn recovered(acked: &[(u64, &str, i64)]) -> RecoveryReport {
        RecoveryReport {
            checkpoint_loaded: false,
            base_events: 0,
            replayed: acked.len() as u64,
            skipped: 0,
            shards: 1,
            segments: 1,
            torn: Vec::new(),
            acked_ingests: acked
                .iter()
                .map(|&(request_id, mac, t)| locater_store::AckedIngest {
                    request_id,
                    mac: mac.into(),
                    t,
                    ap: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn recovery_seeding_keeps_only_the_newest_window() {
        let state = state().with_dedup_capacity(2);
        for (mac, t) in [("aa", 1_000), ("bb", 1_001), ("cc", 1_002)] {
            state.execute(&WireRequest::Ingest {
                mac: mac.into(),
                t,
                ap: "wap1".into(),
                request_id: None,
            });
        }
        let report = recovered(&[(1, "aa", 1_000), (2, "bb", 1_001), (3, "cc", 1_002)]);
        assert_eq!(state.seed_dedup_from_recovery(&report), 2);
        assert_eq!(state.stats().dedup_evicted, 0, "boot evicts nothing");
        // The two newest ids replay…
        state.execute(&ingest("bb", 1_001, "wap1", 2));
        state.execute(&ingest("cc", 1_002, "wap1", 3));
        assert_eq!((state.stats().events, state.stats().deduped), (3, 2));
        // …and the oldest, never seeded, re-executes.
        state.execute(&ingest("aa", 1_000, "wap1", 1));
        assert_eq!((state.stats().events, state.stats().deduped), (4, 2));
    }

    #[test]
    fn recovery_seeded_retries_echo_their_frame_at_the_recovered_epoch() {
        let state = state();
        for (mac, t) in [("aa", 1_000), ("aa", 2_000), ("bb", 1_500)] {
            state.execute(&WireRequest::Ingest {
                mac: mac.into(),
                t,
                ap: "wap1".into(),
                request_id: None,
            });
        }
        // The log keeps each frame's MAC as sent.
        let report = recovered(&[(1, "AA", 1_000), (2, "aa", 2_000), (3, "bb", 1_500)]);
        assert_eq!(state.seed_dedup_from_recovery(&report), 3);
        for (request_id, mac, t, epoch) in [
            (1, "AA", 1_000, 2),
            (2, "aa", 2_000, 2),
            (3, "bb", 1_500, 1),
        ] {
            assert_eq!(
                state.execute(&ingest(mac, t, "wap1", request_id)),
                WireResponse::Ingested {
                    mac: mac.into(),
                    t,
                    ap: "wap1".into(),
                    // Both of `aa`'s acks report the epoch recovery left it
                    // at, not the one the first ack carried before the crash.
                    device_epoch: epoch,
                }
            );
        }
        let stats = state.stats();
        assert_eq!((stats.events, stats.deduped), (3, 3));
    }

    #[test]
    fn failed_ingests_are_not_remembered_for_replay() {
        let state = state();
        let bad = WireRequest::Ingest {
            mac: "aa".into(),
            t: 1_000,
            ap: "no-such-ap".into(),
            request_id: Some(7),
        };
        assert!(matches!(state.execute(&bad), WireResponse::Error(_)));
        // Retrying the id after a failure re-executes (nothing was applied,
        // so there is nothing to replay) — with a fixed request it succeeds.
        let fixed = WireRequest::Ingest {
            mac: "aa".into(),
            t: 1_000,
            ap: "wap1".into(),
            request_id: Some(7),
        };
        assert!(matches!(
            state.execute(&fixed),
            WireResponse::Ingested { .. }
        ));
        assert_eq!(state.stats().deduped, 0);
    }

    #[test]
    fn worker_panics_become_internal_errors() {
        let state = state().with_ingest_hook(chaos_hook);
        let boom = WireRequest::Ingest {
            mac: PANIC_MAC.into(),
            t: 1_000,
            ap: "wap1".into(),
            request_id: None,
        };
        let response = state.execute(&boom);
        let WireResponse::Error(error) = response else {
            panic!("panic must surface as a typed error, got {response:?}");
        };
        assert!(matches!(error, WireError::Internal { .. }));
        assert!(error.retryable(), "internal errors are retryable");
        // The executor is still healthy afterwards.
        assert_eq!(
            state.execute(&WireRequest::Ping),
            WireResponse::Pong {
                version: PROTOCOL_VERSION
            }
        );
        let stats = state.stats();
        assert_eq!(stats.panics, 1);
        assert_eq!(stats.events, 0);
    }

    #[test]
    fn without_a_hook_the_chaos_identifiers_are_ordinary_input() {
        let state = state();
        let ingest = |mac: &str| WireRequest::Ingest {
            mac: mac.into(),
            t: 1_000,
            ap: "wap1".into(),
            request_id: None,
        };
        // Colon-bearing, so it must parse as a hardware MAC — and does not.
        let response = state.execute(&ingest(PANIC_MAC));
        assert!(
            matches!(response, WireResponse::Error(WireError::Ingest { .. })),
            "got {response:?}"
        );
        let started = Instant::now();
        let response = state.execute(&ingest(STALL_MAC));
        assert!(
            matches!(response, WireResponse::Ingested { .. }),
            "got {response:?}"
        );
        assert!(started.elapsed() < STALL, "no hook, no stall");
        let stats = state.stats();
        assert_eq!((stats.panics, stats.events), (0, 1));
    }

    #[test]
    fn over_deadline_locates_degrade_to_coarse_answers() {
        let state = state();
        state.execute(&WireRequest::Ingest {
            mac: "aa".into(),
            t: 1_000,
            ap: "wap1".into(),
            request_id: None,
        });
        let locate = WireRequest::Locate {
            mac: Some("aa".into()),
            device: None,
            t: 1_000,
            fine_mode: None,
            cache: None,
        };
        // Within budget: the normal (possibly fine-grained) answer.
        assert!(matches!(
            state.execute_with_budget(&locate, false),
            WireResponse::Located {
                degraded: false,
                ..
            }
        ));
        // Over budget: a coarse-only answer, flagged degraded on the wire.
        let degraded = state.execute_with_budget(&locate, true);
        let WireResponse::Located {
            answer,
            degraded: true,
            ..
        } = &degraded
        else {
            panic!("over-deadline locate must answer degraded, got {degraded:?}");
        };
        assert!(!matches!(answer.location, Location::Room { .. }));
        assert_eq!(state.stats().degraded, 1);
        // Ingest never degrades: over-deadline ingest still applies fully.
        let response = state.execute_with_budget(
            &WireRequest::Ingest {
                mac: "bb".into(),
                t: 2_000,
                ap: "wap1".into(),
                request_id: None,
            },
            true,
        );
        assert!(matches!(response, WireResponse::Ingested { .. }));
        assert_eq!(state.stats().events, 2);
    }
}
