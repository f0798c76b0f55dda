//! **Answers are a pure function of the acked events.** One seeded operation
//! generator and one two-part oracle check that the shard count, the cache
//! history, lazy model fitting, compaction, a crash and the entry point never
//! show in an answer.
//!
//! The generator boots a small simulated campus from 70 % of its events and
//! interleaves generated locates (some with per-request `fine_mode` / `cache`
//! overrides, some for a device not yet seen), batches at one and two jobs,
//! in-order frontier chunks, late single ingests (some tagged with a request
//! id, later retried with it), new devices, tie bursts (one timestamp for
//! every device), purges of stale cache state, compactions and — on a
//! durable subject — crashes.
//!
//! The oracle has two parts:
//!
//! * **Twin.** A one-shard, in-memory reference service gets the same ops and
//!   fits every pending coarse model after each one, so it fits eagerly. Every
//!   ack, locate and batch answer and compaction status is compared as its
//!   wire line, and at every check the affinity cache holds as many edges and
//!   samples, live and in all, on both sides. At a crash the reference is
//!   rebuilt from its own store, so both sides restart with cold caches and
//!   epoch 0; the subject's recovery must have replayed exactly the acked
//!   ingests since its last checkpoint, without a torn tail.
//! * **Model.** An [`EventStore`] built single-threaded from the harness's own
//!   log of acked events and compaction cuts equals both services' stores at
//!   every check. A tie burst leaves every cached affinity and model stale
//!   (checked: nothing in the cache is live after it), so the probes after
//!   it must answer like a fresh one-shard service over the model, and leave
//!   as many live edges and samples behind. A second model keeps every acked event and no cut: a fresh
//!   service over it answers every probe whose consulted window clears the
//!   last cut ([`in_scope`]) like one over the compacted model. The twin
//!   cannot see a defect in code both sides share; this part can.
//!
//! Every run proves it exercised the oracle: a run without evicting
//! compactions, fresh-build probes or lazily fitted models fails, and so
//! does one whose [`Tally`] misses a requirement of its [`COVERING`] row
//! (crashes right after a compaction, say). A failing assertion names its
//! row, axes, seed and step.

use super::lcg::Lcg;
use super::scratch::scratch;
use locater::core::coarse::CoarseConfig;
use locater::core::LocaterError;
use locater::events::clock;
use locater::prelude::*;
use locater::proto::encode_response;
use locater::sim::workload::generated_workload;
use locater::store::{Durability, FsyncPolicy, RawEvent, RecoveryReport};
use std::path::Path;
use std::sync::OnceLock;

/// One subject configuration: a point of the five-axis space.
#[derive(Debug, Clone, Copy)]
pub struct Axes {
    pub shards: usize,
    pub fine_mode: FineMode,
    pub cache: CacheMode,
    /// A WAL (`fsync=every=8`) under the subject, and crashes in the sequence.
    pub durable: bool,
    /// Requests reach the subject as `ServerState::execute` frames instead of
    /// direct service calls.
    pub wire: bool,
}

const fn axes(
    shards: usize,
    fine_mode: FineMode,
    cache: CacheMode,
    durable: bool,
    wire: bool,
) -> Axes {
    Axes {
        shards,
        fine_mode,
        cache,
        durable,
        wire,
    }
}

use CacheMode::{Disabled as OFF, Enabled as ON};
use FineMode::{Dependent as D, Independent as I};

/// A property a run must have exercised, by name.
type Requirement = (&'static str, fn(&Tally) -> bool);

/// Most bursts found the affinity cache holding edges.
const WARM: Requirement = ("warm bursts >= 2/3 of bursts", |t| {
    t.warm_bursts * 3 >= t.bursts * 2
});
const REPLAYED: Requirement = ("replayed > 0", |t| t.replayed > 0);
const CRASH_AT_COMPACTION: Requirement = ("crashes at compaction >= 1", |t| {
    t.crashes_at_compaction >= 1
});
const TAIL_OVER_COMPACTION: Requirement = ("tails over compaction >= 1", |t| {
    t.tails_over_compaction >= 1
});
const RESHARD: Requirement = ("reshards >= 1", |t| t.reshards >= 1);
const BELOW_CUT: Requirement = ("below cut >= 2", |t| t.below_cut >= 2);
const SPLICE: Requirement = ("controlled over splice >= 1", |t| {
    t.controlled_over_splice >= 1
});
const CONTROLLED: Requirement = ("controlled >= 20", |t| t.controlled >= 20);

/// One covering row: a subject configuration, the seed its row test runs,
/// and what that run must exercise beyond the floor every run meets (see
/// [`run`]: fitted and unfitted models, evicting compactions, in-scope
/// controls, and two crashes on a durable subject).
pub struct Row {
    axes: Axes,
    seed: u64,
    requires: &'static [Requirement],
}

const fn row(axes: Axes, seed: u64, requires: &'static [Requirement]) -> Row {
    Row {
        axes,
        seed,
        requires,
    }
}

/// Shards {1, 2, 3} × fine mode × cache × durability × entry point, covered
/// pairwise instead of by the 48-way product: the two rows of each shard
/// count are complements on the four two-valued axes, and the three
/// complement pairs (0000, 0011, 0101) meet every pair of those axes in all
/// four value combinations. Row `Rn` is entry `n`; each has one row test.
pub const COVERING: [Row; 6] = [
    row(axes(1, I, ON, false, false), 0x5E1, &[WARM]),
    row(axes(1, D, OFF, true, true), 0x3A1, &[REPLAYED]),
    row(
        axes(2, I, ON, true, true),
        0xC0A3,
        &[WARM, CRASH_AT_COMPACTION, TAIL_OVER_COMPACTION, RESHARD],
    ),
    row(axes(2, D, OFF, false, false), 0xC0A2, &[BELOW_CUT, SPLICE]),
    row(axes(3, I, OFF, false, true), 0xC0A1, &[CONTROLLED]),
    row(axes(3, D, ON, true, false), 0x5E2, &[WARM]),
];

/// What one run exercised, beyond the answers every run checks.
#[derive(Debug, Default)]
pub struct Tally {
    /// Locate and batch answers compared with the twin.
    pub answers: usize,
    /// Tie bursts, and those that found the affinity cache holding edges.
    pub bursts: usize,
    pub warm_bursts: usize,
    /// Probes after a tie burst compared with a fresh build over the model.
    pub probes: usize,
    /// Probes inside the retained window compared with a fresh build over
    /// every acked event, no cut applied.
    pub controlled: usize,
    /// Of those, probes made while a late event below the last cut was held.
    pub controlled_over_splice: usize,
    /// Compactions that evicted events.
    pub evicting: usize,
    /// Late ingests acked below the last cut.
    pub below_cut: usize,
    /// Lazy models the subject held fitted (and checked against the twin's
    /// model of the same window) / unfitted, summed over checks.
    pub fitted: usize,
    pub unfitted: usize,
    pub crashes: usize,
    /// WAL records the reboots replayed.
    pub replayed: u64,
    /// Reboots at another shard count than the crashed service had.
    pub reshards: usize,
    /// Reboots that replayed a tail on top of a compaction checkpoint.
    pub tails_over_compaction: usize,
    /// Reboots right after an evicting compaction, with nothing to replay.
    pub crashes_at_compaction: usize,
    /// Retried ingests the server answered from its replay window.
    pub replays: usize,
}

/// Runs [`COVERING`] row `row` with its seed, and asserts that the run met
/// every requirement of the row. The row's own test and the tests of every
/// invariant that rides on it share one run per test process: a later call
/// checks the first run's tally. A panicking run leaves nothing behind, so
/// every caller fails.
pub fn check(row: usize) {
    static TALLIES: [OnceLock<Tally>; COVERING.len()] = [const { OnceLock::new() }; COVERING.len()];
    let Row {
        axes,
        seed,
        requires,
    } = &COVERING[row];
    let tally = TALLIES[row].get_or_init(|| run(row));
    for (name, met) in *requires {
        assert!(
            met(tally),
            "R{row} {axes:?}, seed {seed:#x} did not exercise {name}: {tally:?}"
        );
    }
}

/// Event-time retention of every `Compact`: the coarse history below is
/// shorter, so compaction meets model windows on both sides of its cut.
const RETAIN: i64 = clock::days(6);
/// Coarse history and fine affinity window of the subjects.
const HISTORY: i64 = clock::days(2);
/// The upper clamp of the δ estimate (`locater_events::validity`).
const DELTA_MAX: i64 = 1_800;
const STEPS: usize = 240;

/// `true` when a probe of a device with event times `times` at `t` is inside
/// the compaction contract for `cut` under a coarse history and fine
/// affinity window of `history`: the whole consulted window — from the start
/// of the coarse model's window (`CoarseConfig::model_window`, which ends at
/// or before `t`) to `t` — padded by δ, clears the cut, and so do the event
/// that opens the gap holding `t` and the one before the window, which the
/// coarse gap scan reads. A device returning from an absence that reaches
/// below the cut is out of scope.
pub fn in_scope(times: &[i64], t: i64, cut: i64, history: i64) -> bool {
    let coarse = CoarseConfig {
        history,
        ..CoarseConfig::default()
    };
    let start = coarse.model_window(t).start;
    if start - DELTA_MAX < cut {
        return false;
    }
    let at = times.partition_point(|&x| x <= t);
    if at == 0 || times[at - 1] < cut {
        return false; // the gap containing t is left-bounded below the cut
    }
    let before_window = times.partition_point(|&x| x <= start + DELTA_MAX);
    before_window == 0 || times[before_window - 1] >= cut
}

fn campus() -> &'static SimOutput {
    static CAMPUS: OnceLock<SimOutput> = OnceLock::new();
    CAMPUS.get_or_init(|| Simulator::new(3).run_campus(&CampusConfig::small().with_weeks(2)))
}

fn config(axes: &Axes) -> LocaterConfig {
    LocaterConfig::default()
        .with_fine_mode(axes.fine_mode)
        .with_cache(axes.cache)
        .with_history(HISTORY)
}

enum Op {
    /// A frame both entry points answer: ingest, batch ingest, locate,
    /// compact.
    Send(WireRequest),
    /// `locate_batch` (no wire verb) at one or two jobs.
    Batch(Vec<LocateRequest>, usize),
    /// Probes, which warm the cache for themselves; then the event's
    /// timestamp and access point for every device so far, which leaves every
    /// cached affinity and model stale; then the probes again, which must
    /// answer like a fresh build.
    Burst(RawEvent, Vec<LocateRequest>),
    /// The last tagged ingest again, with its request id.
    Retry,
    /// Evict stale affinities and models (no wire verb).
    Purge,
    /// Drop the durable subject and reboot it from its WAL.
    Crash,
}

/// The boot events and one seeded op sequence over the campus.
fn generate(out: &SimOutput, durable: bool, seed: u64) -> (Vec<RawEvent>, Vec<Op>) {
    // The first 70 % boots the services, except every 23rd event, which
    // arrives late; the rest arrives in order while the ops run.
    let (boot, frontier) = out.events.split_at(out.events.len() * 7 / 10);
    let (late, boot): (Vec<_>, Vec<_>) = boot.iter().enumerate().partition(|(i, _)| i % 23 == 7);
    let boot: Vec<RawEvent> = boot.into_iter().map(|(_, e)| e.clone()).collect();
    let mut late = late.into_iter().map(|(_, e)| e);
    let mut frontier = frontier.iter();
    let mut queries = generated_workload(out, 6_000, seed)
        .queries
        .into_iter()
        .map(|q| LocateRequest::by_mac(q.mac, q.t));
    let mut now = boot.last().expect("boot events").clone();
    let (mut newcomers, mut request_id) = (0usize, seed << 20);
    let mut rng = Lcg(seed);
    // A late event, half of them tagged with a request id; once the late
    // events run out, a retry of the last tagged ingest.
    let mut late_ingest = |rng: &mut Lcg| match late.next() {
        Some(event) => {
            request_id += 1;
            Op::Send(WireRequest::Ingest {
                mac: event.mac.clone(),
                t: event.t,
                ap: event.ap.clone(),
                request_id: (rng.below(2) == 0).then_some(request_id),
            })
        }
        None => Op::Retry,
    };
    let mut ops = Vec::with_capacity(STEPS + STEPS / 20);
    for step in 0..STEPS {
        let mut then_crash = false;
        // Bursts and crashes at fixed steps, so every run has its share; the
        // late events are the oldest of the campus, so once a compaction has
        // cut, the one before each burst lands below the cut.
        let op = if step % 40 == 20 {
            // Half the probes ask about the burst's own instant, where every
            // device is a neighbour tied at one timestamp.
            let probes = queries.by_ref().take(8).enumerate();
            let probes = probes.map(|(k, q)| LocateRequest {
                t: if k % 2 == 0 { now.t } else { q.t },
                ..q
            });
            Op::Burst(now.clone(), probes.collect())
        } else if step % 40 == 19 {
            late_ingest(&mut rng)
        } else if durable && step % 60 == 50 {
            Op::Crash
        } else {
            match rng.below(40) {
                0..=15 | 36.. => {
                    let mut request = queries.next().expect("enough queries");
                    match rng.below(8) {
                        0 => request = request.with_fine_mode([I, D][rng.below(2) as usize]),
                        1 => request = request.with_cache([ON, OFF][rng.below(2) as usize]),
                        2 => request.mac = Some(format!("newcomer-{newcomers:03}")),
                        _ => {}
                    }
                    Op::Send(WireRequest::locate(&request))
                }
                16..=21 => {
                    let events: Vec<RawEvent> = frontier.by_ref().take(40).cloned().collect();
                    now = events.last().unwrap_or(&now).clone();
                    Op::Send(WireRequest::IngestBatch {
                        events,
                        request_id: None,
                    })
                }
                22..=25 => late_ingest(&mut rng),
                26 => {
                    newcomers += 1;
                    Op::Send(WireRequest::Ingest {
                        mac: format!("newcomer-{:03}", newcomers - 1),
                        t: now.t,
                        ap: now.ap.clone(),
                        request_id: None,
                    })
                }
                27..=31 => {
                    let requests = queries.by_ref().take(3 + rng.below(10) as usize).collect();
                    Op::Batch(requests, 1 + rng.below(2) as usize)
                }
                33 => Op::Purge,
                34 | 35 => {
                    // On a durable subject, a third of the compactions are
                    // followed by a crash: the reboot has nothing to replay.
                    then_crash = durable && rng.below(3) == 0;
                    Op::Send(WireRequest::Compact {
                        retain: Some(RETAIN),
                        horizon: None,
                    })
                }
                _ => Op::Retry,
            }
        };
        ops.push(op);
        if then_crash {
            ops.push(Op::Crash);
        }
    }
    (boot, ops)
}

/// The subject: a service behind a server, sent each request as a frame or
/// as a direct call on the service.
struct Subject {
    state: ServerState,
    wire: bool,
}

impl Subject {
    /// Boots the subject over `store`; on a WAL directory, recovers it first
    /// (the checkpoint there, once written, wins over `store`), seeds the
    /// server's replay window from the recovery and returns its report.
    fn boot(
        store: EventStore,
        axes: &Axes,
        shards: usize,
        wal: Option<&Path>,
    ) -> (Self, Option<RecoveryReport>) {
        let (service, report) = match wal {
            None => (
                ShardedLocaterService::new(store, config(axes), shards),
                None,
            ),
            Some(dir) => {
                let durability = Durability::new(dir).with_fsync(FsyncPolicy::EveryN(8));
                let booted =
                    ShardedLocaterService::with_durability(store, config(axes), shards, durability);
                let (service, report) = booted.expect("durable boot");
                (service, Some(report))
            }
        };
        let state = ServerState::new(service, None);
        if let Some(report) = &report {
            state.seed_dedup_from_recovery(report);
        }
        let subject = Subject {
            state,
            wire: axes.wire,
        };
        (subject, report)
    }

    fn service(&self) -> &ShardedLocaterService {
        self.state.service()
    }

    fn send(&self, request: &WireRequest) -> WireResponse {
        if self.wire {
            self.state.execute(request)
        } else {
            call(self.service(), request)
        }
    }
}

/// The frame `ServerState::execute` answers to `request`, by direct calls.
fn call(service: &ShardedLocaterService, request: &WireRequest) -> WireResponse {
    match request {
        WireRequest::Ingest {
            mac,
            t,
            ap,
            request_id,
        } => match service.ingest_tagged(mac, *t, ap, *request_id) {
            Ok((.., device_epoch)) => WireResponse::Ingested {
                mac: mac.clone(),
                t: *t,
                ap: ap.clone(),
                device_epoch,
            },
            Err(e) => WireResponse::Error(e.into()),
        },
        WireRequest::IngestBatch { events, .. } => match service.ingest_batch(events) {
            Ok(appended) => WireResponse::IngestedBatch { appended },
            Err(e) => WireResponse::Error(e.into()),
        },
        WireRequest::Locate { .. } => located(service.locate(&request.to_locate().unwrap())),
        WireRequest::Compact {
            retain: Some(retain),
            horizon: None,
        } => match service.compact(Cut::Retain(*retain), None) {
            Ok(status) => WireResponse::Compacted(status),
            Err(e) => WireResponse::Error(WireError::Internal {
                message: e.to_string(),
            }),
        },
        other => unreachable!("the generator sends no {other:?}"),
    }
}

/// The wire frame of a direct locate result.
pub fn located(result: Result<LocateResponse, LocaterError>) -> WireResponse {
    match result {
        Ok(response) => WireResponse::located(&response),
        Err(e) => WireResponse::Error(e.into()),
    }
}

/// A located frame without its counters: a fresh build counts epochs from
/// 0, the live service from its first ingest, and a compacted store holds
/// fewer events by design (the store checks compare the event sets).
fn bare(mut response: WireResponse) -> String {
    if let WireResponse::Located {
        device_epoch,
        events_seen,
        ..
    } = &mut response
    {
        *device_epoch = 0;
        *events_seen = 0;
    }
    encode_response(&response)
}

/// Runs the seeded sequence of [`COVERING`] row `row` on its subject,
/// against the eager one-shard twin and the event models.
fn run(row: usize) -> Tally {
    let Row { axes, seed, .. } = &COVERING[row];
    let seed = *seed;
    let out = campus();
    let (boot, ops) = generate(out, axes.durable, seed);
    let mut model = EventStore::new(out.space.clone());
    model.ingest_batch(boot.iter()).expect("boot events ingest");
    model.estimate_deltas();
    // Every acked event, no cut: the control of compaction.
    let mut uncut = model.clone();
    let wal = axes.durable.then(|| scratch("twin-wal"));
    let (mut subject, report) = Subject::boot(model.clone(), axes, axes.shards, wal.as_deref());
    if let Some(report) = report {
        assert!(
            !report.checkpoint_loaded && report.replayed == 0 && report.torn.is_empty(),
            "R{row} {axes:?}, seed {seed:#x}: a first boot recovered {report:?}"
        );
    }
    let mut reference = ShardedLocaterService::new(model.clone(), config(axes), 1);
    let mut tally = Tally::default();

    // The last tagged ingest, and whether a reboot would still find its id
    // in a log tail: a checkpoint drops it from there, while the server's
    // replay window keeps it until a crash.
    let mut last_tagged: Option<(WireRequest, bool)> = None;
    let mut last_cut = None;
    // A late event below `last_cut` is held until the next evicting run.
    let mut splice_held = false;
    // Events acked since the durable subject's last checkpoint, and whether
    // that checkpoint was a compaction's (else the boot's).
    let (mut since_checkpoint, mut compaction_checkpoint) = (0u64, false);

    for (step, op) in ops.iter().enumerate() {
        let ctx = format!("R{row} {axes:?}, seed {seed:#x}, step {step}");
        let twin = |a: &WireResponse, b: &WireResponse| {
            assert_eq!(
                encode_response(a),
                encode_response(b),
                "{ctx}: the subject diverged from its eager one-shard twin"
            );
        };
        match op {
            Op::Send(request) => {
                let (a, b) = (subject.send(request), call(&reference, request));
                twin(&a, &b);
                match (request, &a) {
                    (WireRequest::Locate { .. }, _) => tally.answers += 1,
                    (
                        WireRequest::Ingest {
                            mac,
                            t,
                            ap,
                            request_id,
                        },
                        WireResponse::Ingested { .. },
                    ) => {
                        model.ingest_raw(mac, *t, ap).unwrap();
                        uncut.ingest_raw(mac, *t, ap).unwrap();
                        since_checkpoint += 1;
                        if last_cut.is_some_and(|cut| *t < cut) {
                            tally.below_cut += 1;
                            splice_held = true;
                        }
                        if request_id.is_some() {
                            last_tagged = Some((request.clone(), true));
                        }
                    }
                    (
                        WireRequest::IngestBatch { events, .. },
                        WireResponse::IngestedBatch { .. },
                    ) => {
                        model.ingest_batch(events.iter()).unwrap();
                        uncut.ingest_batch(events.iter()).unwrap();
                        since_checkpoint += events.len() as u64;
                    }
                    (WireRequest::Compact { .. }, WireResponse::Compacted(_)) => {
                        let cut = model.time_span().map(|span| span.end - 1 - RETAIN);
                        if let Some(cut) = cut {
                            if model.compact(cut).evicted_events > 0 {
                                tally.evicting += 1;
                                last_cut = Some(cut);
                                splice_held = false;
                                // The durable subject checkpointed.
                                if axes.durable {
                                    (since_checkpoint, compaction_checkpoint) = (0, true);
                                    if let Some((_, in_tail)) = last_tagged.as_mut() {
                                        *in_tail = false;
                                    }
                                }
                            }
                        }
                    }
                    _ => panic!("{ctx}: {request:?} was refused: {a:?}"),
                }
            }
            Op::Batch(requests, jobs) => {
                let a = subject.service().locate_batch(requests, *jobs);
                let b = reference.locate_batch(requests, *jobs);
                for (a, b) in a.into_iter().zip(b) {
                    twin(&located(a), &located(b));
                    tally.answers += 1;
                }
            }
            Op::Burst(at, requests) => {
                // The probes warm the cache for themselves first.
                for request in requests {
                    let request = WireRequest::locate(request);
                    twin(&subject.send(&request), &call(&reference, &request));
                    tally.answers += 1;
                }
                reference.fit_pending_models(i64::MAX);
                compare_models(&subject, &reference, &model, &ctx, &mut tally);
                tally.bursts += 1;
                tally.warm_bursts += usize::from(subject.service().cache_stats().0 > 0);
                let events: Vec<RawEvent> = model
                    .devices()
                    .iter()
                    .map(|device| RawEvent::new(device.mac.as_str(), at.t, at.ap.as_str()))
                    .collect();
                let burst = WireRequest::IngestBatch {
                    events: events.clone(),
                    request_id: None,
                };
                twin(&subject.send(&burst), &call(&reference, &burst));
                model.ingest_batch(events.iter()).unwrap();
                uncut.ingest_batch(events.iter()).unwrap();
                since_checkpoint += events.len() as u64;
                assert_eq!(
                    subject.service().live_cache_stats(),
                    (0, 0),
                    "{ctx}: cached affinities outlived a burst over every device"
                );
                let fresh = ShardedLocaterService::new(model.clone(), config(axes), 1);
                for request in requests {
                    let request = WireRequest::locate(request);
                    let a = subject.send(&request);
                    twin(&a, &call(&reference, &request));
                    assert_eq!(
                        bare(a),
                        bare(call(&fresh, &request)),
                        "{ctx}: after every device went stale, the subject answers unlike a \
                         fresh build over the acked events"
                    );
                    tally.probes += 1;
                }
                assert_eq!(
                    subject.service().live_cache_stats(),
                    fresh.live_cache_stats(),
                    "{ctx}: the probes left other live cache state than on a fresh build"
                );
                // Each in-scope probe on its own, so no model an out-of-scope
                // probe cached is reused: compaction must not show in it.
                let control = ShardedLocaterService::new(uncut.clone(), config(axes), 1);
                let cut = last_cut.unwrap_or(i64::MIN);
                for request in requests {
                    let device = uncut.device_id(request.mac.as_deref().unwrap_or_default());
                    let times: Vec<i64> = device
                        .map(|device| uncut.timeline_of(device).iter().map(|e| e.t()).collect())
                        .unwrap_or_default();
                    if !in_scope(&times, request.t, cut, HISTORY) {
                        continue;
                    }
                    fresh.clear_cache();
                    control.clear_cache();
                    let request = WireRequest::locate(request);
                    assert_eq!(
                        bare(call(&fresh, &request)),
                        bare(call(&control, &request)),
                        "{ctx}: inside the retained window (cut {cut}), the compacted events \
                         answer unlike every acked event"
                    );
                    tally.controlled += 1;
                    tally.controlled_over_splice += usize::from(splice_held);
                }
            }
            Op::Retry => match &last_tagged {
                // A retry needs the server's replay window.
                Some((request @ WireRequest::Ingest { mac, t, ap, .. }, _)) if subject.wire => {
                    let before = subject.service().num_events();
                    let replay = subject.send(request);
                    assert!(
                        matches!(&replay, WireResponse::Ingested { mac: m, t: u, ap: p, .. }
                            if (m, u, p) == (mac, t, ap)),
                        "{ctx}: a retry must replay its ack, got {replay:?}"
                    );
                    let after = subject.service().num_events();
                    assert_eq!(after, before, "{ctx}: a retry applied twice");
                    tally.replays += 1;
                }
                _ => {}
            },
            Op::Purge => {
                let (a, b) = (subject.service().purge_stale(), reference.purge_stale());
                assert_eq!(a, b, "{ctx}: the twin purged other stale state");
            }
            Op::Crash => {
                compare_models(&subject, &reference, &model, &ctx, &mut tally);
                tally.crashes += 1;
                // Every other reboot changes the shard count.
                let shards = if tally.crashes % 2 == 1 {
                    axes.shards % 3 + 1
                } else {
                    axes.shards
                };
                tally.reshards += usize::from(shards != subject.service().num_shards());
                drop(subject);
                let (rebooted, report) = Subject::boot(
                    EventStore::new(out.space.clone()),
                    axes,
                    shards,
                    wal.as_deref(),
                );
                subject = rebooted;
                let report = report.expect("a crash reboots a durable subject");
                assert!(
                    report.checkpoint_loaded
                        && report.torn.is_empty()
                        && report.replayed == since_checkpoint
                        && report.base_events as u64 + report.replayed == model.num_events() as u64,
                    "{ctx}: {since_checkpoint} acked ingests since the last checkpoint, \
                     {} events acked, recovered {report:?}",
                    model.num_events()
                );
                tally.replayed += report.replayed;
                match (compaction_checkpoint, since_checkpoint) {
                    (true, 0) => tally.crashes_at_compaction += 1,
                    (true, _) => tally.tails_over_compaction += 1,
                    _ => {}
                }
                (since_checkpoint, compaction_checkpoint) = (0, false);
                reference = ShardedLocaterService::new(reference.store_snapshot(), config(axes), 1);
                // The reboot replayed the tail into the replay window, then
                // checkpointed over it.
                last_tagged = last_tagged.filter(|(_, in_tail)| *in_tail);
                if let Some((_, in_tail)) = last_tagged.as_mut() {
                    *in_tail = false;
                }
            }
        }
        reference.fit_pending_models(i64::MAX);
        let checkpoint = matches!(
            op,
            Op::Burst(..) | Op::Crash | Op::Send(WireRequest::Compact { .. })
        );
        if checkpoint || step + 1 == ops.len() {
            assert!(
                subject.service().store_snapshot() == model,
                "{ctx}: the subject's store is not the acked events"
            );
            assert!(
                reference.store_snapshot() == model,
                "{ctx}: the twin's store is not the acked events"
            );
            let cache = |service: &ShardedLocaterService| {
                (service.cache_stats(), service.live_cache_stats())
            };
            assert_eq!(
                cache(subject.service()),
                cache(&reference),
                "{ctx}: the twin's affinity cache holds other (all, live) edges and samples"
            );
        }
    }
    let end = format!("R{row} {axes:?}, seed {seed:#x}, end");
    compare_models(&subject, &reference, &model, &end, &mut tally);

    let ran = format!("R{row} {axes:?}, seed {seed:#x}: {tally:?}");
    assert!(tally.answers >= 200 && tally.probes >= 24, "{ran}");
    assert!(tally.evicting >= 2 && tally.controlled >= 12, "{ran}");
    assert!(tally.fitted >= 3 && tally.unfitted >= 3, "{ran}");
    assert!(!axes.durable || tally.crashes >= 2, "{ran}");
    assert!(!axes.wire || tally.replays >= 1, "{ran}");
    if let Some(dir) = wal {
        std::fs::remove_dir_all(dir).ok();
    }
    tally
}

/// Every model the lazy subject holds was cached at the epoch of its eager
/// twin's: both cache a model on the same misses of an empty or stale slot.
/// Their windows may differ, because a miss that fits nothing keeps a live
/// fitted model, and the twin's live models are all fitted. Where the
/// windows agree, a model the subject fitted holds the twin's classifiers.
/// Counts those fitted models and the unfitted ones in `tally`.
fn compare_models(
    subject: &Subject,
    reference: &ShardedLocaterService,
    model: &EventStore,
    ctx: &str,
    tally: &mut Tally,
) {
    for device in model.devices() {
        let lazy = subject.service().cached_model(device.id);
        match (lazy, reference.cached_model(device.id)) {
            (Some(a), Some(b)) => {
                assert_eq!(a.epoch, b.epoch, "{ctx}");
                if !a.model.is_fitted() {
                    tally.unfitted += 1;
                } else if a.model.history == b.model.history {
                    tally.fitted += 1;
                    assert!(
                        *a.model == *b.model,
                        "{ctx}: lazily fitted classifiers differ"
                    );
                }
            }
            (a, b) => assert!(a.is_none() && b.is_none(), "{ctx}: one side cached a model"),
        }
    }
}
