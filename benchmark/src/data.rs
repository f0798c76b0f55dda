//! Inputs of a run: the simulated campus and the precision panel (one pinned
//! scenario, [`spec::SCENARIO_SEED`]), the request scripts (drawn from
//! `--seed`) and the files a boot path reads. Generation is untimed
//! (`harness.generate_s`); the program under test only ever sees what is
//! produced here.

use crate::spec::{self, Plan, Workload};
use crate::stats::{Fnv, Rng};
use locater_core::metrics::TruthLocation;
use locater_core::system::{LocaterConfig, ShardedLocaterService};
use locater_events::clock::{self, Timestamp};
use locater_proto::{encode_request, WireRequest};
use locater_sim::{generated_workload, university_workload, SimOutput, Simulator};
use locater_store::{Durability, EventStore, FsyncPolicy, RawEvent};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One panel query with its ground truth.
#[derive(Debug, Clone)]
pub struct PanelQuery {
    pub mac: String,
    pub t: Timestamp,
    pub truth: TruthLocation,
}

/// One step of a closed-loop connection's script.
#[derive(Debug, Clone)]
pub enum Step {
    Request(WireRequest),
    /// Every connection waits here twice; the connection holding `Some`
    /// sends that request between the two waits, with the others parked.
    Barrier(Option<WireRequest>),
}

/// A WAL directory prepared as recovery input: a checkpoint plus a log tail.
#[derive(Debug, Clone)]
pub struct WalTemplate {
    pub dir: PathBuf,
    pub base_events: usize,
    pub tail_events: usize,
}

#[derive(Debug)]
pub struct Inputs {
    pub workload: Workload,
    pub plan: Plan,
    pub out: SimOutput,
    /// `out.events[..preload_len]` are in the store when serving starts.
    pub preload_len: usize,
    pub panel: Vec<PanelQuery>,
    /// Closed-loop scripts, one per connection.
    pub closed: Vec<Vec<Step>>,
    pub open: Vec<WireRequest>,
    /// The script's lead-in in serial order: every rung of the layer ladder
    /// executes it, unmeasured, before it replays `ladder`.
    pub ladder_lead_in: Vec<WireRequest>,
    /// The requests after the lead-in, replayed up the layer ladder.
    pub ladder: Vec<WireRequest>,
    /// Scratch directory of this run (under `benchmark/out/`).
    pub dir: PathBuf,
    /// `serve_cold` boot input.
    pub snapshot: Option<PathBuf>,
    /// `ingest_mixed` boot input (and the recovery probes' input in traced runs).
    pub wal_template: Option<WalTemplate>,
    pub generate_s: f64,
    pub script_fnv: u32,
}

impl Inputs {
    pub fn preload(&self) -> &[RawEvent] {
        &self.out.events[..self.preload_len]
    }
}

pub fn locate_request(mac: &str, t: Timestamp) -> WireRequest {
    WireRequest::Locate {
        mac: Some(mac.to_string()),
        device: None,
        t,
        fine_mode: None,
        cache: None,
    }
}

/// A store as the raw-event boot path builds it.
pub fn build_store(out: &SimOutput, events: &[RawEvent]) -> EventStore {
    let mut store = EventStore::new(out.space.clone());
    store
        .ingest_batch(events.iter())
        .expect("simulated events are ingestible");
    store.estimate_deltas();
    store
}

pub fn generate(
    workload: Workload,
    plan: Plan,
    seed: u64,
    out_root: &Path,
    traced: bool,
) -> Inputs {
    let started = Instant::now();
    let out = Simulator::new(spec::SCENARIO_SEED).run_campus(&plan.campus);
    let span = out.span().expect("the simulated campus has events");
    let dir = out_root.join(format!("{}-{}", workload.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the run's scratch directory");

    let now_t = spec::now_t(span.start);
    let preload_len = match workload {
        Workload::IngestMixed => out.events.partition_point(|e| e.t < now_t),
        _ => out.events.len(),
    };
    let horizon = (workload == Workload::IngestMixed).then_some(now_t);
    let panel = panel(
        &out,
        plan.panel_per_person,
        spec::SCENARIO_SEED ^ 0x9A7E1,
        horizon,
    );

    let total = plan.closed_ops + plan.open_ops;
    let mut rng = Rng::new(seed ^ 0x005C_21F7);
    let script: Vec<WireRequest> = match workload {
        Workload::ServeHot => hot_script(&out, total, &mut rng),
        Workload::ServeCold | Workload::BatchClean => {
            generated_workload(&out, total, seed ^ 0xC01D)
                .queries
                .iter()
                .map(|q| locate_request(&q.mac, q.t))
                .collect()
        }
        Workload::IngestMixed => ingest_script(&out.events[preload_len..], total, &mut rng),
    };
    assert!(
        script.len() >= total,
        "the dataset is too short for --seconds"
    );
    let lead_in = plan.closed_ops * spec::LEAD_IN_SLICES / plan.phase_slices();
    let ladder_lead_in = script[..lead_in].to_vec();
    let ladder = script[lead_in..(lead_in + plan.ladder_requests).min(plan.closed_ops)].to_vec();
    let open = script[plan.closed_ops..total].to_vec();
    let closed = split_closed(workload, &script[..plan.closed_ops]);

    let mut fnv = Fnv::default();
    for request in &script[..total] {
        fnv.write(encode_request(request).as_bytes());
    }
    for query in &panel {
        fnv.write(query.mac.as_bytes());
        fnv.write(&query.t.to_le_bytes());
    }

    let snapshot = (workload == Workload::ServeCold).then(|| {
        let path = dir.join("preload.snap");
        build_store(&out, &out.events)
            .save_snapshot(&path)
            .expect("write the boot snapshot");
        flush(&path);
        path
    });
    let wal_template = (workload == Workload::IngestMixed || traced)
        .then(|| prepare_wal_template(&out, &dir.join("wal-template")));

    Inputs {
        workload,
        plan,
        out,
        preload_len,
        panel,
        closed,
        open,
        ladder_lead_in,
        ladder,
        dir,
        snapshot,
        wal_template,
        generate_s: started.elapsed().as_secs_f64(),
        script_fnv: fnv.fold32(),
    }
}

/// `university_workload` over the monitored people with ground truth attached;
/// with a horizon only queries before it are kept (the store holds nothing later).
fn panel(
    out: &SimOutput,
    per_person: usize,
    seed: u64,
    before: Option<Timestamp>,
) -> Vec<PanelQuery> {
    // Oversample so that the filtered panel still has `per_person` queries each.
    let draw = if before.is_some() {
        per_person * 2
    } else {
        per_person
    };
    let mut kept: Vec<PanelQuery> = Vec::new();
    let mut taken = std::collections::HashMap::<String, usize>::new();
    for query in university_workload(out, draw, seed).queries {
        if before.is_some_and(|horizon| query.t >= horizon) {
            continue;
        }
        let count = taken.entry(query.mac.clone()).or_default();
        if *count == per_person {
            continue;
        }
        *count += 1;
        let truth = match out.ground_truth.room_at(&query.mac, query.t) {
            Some(room) => TruthLocation::Room(room),
            None => TruthLocation::Outside,
        };
        kept.push(PanelQuery {
            mac: query.mac,
            t: query.t,
            truth,
        });
    }
    kept
}

/// Queries about *now*: devices seen in the last busy simulated day, at times
/// in that day. The simulation ends on a weekend, when a tenth of the campus is
/// present; the last day that saw a quarter of all devices is the dashboard's
/// working day.
fn hot_script(out: &SimOutput, n: usize, rng: &mut Rng) -> Vec<WireRequest> {
    let end = out.span().expect("events").end;
    let active_in = |day_start: Timestamp| -> Vec<&str> {
        let first = out.events.partition_point(|e| e.t < day_start);
        let last = out
            .events
            .partition_point(|e| e.t < day_start + clock::days(1));
        out.events[first..last]
            .iter()
            .map(|e| e.mac.as_str())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect()
    };
    let (day_start, active) = (1..=7)
        .map(|back| end - clock::days(back))
        .map(|day_start| (day_start, active_in(day_start)))
        .find(|(_, active)| active.len() * 4 >= out.people.len())
        .expect("some day of the last week is a working day");
    (0..n)
        .map(|_| {
            let mac = active[rng.below(active.len() as u64) as usize];
            locate_request(mac, day_start + rng.below(clock::days(1) as u64) as i64)
        })
        .collect()
}

/// 80 % `Ingest` replaying the live stream in time order (every frame with a
/// request id, some swapped with their device's next event so they arrive
/// late) and 20 % `Locate` shortly before the device's freshest event.
fn ingest_script(stream: &[RawEvent], n: usize, rng: &mut Rng) -> Vec<WireRequest> {
    let ingests = n - n / spec::INGEST_LOCATE_EVERY;
    assert!(
        stream.len() >= ingests,
        "the live stream is too short for --seconds"
    );
    let mut events: Vec<&RawEvent> = stream[..ingests].iter().collect();
    for i in 0..events.len() {
        if rng.below(100) < spec::INGEST_LATE_PCT {
            let later = (i + 1..events.len().min(i + 400))
                .find(|&j| events[j].mac == events[i].mac && events[j].t > events[i].t);
            if let Some(j) = later {
                events.swap(i, j);
            }
        }
    }
    let mut script = Vec::with_capacity(n);
    for (i, event) in events.iter().enumerate() {
        script.push(WireRequest::Ingest {
            mac: event.mac.clone(),
            t: event.t,
            ap: event.ap.clone(),
            request_id: Some((1 << 40) | i as u64),
        });
        if script.len() % spec::INGEST_LOCATE_EVERY == spec::INGEST_LOCATE_EVERY - 1 {
            let back = clock::minutes(10) + rng.below(clock::minutes(30) as u64) as i64;
            script.push(locate_request(&event.mac, event.t - back));
        }
    }
    script.truncate(n);
    script
}

/// Splits the serial script over the closed-loop connections. Read-only
/// scripts go round-robin; `ingest_mixed` keeps each device on one connection
/// (so its events arrive in script order) and adds the compaction barriers.
fn split_closed(workload: Workload, script: &[WireRequest]) -> Vec<Vec<Step>> {
    // `batch_clean` has no connections: its one list is the query list.
    let connections = if workload.serves() {
        spec::CONNECTIONS
    } else {
        1
    };
    let mut lists: Vec<Vec<Step>> = vec![Vec::new(); connections];
    for (i, request) in script.iter().enumerate() {
        let conn = match (workload, request) {
            (Workload::IngestMixed, WireRequest::Ingest { mac, .. })
            | (Workload::IngestMixed, WireRequest::Locate { mac: Some(mac), .. }) => {
                let mut fnv = Fnv::default();
                fnv.write(mac.as_bytes());
                fnv.fold32() as usize % spec::CONNECTIONS
            }
            _ => i % connections,
        };
        lists[conn].push(Step::Request(request.clone()));
    }
    if workload == Workload::IngestMixed {
        let cycles = spec::COMPACT_RETAIN_WEEKS.len();
        for (conn, list) in lists.iter_mut().enumerate() {
            // Insert from the back so earlier positions stay valid.
            for (cycle, weeks) in spec::COMPACT_RETAIN_WEEKS.iter().enumerate().rev() {
                let at = list.len() * (cycle + 1) / (cycles + 1);
                let compact = (conn == 0).then_some(WireRequest::Compact {
                    retain: Some(clock::weeks(*weeks)),
                    horizon: None,
                });
                list.insert(at, Step::Barrier(compact));
            }
        }
    }
    lists
}

/// Builds the recovery input: a checkpoint of everything before the tail plus
/// per-shard logs holding the tail, as a crashed durable server leaves them.
/// The tail is appended without per-frame fsync — this is input preparation,
/// the bytes are the same.
fn prepare_wal_template(out: &SimOutput, dir: &Path) -> WalTemplate {
    let start = out.span().expect("events").start;
    let (tail_start, now_t) = (spec::tail_start_t(start), spec::now_t(start));
    let base_len = out.events.partition_point(|e| e.t < tail_start);
    let tail_end = out.events.partition_point(|e| e.t < now_t);
    let base = build_store(out, &out.events[..base_len]);
    let durability = Durability::new(dir).with_fsync(FsyncPolicy::EveryN(u64::MAX));
    let (service, _) = ShardedLocaterService::with_durability(
        base,
        LocaterConfig::default(),
        spec::CONNECTIONS,
        durability,
    )
    .expect("open the template WAL");
    for event in &out.events[base_len..tail_end] {
        service
            .ingest(&event.mac, event.t, &event.ap)
            .expect("append the template tail");
    }
    drop(service); // no checkpoint: the tail stays in the logs
    flush_tree(dir);
    WalTemplate {
        dir: dir.to_path_buf(),
        base_events: base_len,
        tail_events: tail_end - base_len,
    }
}

/// Forces a generated file to disk. Dirty pages left to background
/// write-back would be written during the timed phases and disturb the very
/// `fdatasync` latency they measure.
fn flush(path: &Path) {
    std::fs::File::open(path)
        .and_then(|file| file.sync_all())
        .expect("flush a generated file");
}

/// [`flush`] for every file under `dir`.
fn flush_tree(dir: &Path) {
    for entry in std::fs::read_dir(dir).expect("read directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            flush_tree(&path);
        } else {
            flush(&path);
        }
    }
}

/// Copies a prepared WAL directory (checkpoint + `shard-*/seg-*.wal`) so each
/// set-up repeat recovers from identical bytes (flushed, see [`flush`]).
pub fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).expect("create directory");
    for entry in std::fs::read_dir(from).expect("read directory") {
        let entry = entry.expect("directory entry");
        let target = to.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).expect("copy file");
            flush(&target);
        }
    }
}
