//! The correctness cornerstone of the compaction subsystem: **answer
//! equivalence inside the retained window**, a flat resident set, and a cold
//! tier that is a pure function of what was evicted.
//!
//! A service that compacts while serving must answer exactly like its twin
//! and hold exactly the acked events minus everything below each cut: the
//! shared harness in `support/twin.rs` compacts, backfills below the cut and
//! (on a durable subject) crashes and recovers across compaction
//! checkpoints, and checks every answer and store against its eager
//! one-shard twin and its event model. Every run compacts at least twice
//! with evictions; R4 requires at least 20 probes inside the retained
//! window, R3 late events acked below the cut and probes made while one was
//! held, and R2 crashes right after an evicting compaction (the reboot
//! replays nothing) and on top of a tail acked after one.
//!
//! Compaction itself must not show in an answer "in scope"
//! (`twin::in_scope`), the documented contract: an answer is covered when
//! its whole consulted window (coarse history and fine affinity window,
//! padded by the validity slack δ on both sides) lies at or above the cut,
//! and no consulted gap spans the cut (the coarse gap scan reads one event
//! *before* the history window, so a device returning from an absence that
//! reaches below the cut is explicitly out of scope). The harness checks it
//! against a build over every acked event (after each tie burst, a fresh
//! build over the compacted events answers every in-scope probe like one
//! over every acked event); the plateau test below against an uncompacted
//! control fed the same events.
//!
//! The cold tier: a spill file is a pure function of the evicted event set
//! (same bytes from 1 shard, 3 shards and the offline `locater-cli compact`),
//! a run without a spill directory leaves nothing behind, and a spill never
//! replaces a spill.

use crate::support::{durability, fixture::space, lcg::Lcg, scratch::scratch, twin, MACS};
use locater::prelude::*;
use locater::proto::encode_response;
use std::path::Path;

/// Coarse history / fine affinity window of the test config (seconds).
const HISTORY: i64 = 3_000;
/// Event-time retention handed to `compact`.
const RETAIN: i64 = 6_000;

/// A short consulted window so a bounded trace spans many retention cycles,
/// and no affinity cache so each answer depends only on store contents —
/// byte equality then checks exactly what compaction promises to preserve.
fn config() -> LocaterConfig {
    let mut config = LocaterConfig::default();
    config.coarse.history = HISTORY;
    config.fine.affinity_window = HISTORY;
    config.cache = CacheMode::Disabled;
    config
}

fn service(shards: usize) -> ShardedLocaterService {
    let store = EventStore::new(space());
    ShardedLocaterService::new(store, config(), shards)
}

enum Op {
    Ingest(&'static str, i64, &'static str),
    Locate(&'static str, i64),
    Compact,
}

/// One seeded interleaving. Per-device frontiers advance by bounded steps
/// (< 2δ, with exact-δ and δ±1 ties), a third of the ingests are backfill
/// splices — reaching far enough back to land *below* an earlier cut — and
/// locates probe near the frontier of a random device.
fn trace(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = Lcg(seed);
    let mut frontier = [5_000i64; 4];
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        let d = rng.below(4) as usize;
        let ap = if rng.below(2) == 0 { "wap0" } else { "wap1" };
        match rng.below(12) {
            0..=5 => {
                frontier[d] += match rng.below(6) {
                    0 => 600, // the default δ exactly
                    1 => 599,
                    2 => 601,
                    _ => 30 + rng.below(900) as i64,
                };
                ops.push(Op::Ingest(MACS[d], frontier[d], ap));
            }
            6..=8 => {
                let back = 1 + rng.below(6_000) as i64;
                ops.push(Op::Ingest(MACS[d], (frontier[d] - back).max(0), ap));
            }
            9 | 10 => ops.push(Op::Locate(MACS[d], frontier[d] - rng.below(900) as i64)),
            _ => ops.push(Op::Compact),
        }
    }
    ops
}

/// A locate answer as wire bytes, with the raw event counter zeroed: the
/// compacted store holds fewer events by design; the equivalence claim
/// covers the answer and the device epoch.
fn answer_bytes(service: &ShardedLocaterService, mac: &str, t: i64) -> String {
    let mut response = service.locate(&LocateRequest::by_mac(mac, t));
    if let Ok(response) = &mut response {
        response.events_seen = 0;
    }
    encode_response(&twin::located(response))
}

/// Every harness run compacts at least twice with evictions; after each
/// tie burst, a fresh build over the compacted events answers every probe
/// inside the retained window like one over every acked event (R4).
#[test]
fn compacting_service_answers_byte_identically_inside_the_retained_window() {
    twin::check(4);
}

/// Late events land below an effective cut: each is accepted under the
/// twin's id, the model check proves the next run aged it out, and probes
/// made while it was held answer like the uncompacted control (R3).
#[test]
fn late_backfill_below_the_cut_is_accepted_and_aged_out_by_the_next_run() {
    twin::check(3);
}

/// Durable harness runs crash right after an evicting compaction (the
/// reboot restarts from its checkpoint and replays nothing) and on top of a
/// tail acked after one, and check each recovered store against the model
/// (R2).
#[test]
fn compaction_survives_kill_and_recover_at_every_interesting_instant() {
    twin::check(2);
}

/// The bounded-memory claim: a service compacted once per simulated day holds
/// a flat resident set over a multi-week trace while an uncompacted control
/// fed the same events keeps growing, and retained answers never drift.
#[test]
fn compacted_resident_bytes_plateau_while_the_control_grows() {
    const DAY: i64 = 86_400;
    const DAYS: usize = 21;
    let compacted = service(4);
    let control = service(4);
    let mut times: std::collections::HashMap<&str, Vec<i64>> = std::collections::HashMap::new();
    // Resident bytes of (compacted, control) at the end of each simulated day.
    let mut samples: Vec<(usize, usize)> = Vec::new();
    let mut compared = 0usize;
    // `trace` advances each device ≈ 70 s per op, so 30k ops cover > 21 days;
    // its own `Compact` ops are skipped — the day boundary compacts instead,
    // retaining two days so the plateau (≈ 250 kB) dwarfs allocator jitter.
    for op in trace(0x50A1, 30_000) {
        match op {
            Op::Ingest(mac, t, ap) => {
                let watermark = compacted.watermark().unwrap_or(t);
                if t.div_euclid(DAY) > watermark.div_euclid(DAY) {
                    compacted
                        .compact(Cut::Retain(2 * DAY), None)
                        .expect("compact");
                    samples.push((
                        compacted.approx_resident_bytes(),
                        control.approx_resident_bytes(),
                    ));
                    if samples.len() == DAYS {
                        break;
                    }
                }
                compacted.ingest(mac, t, ap).expect("compacted ingest");
                control.ingest(mac, t, ap).expect("control ingest");
                let slot = times.entry(mac).or_default();
                let at = slot.partition_point(|&x| x <= t);
                slot.insert(at, t);
            }
            Op::Locate(mac, t) => {
                let cut = compacted.compaction_status().last_cut.unwrap_or(i64::MIN);
                let times = times.get(mac).map(Vec::as_slice).unwrap_or(&[]);
                if twin::in_scope(times, t, cut, HISTORY) {
                    compared += 1;
                    assert_eq!(
                        answer_bytes(&compacted, mac, t),
                        answer_bytes(&control, mac, t),
                        "in-window answer drifted (mac={mac}, t={t}, cut={cut})"
                    );
                }
            }
            Op::Compact => {}
        }
    }
    assert_eq!(
        samples.len(),
        DAYS,
        "the trace must span {DAYS} simulated days"
    );
    assert!(compared >= 200, "too few in-scope probes: {compared}");
    let status = compacted.compaction_status();
    assert!(
        status.runs >= 1 && status.evicted_events > 0,
        "compaction never evicted anything: {status:?}"
    );
    let (quarter, last) = (samples[DAYS / 4], samples[DAYS - 1]);
    assert!(
        last.0 as f64 <= 1.10 * quarter.0 as f64,
        "compacted resident bytes grew past the 25% mark: {} -> {}",
        quarter.0,
        last.0
    );
    assert!(
        last.1 as f64 >= 1.05 * quarter.1 as f64,
        "control grew too little to tell a plateau from natural growth: {} -> {}",
        quarter.1,
        last.1
    );
}

fn snapshot_bytes(service: &ShardedLocaterService) -> Vec<u8> {
    service
        .store_snapshot()
        .to_snapshot_bytes()
        .expect("snapshot bytes")
}

// ---------------------------------------------------------------------------
// The cold tier: one spill file per run, a pure function of what was evicted
// ---------------------------------------------------------------------------

/// Every event of a store as `(id, mac, t, ap)`, sorted by id.
fn events_of(store: &EventStore) -> Vec<(u64, String, i64, u32)> {
    let mut events: Vec<_> = store
        .devices()
        .iter()
        .flat_map(|device| {
            store.timeline_of(device.id).iter().map(|e| {
                (
                    e.id().0,
                    device.mac.as_str().to_string(),
                    e.t(),
                    e.ap().raw(),
                )
            })
        })
        .collect();
    events.sort();
    events
}

/// The spill files of a directory, loaded, in `list_spills` order.
fn read_spills(dir: &Path) -> Vec<EventStore> {
    locater::store::list_spills(dir)
        .expect("list spills")
        .iter()
        .map(|(_, path)| EventStore::load_snapshot(path).expect("a spill is a snapshot"))
        .collect()
}

#[test]
fn spill_bytes_depend_on_the_evicted_events_not_on_shards_or_entry_point() {
    let seeded = {
        let s = service(1);
        for op in trace(99, 400) {
            if let Op::Ingest(mac, t, ap) = op {
                s.ingest(mac, t, ap).unwrap();
            }
        }
        s.store_snapshot()
    };
    let horizon = seeded.time_span().unwrap().end - RETAIN;
    let dir = scratch("spill-eq");

    // Without a spill directory a run leaves nothing behind — on a durable
    // service the WAL directory holds the checkpoint and the logs, no more.
    let wal = dir.join("wal");
    let (durable, _) =
        ShardedLocaterService::with_durability(seeded.clone(), config(), 3, durability(&wal))
            .expect("durable boot");
    let status = durable
        .compact(Cut::Horizon(horizon), None)
        .expect("durable compact");
    assert!(status.evicted_events > 0, "the run must evict something");
    let mut left: Vec<String> = std::fs::read_dir(&wal)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().to_string())
        .collect();
    left.sort();
    assert_eq!(
        left,
        ["checkpoint.snap", "shard-0000", "shard-0001", "shard-0002"]
    );

    // One shard, three shards and the offline CLI write the same file.
    let spill_of = |spill_dir: &Path| {
        let spills = locater::store::list_spills(spill_dir).unwrap();
        assert_eq!(spills.len(), 1, "one run, one file");
        let name = spills[0].1.file_name().unwrap().to_owned();
        (name, std::fs::read(&spills[0].1).unwrap())
    };
    let mut files = Vec::new();
    let mut hot = Vec::new();
    for shards in [1usize, 3] {
        let s = ShardedLocaterService::new(seeded.clone(), config(), shards);
        let spill_dir = dir.join(format!("spill-{shards}"));
        let run = s
            .compact(Cut::Horizon(horizon), Some(&spill_dir))
            .expect("compact");
        assert_eq!(run.evicted_events, status.evicted_events);
        files.push(spill_of(&spill_dir));
        hot.push(snapshot_bytes(&s));
    }
    let snap = dir.join("seeded.snap");
    let out = dir.join("compacted.snap");
    let cli_dir = dir.join("spill-cli");
    seeded.save_snapshot(&snap).unwrap();
    let cli = std::process::Command::new(env!("CARGO_BIN_EXE_locater-cli"))
        .arg("compact")
        .arg(&snap)
        .args(["--horizon", &horizon.to_string()])
        .arg("--spill-dir")
        .arg(&cli_dir)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("run locater-cli");
    assert!(cli.status.success(), "{cli:?}");
    files.push(spill_of(&cli_dir));
    hot.push(std::fs::read(&out).unwrap());
    assert!(files[0] == files[1], "3 shards wrote a different spill");
    assert!(files[0] == files[2], "the CLI wrote a different spill");
    assert!(hot[0] == hot[1] && hot[0] == hot[2], "the hot tiers differ");
    assert_eq!(hot[0], snapshot_bytes(&durable));

    // And the file is what it says: the evicted events, nothing else.
    let spill = EventStore::from_snapshot_bytes(&files[0].1).unwrap();
    let kept = EventStore::from_snapshot_bytes(&hot[0]).unwrap();
    assert_eq!(spill.num_events() as u64, status.evicted_events);
    let mut both = events_of(&spill);
    both.extend(events_of(&kept));
    both.sort();
    assert_eq!(both, events_of(&seeded));

    std::fs::remove_dir_all(&dir).ok();
}

/// Two runs can land on the same cut (a late ingest below it,
/// then the next tick at the same retention). The second spill must not
/// replace the first: after any sequence of runs every evicted event id is in
/// exactly one spill file, and hot ∪ spills is the never-compacted store.
#[test]
fn a_spill_never_replaces_a_spill() {
    for shards in [1usize, 3] {
        let dir = scratch("no-clobber");
        let compacted = service(shards);
        let reference = service(shards);
        let both = |mac: &str, t: i64, ap: &str| {
            compacted.ingest(mac, t, ap).unwrap();
            reference.ingest(mac, t, ap).unwrap();
        };
        let mut t = 5_000;
        for i in 0..120 {
            t += 400;
            both(MACS[i % 4], t, "wap0");
        }
        let first = compacted.compact(Cut::Retain(RETAIN), Some(&dir)).unwrap();
        let cut = first.last_cut.expect("evicted");
        assert_eq!(read_spills(&dir).len(), 1);
        let first_spill = std::fs::read(&locater::store::list_spills(&dir).unwrap()[0].1).unwrap();

        // One late event below the cut; the next tick lands on the same cut.
        both(MACS[0], cut - 2_000, "wap1");
        let second = compacted.compact(Cut::Retain(RETAIN), Some(&dir)).unwrap();
        assert_eq!(second.last_cut, Some(cut));
        assert_eq!(second.evicted_events, first.evicted_events + 1);
        let spills = locater::store::list_spills(&dir).unwrap();
        assert_eq!(spills.len(), 2, "shards={shards}");
        assert!(
            spills
                .iter()
                .any(|(_, path)| std::fs::read(path).unwrap() == first_spill),
            "the first spill was replaced (shards={shards})"
        );

        // A longer seeded run on top: frontier ingest, backfill below earlier
        // cuts, and a spilling compaction wherever the trace asks for one.
        for op in trace(31 + shards as u64, 500) {
            match op {
                Op::Ingest(mac, at, ap) => both(mac, t + at, ap),
                Op::Locate(..) => {}
                Op::Compact => {
                    compacted.compact(Cut::Retain(RETAIN), Some(&dir)).unwrap();
                }
            }
        }
        let status = compacted.compaction_status();
        assert!(status.runs > 2, "the trace must compact: {status:?}");

        let spills = read_spills(&dir);
        assert_eq!(
            spills.len() as u64,
            status.runs,
            "one file per effective run"
        );
        let mut all = events_of(&compacted.store_snapshot());
        let mut spilled = 0u64;
        for spill in &spills {
            spilled += spill.num_events() as u64;
            all.extend(events_of(spill));
        }
        all.sort();
        assert_eq!(spilled, status.evicted_events);
        assert_eq!(
            all,
            events_of(&reference.store_snapshot()),
            "hot ∪ spills must be the never-compacted store (shards={shards})"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
