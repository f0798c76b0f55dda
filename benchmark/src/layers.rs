//! Direct-call probes of the lower layers (traced run only): each times a
//! public function of one crate on inputs taken from the workload's own
//! script, so a layer's cost is known by itself as well as inside a request.

use crate::countio::{CountingIo, IoCounts};
use crate::data::{build_store, copy_dir, Inputs};
use crate::report::Report;
use crate::spec;
use crate::stats::{median, percentile_of};
use locater_core::cache::GlobalAffinityGraph;
use locater_core::coarse::{
    bootstrap_labels, BootstrapLabel, CoarseLabel, CoarseLocalizer, GapFeatures, NUM_GAP_FEATURES,
};
use locater_core::fine::{AffinityEngine, FineLocalizer, NeighborContribution};
use locater_core::system::{LocateRequest, LocaterConfig, ShardedLocaterService};
use locater_events::{DeviceId, Interval, StoredEvent};
use locater_learn::{Dataset, SelfTrainingClassifier};
use locater_proto::{encode_response, WireRequest, WireResponse};
use locater_server::ServerState;
use locater_store::recovery::{recover_store, write_checkpoint};
use locater_store::{checkpoint_path, Durability, EventStore, FsyncPolicy, ShardWal, WalRecord};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Locate probes taken from the script: at most this many, distinct devices.
const SAMPLE: usize = 300;

fn time_ns<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let start = Instant::now();
    let result = std::hint::black_box(f());
    (start.elapsed().as_nanos() as u64, result)
}

fn median_ns(samples: &[u64]) -> f64 {
    percentile_of(samples, 0.5) as f64
}

/// `(mac, t)` of the ladder's locates, one per device.
fn locate_sample(inputs: &Inputs) -> Vec<(String, i64)> {
    let mut seen = std::collections::HashSet::new();
    inputs
        .ladder
        .iter()
        .filter_map(|request| match request {
            WireRequest::Locate {
                mac: Some(mac), t, ..
            } if seen.insert(mac.clone()) => Some((mac.clone(), *t)),
            _ => None,
        })
        .take(SAMPLE)
        .collect()
}

/// Runs every probe and records its metrics.
pub fn probe(inputs: &Inputs, report: &mut Report) {
    let config = LocaterConfig::default();
    // Every event, also for `ingest_mixed`: its script asks about devices at
    // times the preload alone does not reach.
    let (build_ns, store) = time_ns(|| build_store(&inputs.out, &inputs.out.events));
    report.set(
        "store.build_events_per_s",
        store.num_events() as f64 / (build_ns as f64 / 1e9),
    );
    report.set(
        "store.resident_bytes_per_event",
        store.approx_resident_bytes() as f64 / store.num_events().max(1) as f64,
    );
    let sample: Vec<(DeviceId, i64)> = locate_sample(inputs)
        .iter()
        .filter_map(|(mac, t)| store.device_id(mac).map(|d| (d, *t)))
        .collect();

    coarse_and_fine(&store, &config, &sample, report);
    shard(&store, &config, inputs, &sample, report);
    store_ops(inputs, &store, &sample, report);
    wal(inputs, report);
    recovery(inputs, &store, report);
    dedup_replay(inputs, &store, report);
}

fn coarse_and_fine(
    store: &EventStore,
    config: &LocaterConfig,
    sample: &[(DeviceId, i64)],
    report: &mut Report,
) {
    let coarse = CoarseLocalizer::new(config.coarse);
    let fine = FineLocalizer::new(config.fine);
    let engine = AffinityEngine::new(store, config.fine.weights, config.fine.affinity_window);
    let (mut train, mut classify, mut fit) = (Vec::new(), Vec::new(), Vec::new());
    let (mut neighbors_ns, mut locate_ns, mut pair_ns, mut merge_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut graph = GlobalAffinityGraph::new();
    for &(device, t) in sample {
        let (ns, model) = time_ns(|| coarse.train_device_model(store, device, t));
        train.push(ns);
        if let Some(ns) = fit_building_classifier(store, &coarse, device, t) {
            fit.push(ns);
        }
        let region = match store.gap_at(device, t) {
            Some(gap) => {
                let (ns, outcome) = time_ns(|| coarse.classify_with_model(store, &model, &gap));
                classify.push(ns);
                match outcome.label {
                    CoarseLabel::Inside(region) => Some(region),
                    CoarseLabel::Outside => None,
                }
            }
            None => store.covering_region(device, t),
        };
        let Some(region) = region else { continue };
        let (ns, neighbors) = time_ns(|| fine.candidate_neighbors(store, device, t, region));
        neighbors_ns.push(ns);
        let (ns, outcome) = time_ns(|| fine.locate(store, device, t, region, None));
        locate_ns.push(ns);
        for &(neighbor, _) in neighbors.iter().take(4) {
            pair_ns.push(time_ns(|| engine.pair_affinity(device, neighbor, t)).0);
        }
        let contributions: &[NeighborContribution] = &outcome.contributions;
        if !contributions.is_empty() {
            merge_ns.push(time_ns(|| graph.merge_local(device, contributions, t)).0);
        }
    }
    report.set("core.coarse.train_us", median_ns(&train) / 1e3);
    report.set("core.coarse.classify_ns", median_ns(&classify));
    report.set("learn.fit_us", median_ns(&fit) / 1e3);
    report.set("core.fine.neighbors_us", median_ns(&neighbors_ns) / 1e3);
    report.set("core.fine.locate_us", median_ns(&locate_ns) / 1e3);
    report.set("core.fine.pair_affinity_ns", median_ns(&pair_ns));
    report.set("core.cache.merge_local_ns", median_ns(&merge_ns));
}

/// Times `SelfTrainingClassifier::train` on the device's gap set, assembled
/// exactly as `CoarseLocalizer::train_device_model` assembles the
/// building-level data set. `None` when the gaps carry a single class.
fn fit_building_classifier(
    store: &EventStore,
    coarse: &CoarseLocalizer,
    device: DeviceId,
    until: i64,
) -> Option<u64> {
    let config = coarse.config();
    let history = Interval::new(until - config.history, until);
    let events: Vec<StoredEvent> = store.events_of_in(device, history).copied().collect();
    let mut gaps = store.gaps_of_in(device, history);
    if gaps.len() > config.max_training_gaps {
        gaps.drain(..gaps.len() - config.max_training_gaps);
    }
    let (labels, _) = bootstrap_labels(
        &gaps,
        &events,
        config.tau_low,
        config.tau_high,
        config.region_tau_low,
        config.region_tau_high,
    );
    let mut labeled = Dataset::new(NUM_GAP_FEATURES, 2);
    let mut unlabeled = Vec::new();
    for (gap, label) in gaps.iter().zip(&labels) {
        let features = GapFeatures::extract(gap, &events, history).to_vec();
        match label {
            BootstrapLabel::Inside(_) => labeled.push(features, 0),
            BootstrapLabel::Outside => labeled.push(features, 1),
            BootstrapLabel::Unlabeled => unlabeled.push(features),
        }
    }
    labeled.has_multiple_classes().then(|| {
        time_ns(|| SelfTrainingClassifier::train(&labeled, &unlabeled, &config.self_training)).0
    })
}

/// The sharded facade by itself: its share of a locate, the coarse-only
/// path, shard-count scaling, in-memory and durable ingest, and the batch
/// pipeline at 1 and 2 jobs.
fn shard(
    store: &EventStore,
    config: &LocaterConfig,
    inputs: &Inputs,
    sample: &[(DeviceId, i64)],
    report: &mut Report,
) {
    let service_with = |shards| ShardedLocaterService::new(store.clone(), *config, shards);
    let coarse = CoarseLocalizer::new(config.coarse);
    let fine = FineLocalizer::new(config.fine);

    // Self time: a fresh service answering each device once with the cache
    // bypassed does exactly the work of the three direct calls below it.
    let service = service_with(spec::CONNECTIONS);
    let (mut self_ns, mut coarse_only) = (Vec::new(), Vec::new());
    for &(device, t) in sample {
        let request = LocateRequest::by_device(device, t).bypass_cache();
        let (total, _) = time_ns(|| service.locate(&request));
        let (mut children, outcome) = time_ns(|| coarse.localize(store, device, t));
        if let Ok(CoarseLabel::Inside(region)) = outcome.map(|o| o.label) {
            children += time_ns(|| fine.candidate_neighbors(store, device, t, region)).0;
            children += time_ns(|| fine.locate(store, device, t, region, None)).0;
        }
        self_ns.push(total as f64 - children as f64);
        coarse_only.push(time_ns(|| service.locate_coarse(&request)).0);
    }
    report.set("core.shard.self_us", median(&self_ns) / 1e3);
    report.set("core.shard.locate_coarse_us", median_ns(&coarse_only) / 1e3);

    // The same serial requests at 2 shards and at 1.
    let requests: Vec<LocateRequest> = inputs
        .ladder
        .iter()
        .filter_map(WireRequest::to_locate)
        .take(spec::BATCH_JOBS_SAMPLE)
        .collect();
    let serial_s = |shards| {
        let service = service_with(shards);
        time_ns(|| {
            requests
                .iter()
                .filter(|r| service.locate(r).is_ok())
                .count()
        })
        .0 as f64
            / 1e9
    };
    let (one, two) = (serial_s(1), serial_s(spec::CONNECTIONS));
    report.set(
        "core.shard.s2_over_s1",
        if two > 0.0 { one / two } else { 0.0 },
    );

    // The batch pipeline over the same list at 1 and 2 jobs (time ratio).
    let batch_s = |jobs| {
        let service = service_with(spec::CONNECTIONS);
        time_ns(|| service.locate_batch(&requests, jobs).len()).0 as f64 / 1e9
    };
    let (jobs1, jobs2) = (batch_s(1), batch_s(2));
    report.set(
        "core.batch.jobs2_over_jobs1",
        if jobs2 > 0.0 { jobs1 / jobs2 } else { 0.0 },
    );
    let chunks = (requests.len() as f64 / spec::BATCH_CHUNK as f64).max(1.0);
    report.set("core.batch.chunk_ms", jobs2 * 1e3 / chunks);

    // Ingest through the facade: in memory, then behind a WAL with fsync=always.
    let tail = &inputs.out.events[inputs.out.events.len().saturating_sub(1000)..];
    let head = &inputs.out.events[..inputs.out.events.len() - tail.len()];
    let ingest_us = |service: &ShardedLocaterService| {
        let samples: Vec<u64> = tail
            .iter()
            .map(|e| time_ns(|| service.ingest(&e.mac, e.t, &e.ap).is_ok()).0)
            .collect();
        median_ns(&samples) / 1e3
    };
    let base = build_store(&inputs.out, head);
    let memory = ShardedLocaterService::new(base.clone(), *config, spec::CONNECTIONS);
    report.set("core.shard.ingest_us", ingest_us(&memory));
    let dir = inputs.dir.join("probe-ingest-wal");
    let (durable, _) = ShardedLocaterService::with_durability(
        base,
        *config,
        spec::CONNECTIONS,
        Durability::new(&dir),
    )
    .expect("open the probe WAL");
    report.set("core.shard.ingest_durable_us", ingest_us(&durable));
}

fn store_ops(inputs: &Inputs, store: &EventStore, sample: &[(DeviceId, i64)], report: &mut Report) {
    // In-order appends, with every 25th event held back and inserted late.
    let events = &inputs.out.events[..inputs.out.events.len().min(50_000)];
    let mut fresh = EventStore::new(inputs.out.space.clone());
    let (mut in_order, mut late) = (Vec::new(), Vec::new());
    for (i, e) in events.iter().enumerate() {
        if i % 25 != 24 {
            in_order.push(time_ns(|| fresh.ingest_raw(&e.mac, e.t, &e.ap).is_ok()).0);
        }
    }
    for e in events.iter().skip(24).step_by(25) {
        late.push(time_ns(|| fresh.ingest_raw(&e.mac, e.t, &e.ap).is_ok()).0);
    }
    report.set("store.ingest_raw_ns", median_ns(&in_order));
    report.set("store.ingest_late_ns", median_ns(&late));

    let slack = store.max_delta();
    let near: Vec<u64> = sample
        .iter()
        .map(|&(device, t)| time_ns(|| store.devices_near(t, slack, Some(device)).len()).0)
        .collect();
    report.set("store.devices_near_us", median_ns(&near) / 1e3);

    // One compaction of the oldest three weeks, on a copy.
    let mut copy = store.clone();
    let horizon =
        store.time_span().map_or(0, |span| span.start) + 3 * locater_events::SECONDS_PER_WEEK;
    let (ns, compaction) = time_ns(|| copy.compact(horizon));
    report.set("store.compaction.compact_ms", ns as f64 / 1e6);
    report.set(
        "store.compaction.evicted_events",
        compaction.evicted_events as f64,
    );
}

/// One WAL writer by itself, through the counting backend.
fn wal_run(dir: &Path, fsync: FsyncPolicy, events: usize) -> (IoCounts, Vec<u64>) {
    let _ = std::fs::remove_dir_all(dir);
    let io = Arc::new(CountingIo::default());
    let config = Durability::new(dir).with_fsync(fsync).with_io(io.clone());
    let (mut wal, _) = ShardWal::open(&config, 0).expect("open the probe log");
    let before = io.counts();
    let appends = (0..events as u64)
        .map(|id| {
            let record = WalRecord {
                id,
                t: 1_000 + id as i64,
                ap: 0,
                mac: format!("occupant-{:04}", id % 480),
                request_id: Some((1 << 40) | id),
            };
            time_ns(|| wal.append(&record).expect("append to the probe log")).0
        })
        .collect();
    (io.counts().since(&before), appends)
}

/// `store.wal.*`: append cost without a flush, flush cost, and the exact
/// per-event write, byte and flush counts under `FsyncPolicy::Always` —
/// checked to be one flush per event and to repeat exactly.
pub fn wal(inputs: &Inputs, report: &mut Report) {
    const EVENTS: usize = 1000;
    let dir = inputs.dir.join("probe-wal");
    let (_, unsynced) = wal_run(&dir, FsyncPolicy::EveryN(u64::MAX), EVENTS);
    let (counts, _) = wal_run(&dir, FsyncPolicy::Always, EVENTS);
    let (again, _) = wal_run(&dir, FsyncPolicy::Always, EVENTS);
    let per_event = |n: u64| n as f64 / EVENTS as f64;
    report.set("store.wal.append_ns", median_ns(&unsynced));
    report.set(
        "store.wal.fsync_us",
        counts.sync_ns as f64 / counts.syncs.max(1) as f64 / 1e3,
    );
    report.set("store.wal.bytes_per_event", per_event(counts.bytes));
    report.set("store.wal.fsyncs_per_event", per_event(counts.syncs));
    report.set("store.wal.writes_per_event", per_event(counts.writes));
    report.check(counts.syncs == EVENTS as u64, || {
        format!(
            "fsync=always issued {} flushes for {EVENTS} events",
            counts.syncs
        )
    });
    report.check(
        (counts.writes, counts.bytes, counts.syncs) == (again.writes, again.bytes, again.syncs),
        || format!("WAL I/O counts did not repeat: {counts:?} then {again:?}"),
    );
}

/// `store.recovery.*` and `store.snapshot.load_s` over the prepared WAL
/// directory (a checkpoint plus a log tail).
fn recovery(inputs: &Inputs, store: &EventStore, report: &mut Report) {
    let template = inputs
        .wal_template
        .as_ref()
        .expect("traced runs prepare a WAL template");
    let (load_ns, base) = time_ns(|| {
        let bytes = std::fs::read(checkpoint_path(&template.dir)).expect("read the checkpoint");
        EventStore::from_snapshot_bytes(&bytes).expect("decode the checkpoint")
    });
    report.set("store.recovery.checkpoint_load_s", load_ns as f64 / 1e9);
    let (recover_ns, (_, recovered)) =
        time_ns(|| recover_store(&template.dir, base.clone()).expect("recover the template"));
    let replay_s = (recover_ns.saturating_sub(load_ns)).max(1) as f64 / 1e9;
    report.set(
        "store.recovery.replay_events_per_s",
        recovered.replayed as f64 / replay_s,
    );
    report.check(recovered.replayed as usize == template.tail_events, || {
        format!(
            "recovery replayed {} of {} tail events",
            recovered.replayed, template.tail_events
        )
    });

    let scratch = inputs.dir.join("probe-recovery");
    let (write_ns, _) = time_ns(|| write_checkpoint(&scratch, store).expect("write a checkpoint"));
    report.set("store.recovery.checkpoint_write_s", write_ns as f64 / 1e9);

    // A clean restart: recover, checkpoint (empty tail), then boot again.
    copy_dir(&template.dir, &scratch);
    let boot = || {
        ShardedLocaterService::with_durability(
            EventStore::new(inputs.out.space.clone()),
            LocaterConfig::default(),
            spec::CONNECTIONS,
            Durability::new(&scratch),
        )
        .expect("boot from the WAL directory")
        .0
    };
    let first = boot();
    first.checkpoint().expect("checkpoint before the restart");
    drop(first);
    report.set("store.recovery.restart_s", time_ns(boot).0 as f64 / 1e9);

    let snapshot = inputs.dir.join("probe.snap");
    store.save_snapshot(&snapshot).expect("save a snapshot");
    let (ns, _) = time_ns(|| EventStore::load_snapshot(&snapshot).expect("load the snapshot"));
    report.set("store.snapshot.load_s", ns as f64 / 1e9);
}

/// Cost of answering a retried ingest from the replay-dedup window.
fn dedup_replay(inputs: &Inputs, store: &EventStore, report: &mut Report) {
    let service =
        ShardedLocaterService::new(store.clone(), LocaterConfig::default(), spec::CONNECTIONS);
    let state = ServerState::new(service, None);
    let replays: Vec<u64> = inputs
        .out
        .events
        .iter()
        .rev()
        .take(500)
        .enumerate()
        .map(|(i, e)| {
            let request = WireRequest::Ingest {
                mac: e.mac.clone(),
                t: e.t,
                ap: e.ap.clone(),
                request_id: Some((1 << 41) | i as u64),
            };
            let first = state.execute(&request);
            let (ns, replay) = time_ns(|| state.execute(&request));
            assert_eq!(encode_response(&first), encode_response(&replay));
            assert!(matches!(replay, WireResponse::Ingested { .. }));
            ns
        })
        .collect();
    report.set("server.dedup_replay_ns", median_ns(&replays));
}
