//! One run of one workload: set-up (repeated), the two timed phases, the
//! correctness checks, and — in the traced run — the layer ladder.

use crate::countio::CountingIo;
use crate::data::{self, build_store, Inputs, PanelQuery, Step};
use crate::harness::{self, ClosedResult, Host, Kind, OpenResult};
use crate::layers;
use crate::report::Report;
use crate::spec::{self, Workload};
use crate::stats::{self, median, percentile_of, Summary};
use crate::trace::{Span, Tracer};
use locater_core::metrics::PrecisionCounts;
use locater_core::system::{CacheMode, LocateRequest, LocaterConfig, ShardedLocaterService};
use locater_proto::{decode_request, encode_request, encode_response, WireRequest, WireResponse};
use locater_store::{Durability, EventStore, FsyncPolicy};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// A service that finished set-up: booted, served and warmed.
pub struct Ready {
    pub host: Host,
    pub precision: PrecisionCounts,
    pub setup_s: f64,
    pub failed: u64,
    /// Events in the store when the timed phases start.
    pub boot_events: usize,
    /// `ingest_mixed`: the WAL directory this instance logs to, and its I/O counters.
    pub wal_dir: Option<PathBuf>,
    pub io: Arc<CountingIo>,
}

/// Set-up: from inputs in memory (or on disk, for the snapshot and WAL boot
/// paths) to ready for the first timed request. Everything between the two
/// `Instant` readings is `setup_s`.
pub fn setup(inputs: &Inputs, instance: usize) -> Ready {
    let config = LocaterConfig::default();
    let io = Arc::new(CountingIo::default());
    let wal_dir = (inputs.workload == Workload::IngestMixed).then(|| {
        let template = inputs
            .wal_template
            .as_ref()
            .expect("ingest_mixed has a WAL");
        let dir = inputs.dir.join(format!("wal-{instance}"));
        data::copy_dir(&template.dir, &dir); // identical bytes for every repeat; untimed
        dir
    });

    let started = Instant::now();
    let mut recovered = None;
    let service = match inputs.workload {
        Workload::ServeHot | Workload::BatchClean => {
            let store = build_store(&inputs.out, inputs.preload());
            ShardedLocaterService::new(store, config, spec::CONNECTIONS)
        }
        Workload::ServeCold => ShardedLocaterService::from_snapshot(
            inputs
                .snapshot
                .as_ref()
                .expect("serve_cold has a boot snapshot"),
            config,
            spec::CONNECTIONS,
        )
        .expect("load the boot snapshot"),
        Workload::IngestMixed => {
            let durability = Durability::new(wal_dir.as_ref().expect("ingest_mixed has a WAL"))
                .with_fsync(FsyncPolicy::EveryN(spec::INGEST_FSYNC_EVERY))
                .with_io(io.clone());
            let (service, report) = ShardedLocaterService::with_durability(
                EventStore::new(inputs.out.space.clone()),
                config,
                spec::CONNECTIONS,
                durability,
            )
            .expect("recover from the WAL directory");
            recovered = Some(report);
            service
        }
    };
    let host = Host::start(service, inputs.workload.serves());
    if let Some(report) = &recovered {
        host.state.seed_dedup_from_recovery(report); // as `serve --wal-dir` boots
    }
    let space = host.service().space();
    let (precision, failed) = if inputs.workload.serves() {
        harness::warm_up_wire(&host.addr, &space, &inputs.panel)
    } else {
        panel_through_batch(host.service(), &inputs.panel)
    };
    let setup_s = started.elapsed().as_secs_f64();

    let boot_events = host.service().num_events();
    Ready {
        host,
        precision,
        setup_s,
        failed,
        boot_events,
        wal_dir,
        io,
    }
}

/// `batch_clean` warm-up: the panel is cleaned through `locate_batch`, the
/// call the timed phase uses.
fn panel_through_batch(
    service: &ShardedLocaterService,
    panel: &[PanelQuery],
) -> (PrecisionCounts, u64) {
    let space = service.space();
    let mut counts = PrecisionCounts::new();
    let mut failed = 0;
    for chunk in panel.chunks(spec::BATCH_CHUNK) {
        let requests: Vec<LocateRequest> = chunk
            .iter()
            .map(|q| LocateRequest::by_mac(q.mac.clone(), q.t))
            .collect();
        for (query, response) in chunk
            .iter()
            .zip(service.locate_batch(&requests, spec::CONNECTIONS))
        {
            match response {
                Ok(response) => counts.record(&space, query.truth, &response.answer.location),
                Err(_) => failed += 1,
            }
        }
    }
    (counts, failed)
}

/// The untraced run: end-to-end metrics and the validity gauges.
/// `heap_floor` is the heap the generated inputs held when generation ended.
pub fn untraced(inputs: &Inputs, heap_floor: f64, report: &mut Report) {
    let mut setups = Vec::new();
    let mut ready = None;
    for instance in 0..inputs.plan.setup_repeats {
        if let Some(previous) = ready.take() {
            stop(previous, report);
        }
        let instance = setup(inputs, instance);
        setups.push(instance.setup_s);
        ready = Some(instance);
    }
    let ready = ready.expect("at least one set-up");
    let summary = Summary::of(&setups);
    println!(
        "setup_s over {} repeats: min {:.3} q1 {:.3} median {:.3} q3 {:.3} max {:.3}",
        setups.len(),
        summary.min,
        summary.q1,
        summary.median,
        summary.q3,
        summary.max
    );
    report.set("setup_s", summary.median);
    record_precision(&ready, inputs, report);

    let phases = timed_phases(inputs, &ready, false, report);
    // The served instance is alive, the phases' own records are gone.
    let heap = harness::heap_mib() - heap_floor;
    println!(
        "heap in use: {heap:.1} MiB above the {heap_floor:.1} MiB of generated inputs; \
         resident set, inputs included: {:.1} MiB at its peak",
        harness::rss_peak_mib()
    );
    report.set("heap_mb", heap);
    checks(inputs, ready, &phases, report);
    if inputs.workload == Workload::IngestMixed {
        // The exact flush-per-event check (the traced run has it among its probes).
        layers::wal(inputs, report);
    }
}

fn record_precision(ready: &Ready, inputs: &Inputs, report: &mut Report) {
    report.count(inputs.panel.len() as u64, ready.failed);
    report.check(ready.precision.queries == inputs.panel.len(), || {
        format!(
            "the panel scored {} of {} queries",
            ready.precision.queries,
            inputs.panel.len()
        )
    });
    report.set("coarse_precision", ready.precision.pc());
    report.set("fine_precision", ready.precision.pf());
}

fn stop(ready: Ready, report: &mut Report) {
    if let Err(message) = ready.host.stop() {
        report.problems.push(message);
    }
}

/// What the checks need of the timed phases. The per-operation records are
/// dropped with the phases, before memory is read.
pub struct Phases {
    /// Ingests the server acknowledged, both phases together.
    acked: usize,
    /// Events the compaction cycles aged out.
    evicted: usize,
    /// Closed-loop spans (traced run only).
    spans: Vec<Span>,
}

/// The timed phases. Serving workloads: the closed loop, which every run
/// measures, and the open loop, which only the traced run adds — its latencies
/// are per-layer metrics. `batch_clean`: the chunked `locate_batch` loop, which
/// gives throughput and per-call latency at once.
fn timed_phases(inputs: &Inputs, ready: &Ready, traced: bool, report: &mut Report) -> Phases {
    let plan = &inputs.plan;
    let (closed, open) = if inputs.workload.serves() {
        // The traced run needs the closed loop for its per-layer gauges only
        // and replays the first half of every script.
        let scripts: Vec<&[Step]> = inputs
            .closed
            .iter()
            .map(|script| {
                if traced {
                    first_half(script)
                } else {
                    &script[..]
                }
            })
            .collect();
        let closed = harness::closed_loop(&ready.host.addr, &scripts, plan.phase_slices(), traced);
        let open = if traced {
            harness::open_loop(&ready.host.addr, &inputs.open, plan.open_rate)
        } else {
            OpenResult::default()
        };
        (closed, open)
    } else {
        batch_phase(inputs, ready, traced)
    };
    report.count(
        closed.attempted + open.attempted,
        closed.failed + open.failed,
    );

    // Throughput: the upper decile over equal-count slices of the completion
    // sequence, the lead-in slices left out.
    let done: Vec<u64> = closed.records.iter().map(|r| r.done_ns).collect();
    let per_op = if inputs.workload.serves() {
        1.0
    } else {
        spec::BATCH_CHUNK as f64
    };
    let per_slice: Vec<f64> = stats::slice_throughput(&done, plan.phase_slices())
        .into_iter()
        .skip(spec::LEAD_IN_SLICES)
        .map(|rate| rate * per_op)
        .collect();
    let throughput = Summary::of(&per_slice);
    print_summary("throughput_rps", &throughput, &per_slice);
    report.set(
        "throughput_rps",
        stats::quantile_of(&per_slice, spec::THROUGHPUT_QUANTILE),
    );
    report.set("harness.slice_spread_pct", throughput.spread_pct());
    let trend = stats::trend_pct(&per_slice);
    report.set("harness.slice_trend_pct", trend);
    let ops = closed.records.len() as f64 * per_op;
    report.set("harness.cpu_us_per_op", closed.cpu_s * 1e6 / ops.max(1.0));
    println!(
        "closed loop: {} ops in {:.3} s; open loop: {} ops in {:.3} s",
        closed.records.len(),
        closed.wall_s,
        open.lat_ns.len(),
        open.wall_s
    );
    if !plan.smoke && !traced {
        // What a measured phase must look like for a statistic over its
        // slices to mean something. A warning, not a failed check: on a
        // shared host the gauge trips now and then, and the outputs are
        // still correct. (The traced run's half phase is not what is gated.)
        report.warn(trend.abs() > spec::TREND_LIMIT_PCT, || {
            format!(
                "closed-loop throughput drifted {trend:+.1} % from the first to the last third \
                 of the measured slices (limit ±{} %): the phase was not stationary",
                spec::TREND_LIMIT_PCT
            )
        });
    }

    // client.*: latency from the due time (open loop; `batch_clean`: per call)
    // after the lead-in, and the closed loop's per-kind tails.
    let p = |values: &[u64], q: f64| percentile_of(values, q) as f64 / 1e3;
    let closed_lat = |kind: Kind| -> Vec<u64> {
        closed
            .records
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.lat_ns)
            .collect()
    };
    report.set("client.locate_p90_us", p(&closed_lat(Kind::Locate), 0.9));
    report.set("client.ingest_p90_us", p(&closed_lat(Kind::Ingest), 0.9));
    report.set("client.retries", closed.retries as f64);
    report.set(
        "client.reconnects",
        closed.connects.saturating_sub(inputs.closed.len() as u64) as f64,
    );
    report.check(closed.retries == 0, || {
        format!("{} client retries", closed.retries)
    });
    if !open.lat_ns.is_empty() {
        let open_lat =
            stats::after_lead_in(&open.lat_ns, plan.phase_slices(), spec::LEAD_IN_SLICES);
        for (name, q) in [
            ("client.latency_p50_us", 0.5),
            ("client.latency_p90_us", 0.9),
            ("client.latency_p99_us", 0.99),
        ] {
            report.set(name, p(open_lat, q));
        }
        let within = open_lat
            .iter()
            .filter(|&&l| l <= plan.limit_us * 1000)
            .count();
        report.set(
            "client.within_limit_share",
            within as f64 / open_lat.len() as f64,
        );
    }
    if traced {
        // The generator's own punctuality (`batch_clean` paces nothing: 0).
        let send_lag =
            stats::after_lead_in(&open.send_lag_ns, plan.phase_slices(), spec::LEAD_IN_SLICES);
        let interval_ns = 1e9 / plan.open_rate;
        let late = send_lag
            .iter()
            .filter(|&&lag| lag as f64 > interval_ns)
            .count();
        let late_share = late as f64 / send_lag.len().max(1) as f64;
        report.set("harness.sched_lag_p99_us", p(send_lag, 0.99));
        report.set("harness.sched_late_share", late_share);
        report.warn(!plan.smoke && late_share > spec::LATE_SHARE_LIMIT, || {
            format!(
                "{:.1} % of the open-loop requests were sent more than one interval late \
                 (limit {} %): the generator did not keep its schedule",
                late_share * 100.0,
                spec::LATE_SHARE_LIMIT * 100.0
            )
        });
    }

    // Compaction as the foreground saw it: how long the barrier held it.
    let stall = closed
        .barrier_windows
        .iter()
        .map(|(s, e)| e - s)
        .max()
        .unwrap_or(0);
    report.set("store.compaction.stall_max_us", stall as f64 / 1e3);
    if inputs.workload == Workload::IngestMixed {
        let cycles = closed.compactions.len();
        let expected = if traced {
            1
        } else {
            spec::COMPACT_RETAIN_WEEKS.len()
        };
        report.check(cycles == expected, || {
            format!("{cycles} of {expected} compaction cycles ran")
        });
        let effective = closed.compactions.last().map_or(0, |c| c.runs);
        report.check(effective as usize == cycles, || {
            format!("only {effective} of {cycles} compaction cycles evicted anything")
        });
    }

    // Tracing overhead: closed-loop rate is the inverse of latency, so compare
    // the median latency of the span-recording slices with that of the others.
    if traced {
        let median_lat = |want: bool| {
            let lat: Vec<u64> = closed
                .records
                .iter()
                .filter(|r| r.traced == want)
                .map(|r| r.lat_ns)
                .collect();
            percentile_of(&lat, 0.5) as f64
        };
        let (plain, with_spans) = (median_lat(false), median_lat(true));
        let overhead = if plain > 0.0 && with_spans > 0.0 {
            (with_spans - plain) / plain * 100.0
        } else {
            0.0
        };
        report.set("harness.trace_overhead_pct", overhead);
    }
    let acked = closed
        .records
        .iter()
        .filter(|r| r.kind == Kind::Ingest)
        .count()
        + inputs
            .open
            .iter()
            .zip(&open.lat_ns)
            .filter(|(request, lat)| harness::kind_of(request) == Kind::Ingest && **lat != u64::MAX)
            .count();
    Phases {
        acked,
        evicted: closed.compactions.last().map_or(0, |c| c.evicted_events) as usize,
        spans: closed.spans,
    }
}

/// The head of a closed-loop script: up to (not including) its middle barrier
/// when it has barriers — so every connection keeps the same number of them —
/// else its first half.
fn first_half(script: &[Step]) -> &[Step] {
    let barriers: Vec<usize> = script
        .iter()
        .enumerate()
        .filter_map(|(i, step)| matches!(step, Step::Barrier(_)).then_some(i))
        .collect();
    let end = barriers
        .get(barriers.len() / 2)
        .copied()
        .unwrap_or(script.len() / 2);
    &script[..end]
}

fn print_summary(what: &str, s: &Summary, per_slice: &[f64]) {
    let series: Vec<String> = per_slice.iter().map(|v| format!("{v:.0}")).collect();
    println!(
        "{what} per slice: min {:.1} q1 {:.1} median {:.1} q3 {:.1} max {:.1} | {}",
        s.min,
        s.q1,
        s.median,
        s.q3,
        s.max,
        series.join(" ")
    );
}

/// `batch_clean`: the query list through `locate_batch(chunk, jobs = 2)`.
/// Each chunk is one "operation": its completion time feeds throughput, its
/// duration is the per-call latency.
fn batch_phase(inputs: &Inputs, ready: &Ready, traced: bool) -> (ClosedResult, OpenResult) {
    // As on the serving workloads, the traced run replays the first half.
    let script = &inputs.closed[0];
    let requests: Vec<LocateRequest> = script[..script.len() / if traced { 2 } else { 1 }]
        .iter()
        .filter_map(|step| match step {
            Step::Request(request) => request.to_locate(),
            Step::Barrier(_) => None,
        })
        .collect();
    let service = ready.host.service();
    let mut closed = ClosedResult::default();
    let mut open = OpenResult::default();
    let cpu_before = harness::cpu_seconds();
    let origin = Instant::now();
    for chunk in requests.chunks(spec::BATCH_CHUNK) {
        let start_ns = origin.elapsed().as_nanos() as u64;
        let answers = service.locate_batch(chunk, spec::CONNECTIONS);
        let done_ns = origin.elapsed().as_nanos() as u64;
        closed.attempted += chunk.len() as u64;
        let wrong = answers
            .iter()
            .zip(chunk)
            .filter(|(answer, request)| !matches!(answer, Ok(a) if a.answer.t == request.t))
            .count();
        closed.failed += wrong as u64;
        closed.records.push(harness::OpRecord {
            done_ns,
            lat_ns: done_ns - start_ns,
            kind: Kind::Locate,
            traced: false,
        });
        open.lat_ns.push(done_ns - start_ns);
    }
    closed.wall_s = origin.elapsed().as_secs_f64();
    closed.cpu_s = harness::cpu_seconds() - cpu_before;
    (closed, open)
}

/// Correctness checks that need the served instance; consumes (and stops) it.
fn checks(inputs: &Inputs, ready: Ready, phases: &Phases, report: &mut Report) {
    let service = ready.host.service();
    let (acked, evicted) = (phases.acked, phases.evicted);

    // Stats.events = preload + acked ingests (− what compaction aged out).
    let stats = if inputs.workload.serves() {
        match harness::client(&ready.host.addr, 0).request(&WireRequest::Stats) {
            Ok(WireResponse::Stats(stats)) => stats,
            other => {
                report
                    .problems
                    .push(format!("stats request failed: {other:?}"));
                ready.host.state.stats()
            }
        }
    } else {
        ready.host.state.stats()
    };
    report.check(stats.events + evicted == ready.boot_events + acked, || {
        format!(
            "stats.events {} + evicted {evicted} != boot {} + acked {acked}",
            stats.events, ready.boot_events
        )
    });
    report.check(stats.deduped == 0, || {
        format!("{} requests were deduped", stats.deduped)
    });
    if ready.wal_dir.is_some() {
        // Counted from outside, through `Durability::with_io`: every acked
        // ingest was written before its ack, and each shard's log flushed
        // once per `INGEST_FSYNC_EVERY` appends (compaction checkpoints add a few).
        let io = ready.io.counts();
        println!(
            "wal while serving: {} writes, {} bytes, {} flushes for {acked} acked ingests",
            io.writes, io.bytes, io.syncs
        );
        let due =
            (acked as u64 / spec::INGEST_FSYNC_EVERY).saturating_sub(spec::CONNECTIONS as u64);
        report.check(io.writes as usize >= acked && io.syncs >= due, || {
            format!(
                "{} writes and {} flushes for {acked} acked ingests under fsync=every {}",
                io.writes,
                io.syncs,
                spec::INGEST_FSYNC_EVERY
            )
        });
    }
    report.set(
        "server.rejected_overloaded",
        stats.rejected_overloaded as f64,
    );
    report.set("server.degraded", stats.degraded as f64);
    report.set("server.deduped", stats.deduped as f64);
    report.check(
        stats.rejected_overloaded + stats.degraded + stats.panics == 0,
        || {
            format!(
                "server refused or degraded work: overloaded {} degraded {} panics {}",
                stats.rejected_overloaded, stats.degraded, stats.panics
            )
        },
    );
    let (edges, samples) = service.cache_stats();
    report.set("core.cache.edges", edges as f64);
    report.set("core.cache.samples", samples as f64);

    // Sampled cache-disabled answers against a reference service built from
    // the same events. Models are dropped on the served side first, so both
    // sides train the same models in the same order.
    let reference = ShardedLocaterService::new(
        service.store_snapshot(),
        LocaterConfig::default(),
        spec::CONNECTIONS,
    );
    service.clear_cache();
    let locates: Vec<&WireRequest> = inputs
        .closed
        .iter()
        .flatten()
        .filter_map(|step| match step {
            Step::Request(request @ WireRequest::Locate { .. }) => Some(request),
            _ => None,
        })
        .collect();
    let stride = (locates.len() / spec::REFERENCE_SAMPLE).max(1);
    let mut client = harness::client(&ready.host.addr, 0);
    let mut mismatches = 0;
    let mut sampled = 0u64;
    for request in locates.iter().step_by(stride).take(spec::REFERENCE_SAMPLE) {
        let typed = request
            .to_locate()
            .expect("a locate")
            .with_cache(CacheMode::Disabled);
        let served = if inputs.workload.serves() {
            client.request(&WireRequest::locate(&typed)).ok()
        } else {
            service
                .locate(&typed)
                .ok()
                .map(|r| WireResponse::located(&r))
        };
        let expected = reference.locate(&typed).map(|r| WireResponse::located(&r));
        sampled += 1;
        match (served, expected) {
            (Some(served), Ok(expected)) if answer_bytes(&served) == answer_bytes(&expected) => {}
            _ => mismatches += 1,
        }
    }
    report.count(sampled, mismatches);
    report.check(mismatches == 0, || {
        format!("{mismatches} of {sampled} sampled answers differ from the reference service")
    });

    match inputs.workload {
        Workload::IngestMixed => restart_check(inputs, ready, reference, report),
        Workload::BatchClean => {
            jobs_check(inputs, &reference, report);
            stop(ready, report);
        }
        _ => stop(ready, report),
    }
}

/// The answer part of a `Located` frame (epoch and event count zeroed: a
/// reference built from a store copy starts its epochs afresh).
fn answer_bytes(response: &WireResponse) -> String {
    match response {
        WireResponse::Located {
            answer, degraded, ..
        } => encode_response(&WireResponse::Located {
            answer: answer.clone(),
            device_epoch: 0,
            events_seen: 0,
            degraded: *degraded,
        }),
        other => encode_response(other),
    }
}

/// `ingest_mixed` after the phases: drain, restart from the WAL directory, and
/// compare the recovered service with one that never restarted.
fn restart_check(
    inputs: &Inputs,
    ready: Ready,
    reference: ShardedLocaterService,
    report: &mut Report,
) {
    let wal_dir = ready.wal_dir.clone().expect("ingest_mixed has a WAL");
    let live_events = ready.host.service().num_events();
    if let Err(message) = ready.host.stop() {
        report.problems.push(message);
    }
    let (recovered, _) = ShardedLocaterService::with_durability(
        EventStore::new(inputs.out.space.clone()),
        LocaterConfig::default(),
        spec::CONNECTIONS,
        Durability::new(&wal_dir),
    )
    .expect("restart from the WAL directory");
    report.check(recovered.num_events() == live_events, || {
        format!(
            "recovered {} events, {} were acked and live",
            recovered.num_events(),
            live_events
        )
    });
    // `reference` still holds the models the sampled check trained.
    reference.clear_cache();
    let mut differing = 0;
    for query in &inputs.panel {
        let request = LocateRequest::by_mac(query.mac.clone(), query.t);
        let bytes = |service: &ShardedLocaterService| {
            service
                .locate(&request)
                .map(|r| encode_response(&WireResponse::located(&r)))
                .ok()
        };
        if bytes(&recovered) != bytes(&reference) {
            differing += 1;
        }
    }
    report.count(inputs.panel.len() as u64, differing);
    report.check(differing == 0, || {
        format!("{differing} panel answers differ between the recovered and the never-restarted service")
    });
}

/// `batch_clean`: a sample of the list answers identically at `jobs` 1 and 2.
fn jobs_check(inputs: &Inputs, reference: &ShardedLocaterService, report: &mut Report) {
    let requests: Vec<LocateRequest> = inputs
        .ladder
        .iter()
        .chain(inputs.closed[0].iter().filter_map(|step| match step {
            Step::Request(request) => Some(request),
            Step::Barrier(_) => None,
        }))
        .filter_map(WireRequest::to_locate)
        .take(spec::BATCH_JOBS_SAMPLE)
        .collect();
    let store = reference.store_snapshot();
    let answers = |jobs: usize| -> Vec<Option<String>> {
        ShardedLocaterService::new(store.clone(), LocaterConfig::default(), spec::CONNECTIONS)
            .locate_batch(&requests, jobs)
            .into_iter()
            .map(|r| r.ok().map(|r| encode_response(&WireResponse::located(&r))))
            .collect()
    };
    let (one, two) = (answers(1), answers(2));
    let differing = one
        .iter()
        .zip(&two)
        .filter(|(a, b)| a != b || a.is_none())
        .count() as u64;
    report.count(requests.len() as u64, differing);
    report.check(differing == 0, || {
        format!("{differing} answers differ between jobs=1 and jobs=2")
    });
}

/// The traced run: the layer ladder, the direct-call probes, then the same
/// phases with spans recorded in every other slice.
pub fn traced(inputs: &Inputs, report: &mut Report) {
    let mut tracer = Tracer::new();
    ladder(inputs, &mut tracer, report);
    layers::probe(inputs, report);

    let ready = setup(inputs, 3);
    record_precision(&ready, inputs, report);
    let phases = timed_phases(inputs, &ready, true, report);
    report.set("harness.rss_peak_mb", harness::rss_peak_mib());
    for span in &phases.spans {
        tracer.push(*span);
    }
    checks(inputs, ready, &phases, report);

    let path = inputs
        .dir
        .parent()
        .expect("out/")
        .join(format!("trace-{}.json", inputs.workload.name()));
    match std::fs::write(&path, tracer.to_json()) {
        Ok(()) => println!("wrote {} spans to {}", tracer.spans().len(), path.display()),
        Err(e) => report
            .problems
            .push(format!("write {}: {e}", path.display())),
    }
}

/// Replays the requests that follow the script's lead-in serially up the
/// rungs, each on an identically rebuilt service that has executed the lead-in
/// (in process: the state it leaves does not depend on the path), so every
/// rung does the same per-request work as the measured slices:
/// (d) over loopback TCP through `RetryClient`; (c) in process, as a worker
/// handles a frame — decode, `ServerState::execute`, encode — with the codec
/// (a) as child spans; (b) straight into `ShardedLocaterService`.
fn ladder(inputs: &Inputs, tracer: &mut Tracer, report: &mut Report) {
    let requests = &inputs.ladder;
    let frames: Vec<String> = requests.iter().map(encode_request).collect();
    let mut failed = 0u64;
    // Rung (d), plus the transport floor: pings on the same connection.
    let ready = rung(inputs, 0, &mut failed);
    let serving = inputs.workload.serves();
    let ladder_host = if serving { None } else { Some(rebind(&ready)) };
    let addr = ladder_host
        .as_ref()
        .map_or(ready.host.addr.clone(), |h| h.addr.clone());
    let mut client = harness::client(&addr, 0);
    let pings: Vec<u64> = (0..requests.len().min(1000))
        .map(|_| {
            let start = Instant::now();
            failed += u64::from(client.request(&WireRequest::Ping).is_err());
            start.elapsed().as_nanos() as u64
        })
        .collect();
    report.set(
        "server.ping_rtt_us",
        percentile_of(&pings, 0.5) as f64 / 1e3,
    );
    for (i, request) in requests.iter().enumerate() {
        let (_, ok) = tracer.span(
            "client.request",
            None,
            i as u32,
            |_| matches!(client.request(request), Ok(ref r) if harness::reply_matches(request, r)),
        );
        failed += u64::from(!ok);
    }
    drop(client);
    if let Some(host) = ladder_host {
        if let Err(message) = host.stop() {
            report.problems.push(message);
        }
    }
    stop(ready, report);

    // Rung (c) with rung (a) inside it.
    let ready = rung(inputs, 1, &mut failed);
    let mut response_bytes = Vec::new();
    for (i, frame) in frames.iter().enumerate() {
        let request_index = i as u32;
        let (_, ok) = tracer.span("server.handle", None, request_index, |tracer| {
            let parent = Some(tracer.spans().len() as u32 - 1);
            let (_, request) = tracer.span("proto.decode_request", parent, request_index, |_| {
                decode_request(frame)
            });
            let Ok(request) = request else { return false };
            let (_, response) = tracer.span("server.execute", parent, request_index, |_| {
                ready.host.state.execute(&request)
            });
            let (_, encoded) = tracer.span("proto.encode_response", parent, request_index, |_| {
                encode_response(&response)
            });
            response_bytes.push(encoded.len() as u64 + 1);
            harness::reply_matches(&request, &response)
        });
        failed += u64::from(!ok);
    }
    stop(ready, report);

    // Rung (b), with diagnostics for the exact per-query ratios.
    let ready = rung(inputs, 2, &mut failed);
    let service = ready.host.service();
    let (mut locates, mut reused, mut warm, mut fine_steps, mut processed, mut stopped) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for (i, request) in requests.iter().enumerate() {
        match request {
            WireRequest::Ingest {
                mac,
                t,
                ap,
                request_id,
            } => {
                let (_, ok) = tracer.span("core.shard.ingest", None, i as u32, |_| {
                    service.ingest_tagged(mac, *t, ap, *request_id).is_ok()
                });
                failed += u64::from(!ok);
            }
            _ => {
                let typed = request
                    .to_locate()
                    .expect("scripts hold ingests and locates")
                    .with_diagnostics();
                let (_, response) = tracer.span("core.shard.locate", None, i as u32, |_| {
                    service.locate(&typed)
                });
                let Ok(response) = response else {
                    failed += 1;
                    continue;
                };
                let diagnostics = response.diagnostics.expect("diagnostics were requested");
                locates += 1;
                reused += u64::from(diagnostics.coarse_model_reused);
                warm += u64::from(diagnostics.cache_warm);
                if let Some(fine) = diagnostics.fine {
                    fine_steps += 1;
                    processed += fine.neighbors_processed as u64;
                    stopped += u64::from(fine.stopped_early);
                }
            }
        }
    }
    stop(ready, report);
    report.count(
        3 * (inputs.ladder_lead_in.len() + requests.len()) as u64 + pings.len() as u64,
        failed,
    );

    let ratio = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    report.set("core.coarse.model_reuse_ratio", ratio(reused, locates));
    report.set("core.cache.warm_ratio", ratio(warm, locates));
    report.set(
        "core.fine.neighbors_processed",
        ratio(processed, fine_steps),
    );
    report.set("core.fine.stopped_early_ratio", ratio(stopped, fine_steps));

    // Medians per rung, and self times by per-request subtraction.
    let med = |name: &str| percentile_of(&tracer.durations_ns(name), 0.5) as f64;
    let rung_d = tracer.durations_ns("client.request");
    let rung_c = tracer.durations_ns("server.handle");
    let exec = tracer.durations_ns("server.execute");
    let rung_b: Vec<u64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "core.shard.locate" || s.name == "core.shard.ingest")
        .map(|s| s.duration_ns())
        .collect();
    let diff = |upper: &[u64], lower: &[u64]| -> f64 {
        let per_request: Vec<f64> = upper
            .iter()
            .zip(lower)
            .map(|(u, l)| *u as f64 - *l as f64)
            .collect();
        median(&per_request)
    };
    let wire_self = diff(&rung_d, &rung_c);
    let exec_self = diff(&exec, &rung_b);
    let codec = med("proto.decode_request") + med("proto.encode_response");
    let glue = percentile_of(&tracer.self_times_ns("server.handle"), 0.5) as f64;
    let engine = percentile_of(&rung_b, 0.5) as f64;
    let top = percentile_of(&rung_d, 0.5) as f64;
    report.set("proto.decode_request_ns", med("proto.decode_request"));
    report.set("proto.encode_response_ns", med("proto.encode_response"));
    let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
    report.set(
        "proto.request_bytes",
        mean(
            &frames
                .iter()
                .map(|f| f.len() as u64 + 1)
                .collect::<Vec<_>>(),
        ),
    );
    report.set("proto.response_bytes", mean(&response_bytes));
    report.set("server.wire_self_us", wire_self / 1e3);
    report.set("server.exec_self_us", exec_self / 1e3);
    report.set("core.shard.locate_us", med("core.shard.locate") / 1e3);
    report.set(
        "harness.reconcile_pct",
        if top > 0.0 {
            (wire_self + codec + glue + exec_self + engine - top) / top * 100.0
        } else {
            0.0
        },
    );
    let total = |v: &[u64]| v.iter().sum::<u64>() as f64;
    println!(
        "ladder over {} requests (median µs): tcp {:.1} | handle {:.1} = codec {:.1} + glue {:.2} + execute {:.1} | service {:.1} \
         ({:.1} % of tcp by medians, {:.1} % by total time)",
        requests.len(),
        top / 1e3,
        percentile_of(&rung_c, 0.5) as f64 / 1e3,
        codec / 1e3,
        glue / 1e3,
        med("server.execute") / 1e3,
        engine / 1e3,
        if top > 0.0 { engine / top * 100.0 } else { 0.0 },
        total(&rung_b) / total(&rung_d).max(1.0) * 100.0,
    );
}

/// A fresh instance for one rung of the ladder, the script's lead-in executed.
fn rung(inputs: &Inputs, instance: usize, failed: &mut u64) -> Ready {
    let ready = setup(inputs, instance);
    for request in &inputs.ladder_lead_in {
        let response = ready.host.state.execute(request);
        *failed += u64::from(!harness::reply_matches(request, &response));
    }
    ready
}

/// `batch_clean` serves nothing; its ladder still needs the wire rungs, so
/// the warmed service's events are served from a second instance.
fn rebind(ready: &Ready) -> Host {
    let service = ShardedLocaterService::new(
        ready.host.service().store_snapshot(),
        LocaterConfig::default(),
        spec::CONNECTIONS,
    );
    Host::start(service, true)
}
