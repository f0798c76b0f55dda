//! What the benchmark runs and reports: the workloads with their fixed
//! operation counts and rates, and the metric lists, which are read from
//! `BENCHMARK.json` itself so they are written down once.
//!
//! Run length is a constant of the benchmark, not of the clock: every phase
//! replays a fixed number of operations. The counts below were sized on the
//! stated machine (2 cores, shared VM) so that the closed-loop phase of a run
//! takes about `run_seconds` there; `--seconds` scales the counts linearly.

use locater_events::clock;
use locater_sim::CampusConfig;
use serde::Deserialize;
use std::sync::OnceLock;

/// The campus and the precision panel are one pinned scenario, whatever
/// `--seed` says: precision and the store's size then repeat exactly from run
/// to run and can be gated tightly. `--seed` draws the request scripts.
pub const SCENARIO_SEED: u64 = 14;
/// Measured equal-count slices per timed phase; every timing is a statistic
/// over them. [`LEAD_IN_SLICES`] more of the same size run first and are not
/// measured: models of the script's devices are trained and threads settle
/// there, so the measured slices are stationary.
pub const SLICES: usize = 40;
pub const LEAD_IN_SLICES: usize = 2;
/// `throughput_rps` is this quantile of the per-slice rates. A neighbour on
/// the shared host only ever slows a slice down, and does so for stretches
/// longer than a run, so the median over slices moves with the host; the
/// fastest slices are the ones that ran undisturbed. Through a noisy hour the
/// median spread 13–26 % between the quartiles of ten runs, the upper decile
/// 7–17 %; through a quiet one both spread 3–12 %. The upper decile rather
/// than the maximum, so that one slice of cheap requests cannot set the result.
pub const THROUGHPUT_QUANTILE: f64 = 0.9;
/// Length of the open-loop phase (traced run only), in seconds.
pub const OPEN_SECONDS: f64 = 4.0;
/// Set-up is repeated this often from identical inputs; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;
/// Closed-loop connections (one thread each) = server workers = shards = `nproc`.
pub const CONNECTIONS: usize = 2;
/// Script requests replayed up the layer ladder in the traced run.
pub const LADDER_REQUESTS: usize = 2000;
/// Cache-disabled wire answers compared against a reference service.
pub const REFERENCE_SAMPLE: usize = 500;
/// Queries per `locate_batch` call in `batch_clean`.
pub const BATCH_CHUNK: usize = 500;
/// Queries compared between `jobs` 1 and 2.
pub const BATCH_JOBS_SAMPLE: usize = 1000;
/// `ingest_mixed`: one request in this many is a `Locate`, the rest `Ingest`.
pub const INGEST_LOCATE_EVERY: usize = 5;
/// `ingest_mixed`: share of ingests that arrive after a later event of their device.
pub const INGEST_LATE_PCT: u64 = 5;
/// `ingest_mixed`: the served log is flushed every this many appends per shard
/// (`FsyncPolicy::EveryN`). Under `fsync=always` 99.8 % of an ingest is the
/// sandbox's `fdatasync` (0.4 µs in memory, 180 µs durable) and throughput
/// follows the host's disk: ten runs spread 19–26 % between their quartiles.
/// The flushes are real; what `always` costs per event is counted exactly by
/// the WAL probe (`store.wal.*`).
pub const INGEST_FSYNC_EVERY: u64 = 64;
/// `ingest_mixed`: `Compact { retain }` cycles inside the closed-loop phase.
/// Buckets are a week wide, so each cycle retains a week less than the last
/// and evicts at least one bucket however short the run.
pub const COMPACT_RETAIN_WEEKS: [i64; 3] = [8, 7, 6];
/// `ingest_mixed`: "now" (first streamed event) and the start of the WAL tail,
/// in weeks after the first event. Weeks 0–2.5 are the checkpoint, 2.5–9 the
/// tail recovery replays (≈ 202k events), 9–13 the live stream.
pub const INGEST_NOW_WEEKS: f64 = 9.0;
pub const INGEST_TAIL_WEEKS: f64 = 6.5;
/// Validity limits: beyond them the run prints a warning.
pub const TREND_LIMIT_PCT: f64 = 10.0;
pub const LATE_SHARE_LIMIT: f64 = 0.01;

/// One metric as `BENCHMARK.json` lists it.
#[derive(Debug, Deserialize)]
pub struct Metric {
    pub name: String,
    pub unit: String,
}

#[derive(Debug, Deserialize)]
struct Named {
    name: String,
}

/// The parts of `BENCHMARK.json` the benchmark itself needs.
#[derive(Debug, Deserialize)]
pub struct Contract {
    /// Nominal length of a run's timed phases, the default of `--seconds`.
    pub run_seconds: u64,
    workloads: Vec<Named>,
    /// What the result line of an untraced run holds, in this order.
    pub end_to_end: Vec<Metric>,
    /// What the result line of a traced run holds.
    pub per_layer: Vec<Metric>,
}

impl Contract {
    pub fn workload_names(&self) -> Vec<&str> {
        self.workloads.iter().map(|w| w.name.as_str()).collect()
    }
}

/// `BENCHMARK.json`, compiled in: the one place metric names and units are written.
pub fn contract() -> &'static Contract {
    static CONTRACT: OnceLock<Contract> = OnceLock::new();
    CONTRACT.get_or_init(|| {
        serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json holds run_seconds, workloads, end_to_end and per_layer")
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeHot,
    ServeCold,
    IngestMixed,
    BatchClean,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeHot,
        Workload::ServeCold,
        Workload::IngestMixed,
        Workload::BatchClean,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve_hot",
            Workload::ServeCold => "serve_cold",
            Workload::IngestMixed => "ingest_mixed",
            Workload::BatchClean => "batch_clean",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether requests travel over loopback TCP (everything but `batch_clean`).
    pub fn serves(self) -> bool {
        self != Workload::BatchClean
    }
}

/// The sizes of one run, fixed by `(workload, --seconds, --smoke)`.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub campus: CampusConfig,
    /// Panel queries per monitored person (the serial warm-up = precision panel).
    pub panel_per_person: usize,
    /// Closed-loop operations, both connections together, lead-in included
    /// (`batch_clean`: queries, a multiple of [`BATCH_CHUNK`]).
    pub closed_ops: usize,
    /// Open-loop arrival rate, requests per second (traced run only).
    pub open_rate: f64,
    /// Open-loop requests; the first of them are a lead-in of the same share
    /// as the closed loop's.
    pub open_ops: usize,
    /// Latency limit of the open-loop phase, for `client.within_limit_share`.
    pub limit_us: u64,
    pub setup_repeats: usize,
    /// Measured slices per phase; [`LEAD_IN_SLICES`] more run before them.
    pub slices: usize,
    pub ladder_requests: usize,
    /// ≈ 1/50 of the work: the outputs are checked, the timings mean nothing.
    pub smoke: bool,
}

impl Plan {
    pub fn new(workload: Workload, seconds: f64, smoke: bool) -> Plan {
        // (closed-loop ops per second of phase, open-loop rate, limit, panel).
        // Open-loop rates are a tenth to a third of what one pipelined
        // connection sustains.
        let (closed_per_s, open_rate, limit_us, panel_per_person) = match workload {
            Workload::ServeHot => (27_000.0, 4_000.0, 2_000, 75),
            Workload::ServeCold => (5_800.0, 450.0, 20_000, 75),
            Workload::IngestMixed => (10_000.0, 700.0, 20_000, 75),
            Workload::BatchClean => (5_900.0, 0.0, 400_000, 150),
        };
        let slices = if smoke { 4 } else { SLICES };
        // A slice holds whole chunks (`batch_clean`) and as many operations
        // on either connection (the others).
        let slice_multiple = if workload.serves() {
            CONNECTIONS
        } else {
            BATCH_CHUNK
        };
        let scale = if smoke { 50.0 } else { 1.0 };
        let per_slice = |ops: f64, multiple: usize| {
            ((ops / scale / slices as f64) as usize / multiple).max(1) * multiple
        };
        let mut plan = Plan {
            campus: CampusConfig::metro(),
            panel_per_person,
            closed_ops: per_slice(closed_per_s * seconds, slice_multiple)
                * (slices + LEAD_IN_SLICES),
            open_rate,
            open_ops: (open_rate * OPEN_SECONDS / scale) as usize,
            limit_us,
            setup_repeats: SETUP_REPEATS,
            slices,
            ladder_requests: LADDER_REQUESTS,
            smoke,
        };
        if smoke {
            // ≈ 1/50 of the work on a tenth of the campus: correctness only.
            plan.campus = CampusConfig {
                access_points: 16,
                population: 48,
                visitors: 12,
                monitored: 8,
                ..CampusConfig::metro()
            };
            plan.panel_per_person = 25;
            plan.setup_repeats = 1;
            plan.ladder_requests = 200;
        }
        plan
    }

    /// Slices a phase is cut into, the unmeasured lead-in included.
    pub fn phase_slices(&self) -> usize {
        self.slices + LEAD_IN_SLICES
    }
}

/// `ingest_mixed`: the timestamp of "now" given the first event's.
pub fn now_t(start: clock::Timestamp) -> clock::Timestamp {
    start + (INGEST_NOW_WEEKS * clock::weeks(1) as f64) as i64
}

/// `ingest_mixed`: where the WAL tail (and the checkpoint's end) lies.
pub fn tail_start_t(start: clock::Timestamp) -> clock::Timestamp {
    now_t(start) - (INGEST_TAIL_WEEKS * clock::weeks(1) as f64) as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_names_the_workloads_and_a_set_up_time() {
        let contract = contract();
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(contract.workload_names(), known);
        assert!(contract.end_to_end.iter().any(|m| m.name == "setup_s"));
        assert!((1..=60).contains(&contract.run_seconds));
    }

    #[test]
    fn plans_scale_with_seconds_and_stay_sliceable() {
        let seconds = contract().run_seconds as f64;
        for workload in Workload::ALL {
            let full = Plan::new(workload, seconds, false);
            let half = Plan::new(workload, seconds / 2.0, false);
            let smoke = Plan::new(workload, seconds, true);
            assert_eq!(full.closed_ops % (full.phase_slices() * CONNECTIONS), 0);
            assert!(half.closed_ops * 2 <= full.closed_ops);
            assert!(smoke.closed_ops * 20 <= full.closed_ops);
            assert_eq!(Workload::parse(workload.name()), Some(workload));
            if workload.serves() {
                assert!(full.open_ops >= 1500, "p99 needs ≥ 10 samples beyond it");
                assert!(smoke.open_ops > 0);
            } else {
                assert_eq!(full.closed_ops % (BATCH_CHUNK * full.phase_slices()), 0);
            }
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
