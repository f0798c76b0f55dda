//! `locater-cli` — command-line front end for the LOCATER cleaning engine.
//!
//! The CLI covers the operational loop of a deployment without writing any Rust:
//! inspect a connectivity log, clean individual queries, batch-clean a whole query
//! file, and generate synthetic datasets to experiment with.
//!
//! ```text
//! locater-cli stats    <space.json> <events.csv>
//! locater-cli locate   <space.json> <events.csv> <mac> <timestamp> [--dependent] [--no-cache]
//! locater-cli batch    <space.json> <events.csv> <queries.csv> [--dependent] [--no-cache] [--jobs N]
//! locater-cli serve    <space.json> [<events.csv>] [--dependent] [--no-cache] [--shards N]
//! locater-cli serve    --snapshot <store.snap> [--dependent] [--no-cache] [--shards N]
//! locater-cli serve    ... [--queue N] [--drain-snapshot PATH]
//! locater-cli serve    ... --listen <addr> [--workers N] [--idle-timeout SECS]
//! locater-cli serve    ... --wal-dir <dir> [--fsync always|every=N] [--wal-segment-bytes N]
//! locater-cli serve    ... --retain SECS [--spill-dir DIR] [--listen <addr> --compact-interval SECS]
//! locater-cli request  <addr> [--retries N] <verb line or raw JSON frame>
//! locater-cli compact  <store.snap> (--retain SECS | --horizon T) [--spill-dir DIR] [--out PATH]
//! locater-cli snapshot save <space.json> <events.csv> <out.snap>
//! locater-cli snapshot load <store.snap>
//! locater-cli wal inspect  <wal-dir>
//! locater-cli wal truncate <wal-dir>
//! locater-cli simulate campus|metro_campus|office|university|mall|airport <out-prefix> [--days N] [--seed N]
//! ```
//!
//! * `space.json` is the [`SpaceMetadata`] format
//!   (AP coverage, public rooms, room owners, preferred rooms).
//! * `events.csv` / `queries.csv` are `mac,timestamp,ap` and `mac,timestamp` files.
//! * `snapshot save` ingests a CSV log once (estimating validity periods) and
//!   persists the whole store — space, device table, event runs — as one
//!   versioned binary file; `snapshot load` verifies and summarizes it; and
//!   `serve --snapshot` cold-starts the live service from it without replaying
//!   the CSV.
//! * `simulate metro_campus` generates the large metropolitan-campus corpus
//!   (`CampusConfig::metro`: 64 APs, 13 weeks unless `--days` says otherwise).
//! * `batch` runs every row through the parallel map that answers all queries
//!   (`ShardedLocaterService::locate_batch` through the typed request layer,
//!   on one shard: a batch never ingests, so more shards would only add
//!   routing): every row is answered against the same state of the affinity
//!   cache, so the output is deterministic and identical for every `--jobs`
//!   value (earlier CLI releases answered rows one by one, progressively
//!   warming the cache, so row-level confidences could differ from today's
//!   output).
//! * `serve` starts a live [`ShardedLocaterService`] (`--shards N`, default
//!   1). Without `--listen` it reads requests from stdin — raw NDJSON
//!   [`WireRequest`] frames or the verb shorthand (`ingest <mac,timestamp,ap>`,
//!   `locate <mac> <timestamp>`, `stats`, `compact [retain-seconds]`,
//!   `ping`, `snapshot <path>`, `shutdown`, `quit`;
//!   `locater_proto::parse_repl_line`) — and prints one NDJSON response frame
//!   per request: the REPL is the wire protocol over stdio. With
//!   `--listen <addr>` it serves the same protocol over TCP
//!   ([`locater::server::Server`]): pipelined NDJSON frames, bounded admission
//!   (`--queue`, explicit `overloaded` responses), idle timeouts, and graceful
//!   drain + `--drain-snapshot` on SIGTERM or a `shutdown` request. The
//!   `stats` frame carries totals, one entry per shard and the serving-layer
//!   counters (see `docs/OPERATIONS.md`); answers are byte-identical for
//!   every `--shards` value. `--workers`, `--idle-timeout` and
//!   `--compact-interval` are `--listen`-only and refused without it;
//!   `--queue` (which also sizes the replay-dedup window) and
//!   `--drain-snapshot` apply over stdio too.
//! * `serve --wal-dir` makes ingests durable: every accepted event is framed
//!   into a per-shard write-ahead log before it mutates the store, a crash is
//!   recovered on the next boot (checkpoint snapshot + WAL tail replay up to
//!   any torn final frame; the boot checkpoint then replaces the log), and a
//!   graceful drain checkpoints so a clean shutdown leaves an empty tail.
//!   `--fsync` picks the durability/throughput trade-off (`always` per
//!   record, `every=N` records); `--wal-segment-bytes` bounds segment files
//!   before rotation.
//! * `wal inspect` reports a WAL directory read-only — checkpoint, segments,
//!   frame counts, id ranges, damage; `wal truncate` repairs a damaged log by
//!   discarding everything from the first invalid frame onward (needed only
//!   when damage sits before a shard's final segment, where recovery refuses).
//! * `serve --retain SECS` bounds the hot tier: history older than the
//!   retention (measured from the event-time watermark) is compacted away —
//!   with `--spill-dir` spilled as reloadable snapshot files (one per run,
//!   never replaced), otherwise dropped. `--compact-interval SECS`
//!   schedules the compaction tick on a background thread off the ingest
//!   path (`--listen` only); the `compact` REPL/wire verb triggers one on
//!   demand. Answers inside the retained window are byte-identical with
//!   compaction on or off.
//! * `compact` is the offline counterpart: load a snapshot into a one-shard
//!   service, run the same compaction the `compact` verb runs (absolute
//!   `--horizon` or watermark-relative `--retain`, spilled into
//!   `--spill-dir`), write the compacted snapshot back (in place, or to
//!   `--out`).
//! * `request` sends one request (verb syntax or raw JSON) to a running
//!   `serve --listen` server and prints the raw NDJSON response frame.
//! * `simulate` writes `<out-prefix>.space.json`, `<out-prefix>.events.csv` and
//!   `<out-prefix>.truth.csv` so the other commands (and external tools) can consume
//!   a fully synthetic deployment. Its summary counts the simulated people and
//!   the devices the events file holds, which is what `stats` reports: a person
//!   who never connects logs no device.

use locater::core::system::Location;
use locater::prelude::*;
use locater::proto::{encode_response, parse_repl_line, ReplCommand, WireResponse};
use locater::server::{DrainSummary, ServerConfig, ServerState};
use locater::space::SpaceMetadata;
use locater::store::{
    inspect_wal, truncate_wal, Durability, FsyncPolicy, RecoveryReport, WalInspection,
};
use std::fmt::Write as _;
use std::io::{BufRead, Write as _};
use std::num::{NonZeroU32, NonZeroU64, NonZeroUsize};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// Why the CLI failed: `Usage` errors (bad arguments) reprint the usage text;
/// `Runtime` errors (I/O, corrupt files, failed drains) only print the
/// message — a failed drain snapshot should not scroll the help screen past
/// the diagnostic. Both exit non-zero.
#[derive(Debug)]
enum CliError {
    Usage(String),
    Runtime(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(message) | CliError::Runtime(message) => f.write_str(message),
        }
    }
}

/// Formatted messages come from operations that already ran — runtime errors.
impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Runtime(message)
    }
}

/// Static messages describe missing or malformed arguments — usage errors.
impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        CliError::Usage(message.to_string())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("error: {error}");
            if matches!(error, CliError::Usage(_)) {
                eprintln!();
                eprintln!("{}", usage());
            }
            ExitCode::FAILURE
        }
    }
}

fn usage() -> &'static str {
    "usage:\n  locater-cli stats    <space.json> <events.csv>\n  locater-cli locate   <space.json> <events.csv> <mac> <timestamp> [--dependent] [--no-cache]\n  locater-cli batch    <space.json> <events.csv> <queries.csv> [--dependent] [--no-cache] [--jobs N]\n  locater-cli serve    <space.json> [<events.csv>] [--dependent] [--no-cache] [--shards N]\n  locater-cli serve    --snapshot <store.snap> [--dependent] [--no-cache] [--shards N]\n  locater-cli serve    ... [--queue N] [--drain-snapshot PATH]\n  locater-cli serve    ... --listen <addr> [--workers N] [--idle-timeout SECS]\n  locater-cli serve    ... --wal-dir <dir> [--fsync always|every=N] [--wal-segment-bytes N]\n  locater-cli serve    ... --retain SECS [--spill-dir DIR] [--listen <addr> --compact-interval SECS]\n  locater-cli request  <addr> [--retries N] <verb line or raw JSON frame>\n  locater-cli compact  <store.snap> (--retain SECS | --horizon T) [--spill-dir DIR] [--out PATH]\n  locater-cli snapshot save <space.json> <events.csv> <out.snap>\n  locater-cli snapshot load <store.snap>\n  locater-cli wal inspect  <wal-dir>\n  locater-cli wal truncate <wal-dir>\n  locater-cli simulate campus|metro_campus|office|university|mall|airport <out-prefix> [--days N] [--seed N]"
}

/// Parses arguments and runs one command, returning the text to print.
fn run(args: &[String]) -> Result<String, CliError> {
    let command = args.first().ok_or("missing command")?;
    match command.as_str() {
        "stats" => stats(
            args.get(1).ok_or("missing space.json")?,
            args.get(2).ok_or("missing events.csv")?,
        ),
        "locate" => locate(args),
        "batch" => batch(args),
        "serve" => serve(args),
        "request" => request(args),
        "compact" => compact(args),
        "snapshot" => snapshot(args),
        "wal" => wal(args),
        "simulate" => simulate(args),
        other => Err(CliError::Usage(format!("unknown command {other:?}"))),
    }
}

fn load_space(space_path: &str) -> Result<Space, String> {
    let metadata_json = std::fs::read_to_string(space_path)
        .map_err(|e| format!("cannot read {space_path}: {e}"))?;
    SpaceMetadata::from_json(&metadata_json)
        .map_err(|e| format!("invalid space metadata: {e}"))?
        .build()
        .map_err(|e| format!("invalid space metadata: {e}"))
}

fn load_store(space_path: &str, events_path: &str) -> Result<EventStore, String> {
    let space = load_space(space_path)?;
    let csv = std::fs::read_to_string(events_path)
        .map_err(|e| format!("cannot read {events_path}: {e}"))?;
    let mut store =
        EventStore::from_csv(space, &csv).map_err(|e| format!("cannot ingest events: {e}"))?;
    store.estimate_deltas();
    Ok(store)
}

fn config_from_flags(args: &[String]) -> LocaterConfig {
    let mut config = LocaterConfig::default();
    if args.iter().any(|a| a == "--dependent") {
        config = config.with_fine_mode(FineMode::Dependent);
    }
    if args.iter().any(|a| a == "--no-cache") {
        config = config.with_cache(CacheMode::Disabled);
    }
    config
}

/// Parses the value after flag `name`: `None` when the flag is absent, a usage
/// error when it is the last argument, when the next argument is itself a
/// `--` flag, or when its value does not parse as `T` (`what` names the
/// expected value, e.g. "a positive integer").
fn parsed_flag<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    what: &str,
) -> Result<Option<T>, CliError> {
    let Some(idx) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let value = args
        .get(idx + 1)
        .filter(|value| !value.starts_with("--"))
        .ok_or_else(|| CliError::Usage(format!("{name} requires {what}")))?;
    let parsed = value.parse();
    parsed
        .map(Some)
        .map_err(|_| CliError::Usage(format!("{name} must be {what}")))
}

/// The `what` of every count flag; the `NonZero*` parsers reject `0`.
const POSITIVE: &str = "a positive integer";

/// The `what` of every directory flag.
const DIRECTORY: &str = "a directory";

/// The `what` of every snapshot-path flag.
const SNAPSHOT: &str = "a snapshot path";

/// Parses `--shards N` (default 1).
fn shards_from_flags(args: &[String]) -> Result<usize, CliError> {
    Ok(parsed_flag::<NonZeroUsize>(args, "--shards", POSITIVE)?.map_or(1, NonZeroUsize::get))
}

/// Parses an optional non-negative integer-seconds flag (`serve`'s
/// `--retain` and `--compact-interval`), rejecting a dangling flag or a bad
/// value.
fn secs_flag(args: &[String], name: &str) -> Result<Option<Timestamp>, CliError> {
    let what = "a non-negative integer";
    match parsed_flag::<Timestamp>(args, name, what)? {
        Some(secs) if secs < 0 => Err(CliError::Usage(format!("{name} must be {what}"))),
        secs => Ok(secs),
    }
}

/// Parses the durability flags: `--wal-dir DIR` switches the WAL on,
/// `--fsync` and `--wal-segment-bytes` tune it (and are rejected without it).
fn durability_from_flags(args: &[String]) -> Result<Option<Durability>, CliError> {
    let Some(dir) = parsed_flag::<String>(args, "--wal-dir", DIRECTORY)? else {
        for flag in ["--fsync", "--wal-segment-bytes"] {
            if args.iter().any(|a| a == flag) {
                return Err(CliError::Usage(format!("{flag} requires --wal-dir")));
            }
        }
        return Ok(None);
    };
    let mut durability = Durability::new(dir);
    let policy = "a policy (always|every=N)";
    if let Some(v) = parsed_flag::<String>(args, "--fsync", policy)? {
        durability = durability.with_fsync(FsyncPolicy::parse(&v).map_err(CliError::Usage)?);
    }
    if let Some(bytes) = parsed_flag::<NonZeroU64>(args, "--wal-segment-bytes", POSITIVE)? {
        durability = durability.with_segment_max_bytes(bytes.get());
    }
    Ok(Some(durability))
}

// ---------------------------------------------------------------------------
// Commands
// ---------------------------------------------------------------------------

fn stats(space_path: &str, events_path: &str) -> Result<String, CliError> {
    let store = load_store(space_path, events_path)?;
    let stats = store.stats();
    let mut out = String::new();
    let _ = writeln!(out, "{}", stats.to_report());
    let (public, private) = store.space().room_type_counts();
    let _ = writeln!(
        out,
        "rooms: {public} public / {private} private; {} devices have registered preferred rooms",
        store.space().preferred_map().len()
    );
    let mut device_gaps = 0usize;
    for device in store.devices() {
        device_gaps += store.gaps_of(device.id).len();
    }
    let _ = writeln!(
        out,
        "gaps to clean across all devices: {device_gaps} (δ estimated per device, mean {:.0}s)",
        stats.mean_delta_seconds
    );
    let _ = writeln!(out, "{}", resident_line(&store));
    Ok(out)
}

/// The store's resident heap (`EventStore::approx_resident_bytes`) in total
/// and per event — the figure memory sizing multiplies by the event count.
fn resident_line(store: &EventStore) -> String {
    let bytes = store.approx_resident_bytes();
    let per_event = bytes as f64 / store.num_events().max(1) as f64;
    format!("resident: {bytes} bytes ({per_event:.1} B/event)")
}

/// Human-readable description of a semantic location.
fn describe_location(space: &Space, location: &Location) -> String {
    match location {
        Location::Outside => "outside the building".to_string(),
        Location::Region(region) => format!(
            "inside, region {region} (AP {}), room undetermined",
            space.access_point(space.ap_of_region(*region)).name
        ),
        Location::Room { room, region } => format!(
            "room {} (region {region}, AP {})",
            space.room(*room).name,
            space.access_point(space.ap_of_region(*region)).name
        ),
    }
}

fn locate(args: &[String]) -> Result<String, CliError> {
    let space_path = args.get(1).ok_or("missing space.json")?;
    let events_path = args.get(2).ok_or("missing events.csv")?;
    let mac = args.get(3).ok_or("missing mac")?;
    let t: Timestamp = args
        .get(4)
        .ok_or("missing timestamp")?
        .parse()
        .map_err(|_| "timestamp must be an integer number of seconds")?;
    let store = load_store(space_path, events_path)?;
    let service = ShardedLocaterService::new(store, config_from_flags(args), 1);
    let answer = service
        .locate(&LocateRequest::by_mac(mac.clone(), t))
        .map_err(|e| e.to_string())?
        .answer;
    Ok(format!(
        "{mac} @ {}: {} (decided by {:?}, confidence {:.2})\n",
        locater::events::clock::format_timestamp(t),
        describe_location(&service.space(), &answer.location),
        answer.coarse_method,
        answer.confidence
    ))
}

fn batch(args: &[String]) -> Result<String, CliError> {
    let space_path = args.get(1).ok_or("missing space.json")?;
    let events_path = args.get(2).ok_or("missing events.csv")?;
    let queries_path = args.get(3).ok_or("missing queries.csv")?;
    let jobs = match parsed_flag::<NonZeroUsize>(args, "--jobs", POSITIVE)? {
        Some(jobs) => jobs.get(),
        None => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    };
    let store = load_store(space_path, events_path)?;
    let space = store.space().clone();
    let service = ShardedLocaterService::new(store, config_from_flags(args), 1);

    let queries_text = std::fs::read_to_string(queries_path)
        .map_err(|e| format!("cannot read {queries_path}: {e}"))?;
    let mut requests: Vec<LocateRequest> = Vec::new();
    for (line_no, line) in queries_text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || (line_no == 0 && line.to_ascii_lowercase().starts_with("mac,")) {
            continue;
        }
        let mut parts = line.split(',');
        let mac = parts.next().unwrap_or_default().trim();
        let t: Timestamp = parts
            .next()
            .unwrap_or_default()
            .trim()
            .parse()
            .map_err(|_| format!("line {}: invalid timestamp", line_no + 1))?;
        requests.push(LocateRequest::by_mac(mac, t));
    }

    // The parallel map: responses are deterministic and in row order
    // regardless of the job count.
    let responses = service.locate_batch(&requests, jobs);
    let mut out = String::from("mac,timestamp,location,room,confidence\n");
    let mut answered = 0usize;
    for (request, result) in requests.iter().zip(&responses) {
        let mac = request.mac.as_deref().unwrap_or_default();
        let t = request.t;
        let (location, room, confidence) = match result {
            Ok(response) => {
                let answer = &response.answer;
                let room = answer
                    .room()
                    .map(|r| space.room(r).name.clone())
                    .unwrap_or_default();
                let kind = if answer.is_outside() {
                    "outside"
                } else {
                    "inside"
                };
                (kind.to_string(), room, answer.confidence)
            }
            Err(_) => ("unknown-device".to_string(), String::new(), 0.0),
        };
        let _ = writeln!(out, "{mac},{t},{location},{room},{confidence:.3}");
        answered += 1;
    }
    let _ = writeln!(out, "# answered {answered} queries ({jobs} jobs)");
    Ok(out)
}

/// The `serve` flags only the TCP server reads: without `--listen` they
/// would be silently ignored, so they are refused instead.
fn listen_only_flags(args: &[String]) -> Result<(), CliError> {
    if args.iter().any(|a| a == "--listen") {
        return Ok(());
    }
    for flag in ["--workers", "--idle-timeout", "--compact-interval"] {
        if args.iter().any(|a| a == flag) {
            return Err(CliError::Usage(format!("{flag} requires --listen")));
        }
    }
    Ok(())
}

fn serve(args: &[String]) -> Result<String, CliError> {
    listen_only_flags(args)?;
    let store = if let Some(snapshot_path) = parsed_flag::<String>(args, "--snapshot", SNAPSHOT)? {
        // Cold start from the binary snapshot: no CSV replay, validity periods
        // already estimated, timelines restored verbatim.
        EventStore::load_snapshot(&snapshot_path)
            .map_err(|e| format!("cannot load snapshot {snapshot_path}: {e}"))?
    } else {
        let space_path = args.get(1).ok_or("missing space.json (or --snapshot)")?;
        let events_path = args.get(2).filter(|a| !a.starts_with("--"));
        match events_path {
            Some(events_path) => load_store(space_path, events_path)?,
            None => EventStore::new(load_space(space_path)?),
        }
    };
    let config = config_from_flags(args);
    let shards = shards_from_flags(args)?;
    let mut recovery_report = None;
    let service = match durability_from_flags(args)? {
        Some(durability) => {
            // Recovery happens here: last checkpoint + WAL tail replay, then a
            // fresh checkpoint and empty per-shard logs before serving starts.
            let wal_dir = durability.dir.display().to_string();
            let (service, recovery) =
                ShardedLocaterService::with_durability(store, config, shards, durability)
                    .map_err(|e| CliError::Runtime(format!("cannot open wal {wal_dir}: {e}")))?;
            println!("{}", render_recovery(&recovery));
            recovery_report = Some(recovery);
            service
        }
        None => ShardedLocaterService::new(store, config, shards),
    };
    let retain = secs_flag(args, "--retain")?;
    let compact_interval = secs_flag(args, "--compact-interval")?;
    if compact_interval.is_some() && retain.is_none() {
        return Err("--compact-interval requires --retain".into());
    }
    let spill_dir =
        parsed_flag::<String>(args, "--spill-dir", DIRECTORY)?.map(std::path::PathBuf::from);
    // The replay-dedup window scales with admission (`--queue`): at 4× the
    // limit, an id acked moments ago survives at least three more full
    // admission waves before FIFO eviction can reach it — longer than any
    // client's retry backoff at the server's own saturation throughput.
    let admission_limit = parsed_flag::<NonZeroUsize>(args, "--queue", POSITIVE)?
        .map_or(ServerConfig::default().admission_limit, NonZeroUsize::get);
    let drain_snapshot = parsed_flag::<String>(args, "--drain-snapshot", SNAPSHOT)?;
    let state = Arc::new(
        ServerState::new(service, drain_snapshot)
            .with_retention(retain, spill_dir)
            .with_dedup_capacity(admission_limit.saturating_mul(4).max(1024)),
    );
    if let Some(recovery) = &recovery_report {
        // Restart-spanning idempotence: durable request ids from the
        // recovered WAL answer client retries whose acks the crash ate.
        let seeded = state.seed_dedup_from_recovery(recovery);
        if seeded > 0 {
            println!("# wal: re-seeded replay dedup with {seeded} durable request id(s)");
        }
    }
    if let Some(listen) = parsed_flag::<String>(args, "--listen", "an address")? {
        if let Some(interval) = compact_interval.filter(|&secs| secs > 0) {
            spawn_compaction_ticker(Arc::clone(&state), interval as u64);
        }
        return serve_tcp(state, &listen, args);
    }
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    let commands = serve_loop(&state, stdin.lock(), &mut stdout)?;
    let mut out = format!("# served {commands} commands\n");
    if state.is_draining() {
        // `shutdown` over stdio behaves like the TCP drain: the WAL is
        // checkpointed (clean shutdown leaves an empty tail) and the
        // configured drain snapshot is written before the process exits.
        append_drain_summary(&mut out, &state.finish_drain())?;
    }
    Ok(out)
}

/// The `--compact-interval` timer: a detached thread running one compaction
/// tick per interval against the configured `--retain` horizon. The tick
/// takes one shard write lock at a time, so it never stalls ingest on the
/// other shards; the thread exits when the server starts draining (checked
/// once per second so shutdown stays prompt).
fn spawn_compaction_ticker(state: Arc<ServerState>, interval_secs: u64) {
    std::thread::spawn(move || loop {
        let mut remaining = interval_secs.max(1);
        while remaining > 0 && !state.is_draining() {
            std::thread::sleep(Duration::from_secs(1));
            remaining -= 1;
        }
        if state.is_draining() {
            return;
        }
        if let Err(e) = state.compaction_tick() {
            eprintln!("# compaction tick failed: {e}");
        }
    });
}

/// One boot line summarizing what crash recovery found in the WAL directory,
/// plus one warning line per truncated torn tail.
fn render_recovery(recovery: &RecoveryReport) -> String {
    let mut out = format!(
        "# wal: recovered {} event(s) from {} segment(s) across {} shard(s) ({}; {} base event(s), {} already covered)",
        recovery.replayed,
        recovery.segments,
        recovery.shards,
        if recovery.checkpoint_loaded {
            "checkpoint loaded"
        } else {
            "no checkpoint"
        },
        recovery.base_events,
        recovery.skipped,
    );
    for (path, offset) in &recovery.torn {
        let _ = write!(
            out,
            "\n# wal: torn tail in {} truncated at byte {offset}",
            path.display()
        );
    }
    out
}

/// Appends the drain epilogue (WAL checkpoint, drain snapshot) to the served
/// summary. Epilogue I/O failures become a non-zero exit: the summary printed
/// so far still reaches stdout, then the failure is reported as the error.
fn append_drain_summary(out: &mut String, drain: &DrainSummary) -> Result<(), CliError> {
    if let Some(Ok(bytes)) = &drain.checkpoint {
        let _ = writeln!(
            out,
            "# drained: checkpointed wal ({bytes} byte snapshot, logs trimmed)"
        );
    }
    if let Some(Ok((path, bytes))) = &drain.snapshot {
        let _ = writeln!(out, "# drained: saved {path} ({bytes} bytes)");
    }
    match drain.failure_message() {
        None => Ok(()),
        Some(message) => {
            print!("{out}");
            std::io::stdout().flush().ok();
            Err(CliError::Runtime(message))
        }
    }
}

/// The `serve --listen` path: the wire protocol over TCP. Prints the bound
/// address immediately (port `0` resolves to an ephemeral port), then blocks
/// until a graceful drain (`shutdown` request or SIGTERM).
fn serve_tcp(state: Arc<ServerState>, listen: &str, args: &[String]) -> Result<String, CliError> {
    let mut config = ServerConfig::default();
    if let Some(workers) = parsed_flag::<NonZeroUsize>(args, "--workers", POSITIVE)? {
        config.workers = workers.get();
    }
    if let Some(limit) = parsed_flag::<NonZeroUsize>(args, "--queue", POSITIVE)? {
        config.admission_limit = limit.get();
    }
    let idle = "a positive number of seconds";
    if let Some(secs) = parsed_flag::<NonZeroU64>(args, "--idle-timeout", idle)? {
        config.idle_timeout = Duration::from_secs(secs.get());
    }
    #[cfg(unix)]
    locater::server::install_sigterm_drain(&state);
    let server = locater::server::Server::bind(state, listen, config)
        .map_err(|e| format!("cannot listen on {listen}: {e}"))?;
    println!(
        "listening on {} ({} shard(s); protocol v{})",
        server.local_addr(),
        server.state().service().num_shards(),
        locater::proto::PROTOCOL_VERSION
    );
    std::io::stdout().flush().ok();
    let report = server.join();
    let mut out = format!(
        "# served {} requests over {} connections ({} rejected overloaded, {} rejected while draining)\n",
        report.requests_served,
        report.connections,
        report.rejected_overloaded,
        report.rejected_shutting_down
    );
    append_drain_summary(&mut out, &report.drain)?;
    Ok(out)
}

/// The `serve` stdin REPL: the wire protocol over stdio. Each line is parsed
/// by [`parse_repl_line`] (verb shorthand or a raw NDJSON frame), executed by
/// the shared [`ServerState`] executor, and answered with the response frame
/// a TCP connection would get (`request` prints the same line) — written and
/// flushed as it is produced. A line that does not parse is answered with an
/// `Error` frame, its parse errors stamped with the 1-based input line.
///
/// ```text
/// ingest <mac,timestamp,ap>   append one live event (CSV, same as events.csv rows)
/// locate <mac> <timestamp>    answer a query over the current store
/// stats                       totals, per-shard counts, serving-layer gauges
/// compact [retain-seconds]    age history out of the hot tier
/// ping | snapshot <path> | shutdown
/// quit                        stop reading (without draining)
/// ```
fn serve_loop(
    state: &ServerState,
    input: impl BufRead,
    out: &mut impl std::io::Write,
) -> Result<usize, String> {
    let mut commands = 0usize;
    for (line_no, line) in (1u64..).zip(input.lines()) {
        let line = line.map_err(|e| format!("cannot read command: {e}"))?;
        let response = match parse_repl_line(&line) {
            Ok(ReplCommand::Empty) => continue,
            Ok(ReplCommand::Quit) => {
                commands += 1;
                break;
            }
            Ok(ReplCommand::Request(request)) => state.execute(&request),
            Err(e) => WireResponse::Error(e.at_line(line_no)),
        };
        commands += 1;
        writeln!(out, "{}", encode_response(&response))
            .map_err(|e| format!("cannot write response: {e}"))?;
        out.flush()
            .map_err(|e| format!("cannot write response: {e}"))?;
        if matches!(response, WireResponse::ShuttingDown) {
            break;
        }
    }
    Ok(commands)
}

/// The `request` command: send one NDJSON request to a running
/// `serve --listen` server and print the raw response frame.
///
/// With `--retries N` the frame goes through the resilient [`RetryClient`]:
/// ingests are stamped with a request id before the first send, transport
/// failures and retryable server errors reconnect and resend with jittered
/// backoff, and the server's request-id dedup guarantees the retried write is
/// applied at most once.
fn request(args: &[String]) -> Result<String, CliError> {
    let addr = args.get(1).ok_or("missing server address")?;
    let mut retries = 0u32;
    let mut words: Vec<&str> = Vec::new();
    let mut it = args[2..].iter();
    while let Some(arg) = it.next() {
        if arg == "--retries" {
            let value = it.next().ok_or("--retries requires a value")?;
            retries = value
                .parse()
                .map_err(|_| CliError::Usage("--retries must be a non-negative integer".into()))?;
        } else {
            words.push(arg);
        }
    }
    let line = words.join(" ");
    let request = match parse_repl_line(&line) {
        Ok(ReplCommand::Request(request)) => request,
        Ok(ReplCommand::Empty) => {
            return Err("missing request (verb syntax or a raw JSON frame)".into())
        }
        Ok(ReplCommand::Quit) => {
            return Err("quit is not a wire request (did you mean shutdown?)".into())
        }
        Err(e) => return Err(CliError::Runtime(e.to_string())),
    };
    let mut client = RetryClient::new(ClientConfig {
        addr: addr.clone(),
        request_timeout: Duration::from_secs(30),
        max_retries: retries,
        ..ClientConfig::default()
    });
    // A non-retryable server error is still a response frame — print it like
    // the direct path always has, rather than turning it into a CLI failure.
    let response = match client.request(&request) {
        Ok(response) => response,
        Err(ClientError::Server(error)) => WireResponse::Error(error),
        Err(e) => return Err(CliError::Runtime(format!("request to {addr} failed: {e}"))),
    };
    let mut frame = encode_response(&response);
    frame.push('\n');
    Ok(frame)
}

/// The `compact` command: offline compaction of a snapshot file. Loads the
/// store into a one-shard service and runs the service's own compaction —
/// the cut rule ([`Cut::from_request`]: absolute `--horizon T` or
/// `--retain SECS` behind the event-time watermark, not both), the eviction
/// and the spill into `--spill-dir` are the ones the live server runs —
/// then writes the compacted snapshot back, in place or to `--out`. Answers
/// inside the retained window are unchanged; the evicted history stays
/// reloadable from the spill file (without `--spill-dir` it is dropped).
fn compact(args: &[String]) -> Result<String, CliError> {
    let snap = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .ok_or("missing store.snap")?;
    let seconds = "an integer number of seconds";
    let retain = parsed_flag::<Timestamp>(args, "--retain", seconds)?;
    let horizon = parsed_flag::<Timestamp>(args, "--horizon", "a timestamp")?;
    let cut = Cut::from_request(retain, horizon, None)?;
    let out_path = parsed_flag::<String>(args, "--out", SNAPSHOT)?.unwrap_or_else(|| snap.clone());
    let spill_dir = parsed_flag::<String>(args, "--spill-dir", DIRECTORY)?;
    let store = EventStore::load_snapshot(snap)
        .map_err(|e| CliError::Runtime(format!("cannot load snapshot {snap}: {e}")))?;
    let service = ShardedLocaterService::new(store, LocaterConfig::default(), 1);
    let horizon = cut.horizon(service.watermark()).unwrap_or_default();
    let status = service
        .compact(cut, spill_dir.as_deref().map(std::path::Path::new))
        .map_err(|e| format!("cannot compact {snap}: {e}"))?;
    let mut out = format!(
        "compacted {snap}: {} event(s) evicted below cut {horizon}; {} event(s) retained\n",
        status.evicted_events,
        service.num_events()
    );
    if let Some(path) = service.last_spill() {
        let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let _ = writeln!(out, "spilled {} ({bytes} bytes)", path.display());
    }
    service
        .save_snapshot(&out_path)
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    let bytes = std::fs::metadata(&out_path).map(|m| m.len()).unwrap_or(0);
    let _ = writeln!(out, "wrote {out_path} ({bytes} bytes)");
    Ok(out)
}

fn snapshot(args: &[String]) -> Result<String, CliError> {
    let action = args.get(1).ok_or("missing snapshot action (save|load)")?;
    match action.as_str() {
        "save" => {
            let space_path = args.get(2).ok_or("missing space.json")?;
            let events_path = args.get(3).ok_or("missing events.csv")?;
            let out_path = args.get(4).ok_or("missing output snapshot path")?;
            let store = load_store(space_path, events_path)?;
            store
                .save_snapshot(out_path)
                .map_err(|e| format!("cannot write {out_path}: {e}"))?;
            let size = std::fs::metadata(out_path).map(|m| m.len()).unwrap_or(0);
            Ok(format!(
                "saved {out_path}: {} events, {} devices ({size} bytes)\n",
                store.num_events(),
                store.num_devices(),
            ))
        }
        "load" => {
            let path = args.get(2).ok_or("missing snapshot path")?;
            let store = EventStore::load_snapshot(path)
                .map_err(|e| format!("cannot load snapshot {path}: {e}"))?;
            let mut out = String::new();
            let _ = writeln!(out, "{}", store.stats().to_report());
            let _ = writeln!(out, "{}", resident_line(&store));
            Ok(out)
        }
        other => Err(CliError::Usage(format!(
            "unknown snapshot action {other:?} (save|load)"
        ))),
    }
}

/// The `wal` command: operator tooling over a WAL directory. `inspect` is
/// read-only; `truncate` repairs damage by discarding everything from the
/// first invalid frame onward.
fn wal(args: &[String]) -> Result<String, CliError> {
    let action = args.get(1).ok_or("missing wal action (inspect|truncate)")?;
    let dir = args.get(2).ok_or("missing wal directory")?;
    let path = std::path::Path::new(dir.as_str());
    match action.as_str() {
        "inspect" => {
            let inspection = inspect_wal(path)
                .map_err(|e| CliError::Runtime(format!("cannot inspect {dir}: {e}")))?;
            Ok(render_inspection(&inspection))
        }
        "truncate" => {
            let truncations = truncate_wal(path)
                .map_err(|e| CliError::Runtime(format!("cannot truncate {dir}: {e}")))?;
            let mut out = String::new();
            let mut repaired = 0usize;
            for t in &truncations {
                if t.truncated.is_none() && t.segments_removed == 0 {
                    continue;
                }
                repaired += 1;
                let _ = writeln!(
                    out,
                    "shard {:04}: cut {} byte(s), removed {} later segment(s) ({} valid frame(s) lost){}",
                    t.shard,
                    t.bytes_cut,
                    t.segments_removed,
                    t.frames_removed,
                    t.truncated
                        .as_ref()
                        .map(|p| format!("; truncated {}", p.display()))
                        .unwrap_or_default()
                );
            }
            if repaired == 0 {
                let _ = writeln!(out, "wal is clean: nothing to truncate");
            } else {
                let _ = writeln!(
                    out,
                    "repaired {repaired} shard(s); recovery will now replay the remaining prefix"
                );
            }
            Ok(out)
        }
        other => Err(CliError::Usage(format!(
            "unknown wal action {other:?} (inspect|truncate)"
        ))),
    }
}

/// Renders `wal inspect`: the checkpoint line, one line per segment with
/// frame counts / byte counts / id ranges, and damage markers.
fn render_inspection(inspection: &WalInspection) -> String {
    let mut out = format!("wal {}\n", inspection.dir.display());
    match &inspection.checkpoint {
        Some(Ok((bytes, events, next_id))) => {
            let _ = writeln!(
                out,
                "checkpoint: {bytes} bytes, {events} event(s), next event id {next_id}"
            );
        }
        Some(Err(e)) => {
            let _ = writeln!(out, "checkpoint: UNREADABLE ({e})");
        }
        None => {
            let _ = writeln!(out, "checkpoint: none");
        }
    }
    let mut damaged = 0usize;
    for shard in &inspection.shards {
        let _ = writeln!(
            out,
            "shard {:04}: {} segment(s)",
            shard.shard,
            shard.segments.len()
        );
        for segment in &shard.segments {
            let ids = segment
                .id_range
                .map(|(first, last)| format!("ids {first}..={last}"))
                .unwrap_or_else(|| "empty".to_string());
            let _ = write!(
                out,
                "  seg-{:016x}: {} frame(s), {}/{} bytes valid, {}",
                segment.index, segment.frames, segment.valid_bytes, segment.file_len, ids
            );
            if let Some(damage) = &segment.damage {
                damaged += 1;
                let _ = write!(out, " [DAMAGED {damage}]");
            }
            let _ = writeln!(out);
        }
    }
    if damaged > 0 {
        let _ = writeln!(
            out,
            "{damaged} damaged segment(s) — `locater-cli wal truncate` discards everything from the first invalid frame"
        );
    }
    out
}

fn simulate(args: &[String]) -> Result<String, CliError> {
    let kind = args.get(1).ok_or("missing scenario kind")?;
    let prefix = args.get(2).ok_or("missing output prefix")?;
    let days_flag =
        parsed_flag::<NonZeroU32>(args, "--days", POSITIVE)?.map(|days| i64::from(days.get()));
    let days = days_flag.unwrap_or(14);
    let seed: u64 = parsed_flag(args, "--seed", "an integer")?.unwrap_or(7);

    let output = match kind.as_str() {
        "campus" => Simulator::new(seed).run_campus(&CampusConfig {
            weeks: (days / 7).max(1),
            ..CampusConfig::default()
        }),
        "metro_campus" => {
            // The large scenario keeps its own 13 weeks unless --days is given.
            let mut config = CampusConfig::metro();
            if let Some(days) = days_flag {
                config.weeks = (days / 7).max(1);
            }
            Simulator::new(seed).run_campus(&config)
        }
        "office" | "university" | "mall" | "airport" => {
            let scenario = match kind.as_str() {
                "office" => ScenarioKind::Office,
                "university" => ScenarioKind::University,
                "mall" => ScenarioKind::Mall,
                _ => ScenarioKind::Airport,
            };
            Simulator::new(seed).run_scenario(
                &locater::sim::ScenarioConfig::new(scenario)
                    .with_days(days)
                    .with_seed(seed),
            )
        }
        other => return Err(CliError::Usage(format!("unknown scenario {other:?}"))),
    };

    // Space metadata.
    let metadata = SpaceMetadata::from_space(&output.space);
    let space_path = format!("{prefix}.space.json");
    std::fs::write(&space_path, metadata.to_json().map_err(|e| e.to_string())?)
        .map_err(|e| format!("cannot write {space_path}: {e}"))?;
    // Events.
    let events_path = format!("{prefix}.events.csv");
    std::fs::write(&events_path, locater::store::format_csv(&output.events))
        .map_err(|e| format!("cannot write {events_path}: {e}"))?;
    // Ground truth.
    let truth_path = format!("{prefix}.truth.csv");
    let mut truth = String::from("mac,room,start,end\n");
    for record in &output.people {
        for stay in output.ground_truth.stays_of(&record.mac) {
            let _ = writeln!(
                truth,
                "{},{},{},{}",
                record.mac,
                output.space.room(stay.room).name,
                stay.interval.start,
                stay.interval.end
            );
        }
    }
    std::fs::write(&truth_path, truth).map_err(|e| format!("cannot write {truth_path}: {e}"))?;

    // Some simulated people never connect: they log no device.
    let mut devices: Vec<&str> = output.events.iter().map(|e| e.mac.as_str()).collect();
    devices.sort_unstable();
    devices.dedup();
    Ok(format!(
        "simulated {kind}: {} events, {} people, {} devices, {} days\nwrote {space_path}, {events_path}, {truth_path}\n",
        output.events.len(),
        output.people.len(),
        devices.len(),
        output.days
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use locater::store::parse_csv;

    #[test]
    fn missing_command_and_unknown_command_error() {
        assert!(run(&[]).is_err());
        assert!(run(&["frobnicate".to_string()]).is_err());
        assert!(usage().contains("locater-cli"));
    }

    #[test]
    fn simulate_then_stats_then_locate_roundtrip() {
        let dir = std::env::temp_dir().join(format!("locater-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("office").to_string_lossy().to_string();

        let simulate_args: Vec<String> = vec![
            "simulate".into(),
            "office".into(),
            prefix.clone(),
            "--days".into(),
            "3".into(),
            "--seed".into(),
            "5".into(),
        ];
        let report = run(&simulate_args).expect("simulate succeeds");
        assert!(report.contains("simulated office"));

        let space = format!("{prefix}.space.json");
        let events = format!("{prefix}.events.csv");
        let stats_out = run(&["stats".into(), space.clone(), events.clone()]).expect("stats");
        // The device count of a line: the number before " devices".
        let devices = |line: &str| {
            let before = &line[..line.find(" devices").expect("a device count")];
            before[before.rfind(' ').unwrap() + 1..].to_string()
        };
        assert_eq!(devices(&report), devices(&stats_out), "{report}{stats_out}");
        assert!(stats_out.contains("gaps to clean"));
        assert!(!stats_out.contains("co-location"));
        // A 12-byte stored event and an 8-byte index posting per event, at
        // exact capacity.
        assert!(stats_out.contains("(20.0 B/event)"), "{stats_out}");

        // Locate the first device found in the events file at its first event time:
        // always answerable.
        let csv = std::fs::read_to_string(&events).unwrap();
        let first = parse_csv(&csv).unwrap().into_iter().next().unwrap();
        let locate_out = run(&[
            "locate".into(),
            space.clone(),
            events.clone(),
            first.mac.clone(),
            first.t.to_string(),
            "--dependent".into(),
        ])
        .expect("locate succeeds");
        assert!(locate_out.contains(&first.mac));
        assert!(locate_out.contains("room") || locate_out.contains("outside"));

        // Batch: two queries, one for an unknown device.
        let queries = dir.join("queries.csv");
        std::fs::write(
            &queries,
            format!(
                "mac,timestamp\n{},{}\nghost-device,123\n",
                first.mac, first.t
            ),
        )
        .unwrap();
        let batch_out = run(&[
            "batch".into(),
            space.clone(),
            events.clone(),
            queries.to_string_lossy().to_string(),
            "--jobs".into(),
            "2".into(),
        ])
        .expect("batch succeeds");
        assert!(batch_out.contains("answered 2 queries"));
        assert!(batch_out.contains("unknown-device"));

        // The same batch on one job is byte-identical (deterministic pipeline).
        let batch_one = run(&[
            "batch".into(),
            space,
            events,
            queries.to_string_lossy().to_string(),
            "--jobs".into(),
            "1".into(),
        ])
        .expect("batch succeeds");
        assert_eq!(
            batch_one.replace("(1 jobs)", ""),
            batch_out.replace("(2 jobs)", "")
        );

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_save_load_and_serve_roundtrip() {
        let dir = std::env::temp_dir().join(format!("locater-cli-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("office").to_string_lossy().to_string();
        run(&[
            "simulate".into(),
            "office".into(),
            prefix.clone(),
            "--days".into(),
            "3".into(),
            "--seed".into(),
            "11".into(),
        ])
        .expect("simulate succeeds");
        let space = format!("{prefix}.space.json");
        let events = format!("{prefix}.events.csv");
        let snap = format!("{prefix}.snap");

        let saved = run(&[
            "snapshot".into(),
            "save".into(),
            space,
            events.clone(),
            snap.clone(),
        ])
        .expect("snapshot save succeeds");
        assert!(saved.contains("saved") && saved.contains("devices"));
        assert!(!saved.contains("index"), "one index mode, not worth naming");

        let loaded =
            run(&["snapshot".into(), "load".into(), snap.clone()]).expect("snapshot load succeeds");
        assert!(loaded.contains("events"));
        assert!(!loaded.contains("co-location"));
        assert!(loaded.contains("resident: ") && loaded.contains("(20.0 B/event)"));

        // Serving straight from the snapshot answers queries without the CSV.
        let csv = std::fs::read_to_string(&events).unwrap();
        let first = parse_csv(&csv).unwrap().into_iter().next().unwrap();
        let store = EventStore::load_snapshot(&snap).expect("snapshot loads");
        // Serve from the snapshot with two shards: the store splits on load.
        let state = ServerState::new(
            ShardedLocaterService::new(store, LocaterConfig::default(), 2),
            None,
        );
        let mut out: Vec<u8> = Vec::new();
        let input = format!("locate {} {}\nquit\n", first.mac, first.t);
        serve_loop(&state, std::io::Cursor::new(input), &mut out).expect("serve loop runs");
        let frames = response_frames(&out);
        assert!(
            matches!(frames[..], [WireResponse::Located { .. }]),
            "{frames:?}"
        );

        // Corrupting the snapshot yields a typed, non-panicking CLI error.
        let mut bytes = std::fs::read(&snap).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&snap, bytes).unwrap();
        let err = run(&["snapshot".into(), "load".into(), snap]).unwrap_err();
        assert!(
            err.to_string().contains("checksum"),
            "unexpected error: {err}"
        );
        assert!(
            matches!(err, CliError::Runtime(_)),
            "corrupt files are runtime errors, not usage errors"
        );

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_command_evicts_spills_and_rewrites_the_snapshot() {
        let dir = std::env::temp_dir().join(format!("locater-cli-compact-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("office").to_string_lossy().to_string();
        run(&[
            "simulate".into(),
            "office".into(),
            prefix.clone(),
            "--days".into(),
            "21".into(),
            "--seed".into(),
            "3".into(),
        ])
        .expect("simulate succeeds");
        let snap = format!("{prefix}.snap");
        run(&[
            "snapshot".into(),
            "save".into(),
            format!("{prefix}.space.json"),
            format!("{prefix}.events.csv"),
            snap.clone(),
        ])
        .expect("snapshot save succeeds");
        let before = EventStore::load_snapshot(&snap).unwrap();

        // A retention wider than the history evicts nothing and leaves the
        // store byte-identical.
        let compacted = dir.join("unchanged.snap").to_string_lossy().to_string();
        let noop = run(&[
            "compact".into(),
            snap.clone(),
            "--retain".into(),
            "999999999".into(),
            "--out".into(),
            compacted.clone(),
        ])
        .expect("no-op compact succeeds");
        assert!(noop.contains(": 0 event(s) evicted"), "{noop}");
        assert_eq!(EventStore::load_snapshot(&compacted).unwrap(), before);

        // One week of retention on a three-week corpus evicts history and
        // spills it.
        let live_snap = dir.join("live.snap");
        std::fs::copy(&snap, &live_snap).unwrap();
        let spill_dir = dir.join("spill");
        let compact_in_place = || {
            run(&[
                "compact".into(),
                snap.clone(),
                "--retain".into(),
                "604800".into(),
                "--spill-dir".into(),
                spill_dir.to_string_lossy().to_string(),
            ])
            .expect("compact succeeds")
        };
        let out = compact_in_place();
        assert!(!out.contains(": 0 event(s) evicted"), "{out}");
        assert!(out.contains("spilled"), "{out}");
        assert!(out.contains(&format!("wrote {snap}")), "{out}");
        let mut after = EventStore::load_snapshot(&snap).unwrap();
        assert!(after.num_events() < before.num_events());
        // Evicted + retained account for every original event, and the spill
        // reloads as an ordinary snapshot.
        let spills = locater::store::list_spills(&spill_dir).unwrap();
        assert_eq!(spills.len(), 1);
        let first = EventStore::load_snapshot(&spills[0].1).unwrap();
        assert_eq!(first.num_events() + after.num_events(), before.num_events());

        // Offline compact is the live verb: `serve --snapshot --spill-dir`
        // answering `compact 604800` and then `snapshot` writes the same
        // snapshot and the same spill, byte for byte.
        let live_spill = dir.join("live-spill");
        let live_out = dir.join("live-compacted.snap");
        let state = ServerState::new(
            ShardedLocaterService::from_snapshot(&live_snap, LocaterConfig::default(), 1).unwrap(),
            None,
        )
        .with_retention(None, Some(live_spill.clone()));
        let input = format!("compact 604800\nsnapshot {}\nquit\n", live_out.display());
        let mut frames = Vec::new();
        serve_loop(&state, std::io::Cursor::new(input), &mut frames).expect("serve loop runs");
        let frames = response_frames(&frames);
        assert!(
            matches!(&frames[..], [WireResponse::Compacted(status), WireResponse::SnapshotSaved { .. }]
                if status.evicted_events == first.num_events() as u64),
            "{frames:?}"
        );
        assert_eq!(
            std::fs::read(&live_out).unwrap(),
            std::fs::read(&snap).unwrap()
        );
        let live_spills = locater::store::list_spills(&live_spill).unwrap();
        assert_eq!(live_spills.len(), 1);
        assert_eq!(live_spills[0].1.file_name(), spills[0].1.file_name());
        assert_eq!(
            std::fs::read(&live_spills[0].1).unwrap(),
            std::fs::read(&spills[0].1).unwrap()
        );

        // A late event below the cut, then the same command again: the same
        // cut, a one-event spill — and the first spill is
        // still there, untouched.
        let late_mac = before.devices()[0].mac.as_str().to_string();
        let late_t = spills[0].0 - 1_000;
        let late_ap = before.space().access_points()[0].name.clone();
        let late = after.ingest_raw(&late_mac, late_t, &late_ap).unwrap();
        after.save_snapshot(&snap).unwrap();
        let out = compact_in_place();
        assert!(out.contains(": 1 event(s) evicted"), "{out}");
        let spills = locater::store::list_spills(&spill_dir).unwrap();
        assert_eq!(spills.len(), 2, "a spill never replaces a spill");
        assert_eq!((spills[0].0, spills[1].0), (late_t + 1_000, late_t + 1_000));
        let mut spilled_ids = Vec::new();
        for (_, path) in &spills {
            let spill = EventStore::load_snapshot(path).unwrap();
            for device in spill.devices() {
                spilled_ids.extend(spill.timeline_of(device.id).iter().map(|e| e.id()));
            }
        }
        spilled_ids.sort();
        let mut expected: Vec<_> = first
            .devices()
            .iter()
            .flat_map(|d| first.timeline_of(d.id).iter().map(|e| e.id()))
            .chain([late])
            .collect();
        expected.sort();
        assert_eq!(spilled_ids, expected, "every evicted id exactly once");

        // Bad usage is rejected before touching any file.
        assert!(run(&["compact".into()]).is_err());
        assert!(run(&["compact".into(), snap.clone()]).is_err());
        assert!(run(&["compact".into(), snap, "--retain".into(), "soon".into()]).is_err());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_refuses_both_a_retention_and_a_horizon() {
        let space = locater::space::SpaceBuilder::new("compact-both")
            .add_access_point("wap0", &["r0"])
            .build()
            .unwrap();
        let mut store = EventStore::new(space);
        for t in [100, 5_000, 9_000] {
            store.ingest_raw("aa:00:00:00:00:01", t, "wap0").unwrap();
        }
        let snap =
            std::env::temp_dir().join(format!("locater-cli-both-{}.snap", std::process::id()));
        let snap_arg = snap.to_string_lossy().to_string();
        store.save_snapshot(&snap).unwrap();
        let kept = std::fs::read(&snap).unwrap();
        // Each refusal — both given, a negative retention, neither given — is
        // the wire verb's, word for word, and leaves the snapshot as it was.
        let wire = ServerState::new(
            ShardedLocaterService::new(store, LocaterConfig::default(), 1),
            None,
        );
        for (flags, retain, horizon) in [
            (
                &["--retain", "1", "--horizon", "6000"][..],
                Some(1),
                Some(6_000),
            ),
            (&["--retain", "-5"], Some(-5), None),
            (&[], None, None),
        ] {
            let mut args = vec!["compact".to_string(), snap_arg.clone()];
            args.extend(flags.iter().map(|f| f.to_string()));
            let err = run(&args).unwrap_err();
            let WireResponse::Error(WireError::BadRequest { message }) =
                wire.execute(&WireRequest::Compact { retain, horizon })
            else {
                panic!("{flags:?}: the wire verb must refuse too");
            };
            assert!(
                matches!(&err, CliError::Usage(m) if *m == message),
                "{flags:?}: {err:?} vs {message}"
            );
            assert_eq!(std::fs::read(&snap).unwrap(), kept, "{flags:?}");
        }
        // A negative horizon cuts below every event: both paths accept it and
        // evict nothing.
        let out = run(&["compact", &snap_arg, "--horizon", "-5"].map(String::from)).unwrap();
        assert!(out.contains(": 0 event(s) evicted below cut -5;"), "{out}");
        assert_eq!(
            wire.execute(&WireRequest::Compact {
                retain: None,
                horizon: Some(-5)
            }),
            WireResponse::Compacted(Default::default())
        );
        assert_eq!(EventStore::load_snapshot(&snap).unwrap().num_events(), 3);
        std::fs::remove_file(&snap).ok();
    }

    #[test]
    fn compact_refuses_a_dangling_value_flag() {
        let space = locater::space::SpaceBuilder::new("compact-dangling")
            .add_access_point("wap0", &["r0"])
            .build()
            .unwrap();
        let mut store = EventStore::new(space);
        for t in [100, 5_000, 9_000] {
            store.ingest_raw("aa:00:00:00:00:01", t, "wap0").unwrap();
        }
        let snap =
            std::env::temp_dir().join(format!("locater-cli-dangling-{}.snap", std::process::id()));
        store.save_snapshot(&snap).unwrap();
        let kept = std::fs::read(&snap).unwrap();
        let spill =
            std::env::temp_dir().join(format!("locater-cli-dangling-spill-{}", std::process::id()));
        let spill = spill.to_string_lossy().to_string();
        // `--retain 3600` alone would evict two of the three events, so a
        // dropped flag would rewrite the snapshot.
        for (flags, message) in [
            (&["--spill-dir"][..], "--spill-dir requires a directory"),
            (&["--out"], "--out requires a snapshot path"),
            (
                &["--out", "--spill-dir", &spill],
                "--out requires a snapshot path",
            ),
        ] {
            let mut args: Vec<String> = ["compact", &snap.to_string_lossy(), "--retain", "3600"]
                .map(String::from)
                .to_vec();
            args.extend(flags.iter().map(|f| f.to_string()));
            let err = run(&args).unwrap_err();
            assert!(
                matches!(&err, CliError::Usage(m) if m == message),
                "{flags:?}: {err:?}"
            );
            assert_eq!(std::fs::read(&snap).unwrap(), kept, "{flags:?}");
        }
        assert!(!std::path::Path::new(&spill).exists());
        assert!(!std::path::Path::new("--spill-dir").exists());
        std::fs::remove_file(&snap).ok();
    }

    #[test]
    fn snapshot_command_rejects_bad_usage() {
        assert!(run(&["snapshot".into()]).is_err());
        assert!(run(&["snapshot".into(), "frob".into()]).is_err());
        assert!(run(&["snapshot".into(), "save".into()]).is_err());
        assert!(run(&[
            "snapshot".into(),
            "load".into(),
            "/no/such/file.snap".into()
        ])
        .is_err());
        assert!(
            run(&["serve".into()]).is_err(),
            "serve needs a space or snapshot"
        );
    }

    /// Every line the REPL wrote, decoded: each must be one response frame.
    fn response_frames(out: &[u8]) -> Vec<WireResponse> {
        std::str::from_utf8(out)
            .unwrap()
            .lines()
            .map(|line| {
                locater::proto::decode_response(line)
                    .unwrap_or_else(|e| panic!("not a frame: {line}: {e}"))
            })
            .collect()
    }

    #[test]
    fn serve_loop_ingests_locates_and_reports_stats() {
        let space = locater::space::SpaceBuilder::new("serve-test")
            .add_access_point("wap1", &["101", "102"])
            .build()
            .unwrap();
        let state = ServerState::new(
            ShardedLocaterService::new(EventStore::new(space), LocaterConfig::default(), 2),
            None,
        );
        let input = "\
# comment lines and blanks are skipped

stats
ingest aa:bb:cc:dd:ee:01,1000,wap1
ingest aa:bb:cc:dd:ee:01,4000,wap1
locate aa:bb:cc:dd:ee:01 2500
locate ghost 2500
ingest broken-line-without-commas
locate aa:bb:cc:dd:ee:01
frobnicate
quit
stats
";
        let mut out: Vec<u8> = Vec::new();
        let commands =
            serve_loop(&state, std::io::Cursor::new(input), &mut out).expect("serve loop runs");
        // `quit` stops the loop before the trailing stats line.
        assert_eq!(commands, 9);
        let frames = response_frames(&out);
        assert_eq!(frames.len(), 8, "one frame per request: {frames:?}");
        let WireResponse::Stats(stats) = &frames[0] else {
            panic!("a stats frame: {:?}", frames[0]);
        };
        assert_eq!((stats.events, stats.devices, stats.shards), (0, 0, 2));
        assert_eq!(stats.resident_bytes, 0);
        let shards: Vec<(usize, usize)> = stats
            .per_shard
            .iter()
            .map(|s| (s.shard, s.events))
            .collect();
        assert_eq!(shards, [(0, 0), (1, 0)]);
        let ingested = |t, device_epoch| WireResponse::Ingested {
            mac: "aa:bb:cc:dd:ee:01".into(),
            t,
            ap: "wap1".into(),
            device_epoch,
        };
        assert_eq!(frames[1..3], [ingested(1000, 1), ingested(4000, 2)]);
        assert!(
            matches!(
                frames[3],
                WireResponse::Located {
                    events_seen: 2,
                    device_epoch: 2,
                    degraded: false,
                    ..
                }
            ),
            "{:?}",
            frames[3]
        );
        let errors: Vec<String> = frames[4..]
            .iter()
            .map(|frame| match frame {
                WireResponse::Error(e) => e.to_string(),
                other => panic!("an error frame: {other:?}"),
            })
            .collect();
        assert_eq!(errors[0], "unknown device: ghost");
        assert_eq!(errors[2], "usage: locate <mac> <timestamp>");
        assert!(errors[3].starts_with("unknown command \"frobnicate\""));
        assert_eq!(state.service().num_events(), 2);
    }

    #[test]
    fn serve_loop_rejects_bad_ingest_lines() {
        let space = locater::space::SpaceBuilder::new("serve-test")
            .add_access_point("wap1", &["101"])
            .build()
            .unwrap();
        let state = ServerState::new(
            ShardedLocaterService::new(EventStore::new(space), LocaterConfig::default(), 1),
            None,
        );
        let input = "ingest aa,100,wap9\nlocate aa 1x0\n";
        let mut out: Vec<u8> = Vec::new();
        serve_loop(&state, std::io::Cursor::new(input), &mut out).unwrap();
        let frames = response_frames(&out);
        assert!(
            matches!(&frames[..], [
                WireResponse::Error(WireError::Ingest { .. }),
                WireResponse::Error(WireError::BadRequest { message }),
            ] if message.contains("timestamp must be an integer")),
            "{frames:?}"
        );
        assert_eq!(state.service().num_events(), 0);
    }

    #[test]
    fn serve_loop_shutdown_drains_and_accepts_raw_frames() {
        let dir = std::env::temp_dir().join(format!("locater-cli-drain-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let drain = dir.join("repl-drain.snap").to_string_lossy().to_string();
        let space = locater::space::SpaceBuilder::new("serve-test")
            .add_access_point("wap1", &["101"])
            .build()
            .unwrap();
        let state = ServerState::new(
            ShardedLocaterService::new(EventStore::new(space), LocaterConfig::default(), 1),
            Some(drain.clone()),
        );
        // Raw NDJSON frames and verbs mix freely: the REPL is the protocol
        // over stdio. `shutdown` stops the loop with the drain flag up.
        let input = "\
{\"Ingest\":{\"mac\":\"aa:bb:cc:dd:ee:01\",\"t\":1000,\"ap\":\"wap1\"}}
\"Ping\"
shutdown
locate aa:bb:cc:dd:ee:01 1000
";
        let mut out: Vec<u8> = Vec::new();
        let commands =
            serve_loop(&state, std::io::Cursor::new(input), &mut out).expect("serve loop runs");
        assert_eq!(commands, 3, "shutdown stops the loop");
        // The lines `request` prints for the same requests.
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "{\"Ingested\":{\"mac\":\"aa:bb:cc:dd:ee:01\",\"t\":1000,\"ap\":\"wap1\",\"device_epoch\":1}}\n\
             {\"Pong\":{\"version\":8}}\n\
             \"ShuttingDown\"\n"
        );
        assert!(state.is_draining());
        let summary = state.finish_drain();
        assert!(!summary.has_failure());
        assert_eq!(summary.checkpoint, None, "no WAL attached, no checkpoint");
        let (path, bytes) = summary.snapshot.expect("drain snapshot attempted").unwrap();
        assert_eq!(path, drain);
        assert!(bytes > 0);
        assert!(EventStore::load_snapshot(&drain).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drain_snapshot_failure_is_a_runtime_error_with_summary() {
        let space = locater::space::SpaceBuilder::new("drain-fail")
            .add_access_point("wap1", &["101"])
            .build()
            .unwrap();
        let state = ServerState::new(
            ShardedLocaterService::new(EventStore::new(space), LocaterConfig::default(), 1),
            Some("/no/such/dir/drain.snap".to_string()),
        );
        state.execute(&locater::proto::WireRequest::Shutdown);
        let summary = state.finish_drain();
        assert!(summary.has_failure());
        let mut out = String::from("# served 1 commands\n");
        let err = append_drain_summary(&mut out, &summary).unwrap_err();
        assert!(
            err.to_string().contains("drain snapshot failed"),
            "unexpected error: {err}"
        );
        assert!(matches!(err, CliError::Runtime(_)));
    }

    #[test]
    fn serve_with_wal_recovers_after_a_simulated_crash() {
        let dir = std::env::temp_dir().join(format!("locater-cli-wal-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let wal_dir = dir.join("wal");
        let space = || {
            locater::space::SpaceBuilder::new("wal-test")
                .add_access_point("wap1", &["101", "102"])
                .build()
                .unwrap()
        };
        let durability = durability_from_flags(&[
            "--wal-dir".into(),
            wal_dir.to_string_lossy().to_string(),
            "--fsync".into(),
            "always".into(),
        ])
        .unwrap()
        .expect("wal flags parsed");

        // Boot a durable service, ingest through the REPL executor, then drop
        // it without checkpointing — a crash, as far as the log is concerned.
        {
            let (service, recovery) = ShardedLocaterService::with_durability(
                EventStore::new(space()),
                LocaterConfig::default(),
                2,
                durability.clone(),
            )
            .expect("durable boot");
            assert_eq!(recovery.replayed, 0);
            let state = ServerState::new(service, None);
            let input = "\
ingest aa:bb:cc:dd:ee:01,1000,wap1
ingest aa:bb:cc:dd:ee:02,2000,wap1
ingest aa:bb:cc:dd:ee:01,4000,wap1
";
            let mut out: Vec<u8> = Vec::new();
            serve_loop(&state, std::io::Cursor::new(input), &mut out).expect("serve loop runs");
            assert_eq!(state.service().num_events(), 3);
        }

        // `wal inspect` sees the three framed events.
        let inspected = run(&[
            "wal".into(),
            "inspect".into(),
            wal_dir.to_string_lossy().to_string(),
        ])
        .expect("wal inspect succeeds");
        assert!(inspected.contains("checkpoint:"), "report: {inspected}");
        assert!(inspected.contains("shard 0000:"), "report: {inspected}");
        assert!(inspected.contains("shard 0001:"), "report: {inspected}");
        assert!(!inspected.contains("DAMAGED"), "report: {inspected}");

        // Reboot: recovery replays the tail and the events are back.
        let (service, recovery) = ShardedLocaterService::with_durability(
            EventStore::new(space()),
            LocaterConfig::default(),
            2,
            durability,
        )
        .expect("recovery boot");
        assert_eq!(recovery.replayed, 3, "report: {recovery:?}");
        assert_eq!(service.num_events(), 3);
        let rendered = render_recovery(&recovery);
        assert!(
            rendered.contains("recovered 3 event(s)"),
            "boot line: {rendered}"
        );

        // A clean truncate pass is a no-op and says so.
        let truncated = run(&[
            "wal".into(),
            "truncate".into(),
            wal_dir.to_string_lossy().to_string(),
        ])
        .expect("wal truncate succeeds");
        assert!(
            truncated.contains("wal is clean"),
            "truncate report: {truncated}"
        );

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_and_durability_flags_reject_bad_usage() {
        assert!(run(&["wal".into()]).is_err());
        assert!(run(&["wal".into(), "frob".into(), "/tmp".into()]).is_err());
        assert!(run(&["wal".into(), "inspect".into()]).is_err());
        assert!(durability_from_flags(&[]).unwrap().is_none());
        assert!(durability_from_flags(&["--wal-dir".into()]).is_err());
        assert!(durability_from_flags(&["--fsync".into(), "always".into()]).is_err());
        assert!(
            durability_from_flags(&["--wal-dir".into(), "/tmp/w".into(), "--fsync".into()])
                .is_err()
        );
        assert!(durability_from_flags(&[
            "--wal-dir".into(),
            "/tmp/w".into(),
            "--fsync".into(),
            "sometimes".into()
        ])
        .is_err());
        let Err(CliError::Usage(message)) = durability_from_flags(&[
            "--wal-dir".into(),
            "/tmp/w".into(),
            "--fsync".into(),
            "interval=200".into(),
        ]) else {
            panic!("interval=MS is not a policy");
        };
        assert!(message.contains("(always | every=N)"), "{message}");
        assert!(durability_from_flags(&[
            "--wal-dir".into(),
            "/tmp/w".into(),
            "--wal-segment-bytes".into(),
            "zero".into()
        ])
        .is_err());
        let durability = durability_from_flags(&[
            "--wal-dir".into(),
            "/tmp/w".into(),
            "--fsync".into(),
            "every=64".into(),
            "--wal-segment-bytes".into(),
            "65536".into(),
        ])
        .unwrap()
        .expect("flags parse");
        assert_eq!(durability.fsync.to_string(), "every=64");
        assert_eq!(durability.segment_max_bytes, 65_536);
    }

    #[test]
    fn listen_only_flags_are_refused_over_stdio() {
        for flags in [
            &["--workers", "2"][..],
            &["--idle-timeout", "30"],
            &["--retain", "3600", "--compact-interval", "60"],
        ] {
            // Refused before the space file is read, so the path need not exist.
            let mut args: Vec<String> = vec!["serve".into(), "missing.space.json".into()];
            args.extend(flags.iter().map(|f| f.to_string()));
            let error = run(&args).expect_err("listen-only flag over stdio must not run");
            assert!(
                matches!(&error, CliError::Usage(m) if m.ends_with("requires --listen")),
                "{flags:?}: {error:?}"
            );
            args.extend(["--listen".to_string(), "127.0.0.1:0".to_string()]);
            assert!(listen_only_flags(&args).is_ok(), "{flags:?}");
        }
        // `--queue` and `--drain-snapshot` pass the flag checks over stdio:
        // the run gets as far as reading the (missing) space file.
        let stdio = ["--queue", "8", "--drain-snapshot", "drain.snap"];
        let mut args: Vec<String> = vec!["serve".into(), "missing.space.json".into()];
        args.extend(stdio.iter().map(|f| f.to_string()));
        let error = run(&args).expect_err("the space file does not exist");
        assert!(
            matches!(&error, CliError::Runtime(m) if m.starts_with("cannot read")),
            "{error:?}"
        );
    }

    #[test]
    fn request_command_round_trips_against_a_live_server() {
        let space = locater::space::SpaceBuilder::new("request-test")
            .add_access_point("wap1", &["101"])
            .build()
            .unwrap();
        let state = Arc::new(ServerState::new(
            ShardedLocaterService::new(EventStore::new(space), LocaterConfig::default(), 2),
            None,
        ));
        let server = locater::server::Server::bind(
            Arc::clone(&state),
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .expect("bind loopback");
        let addr = server.local_addr().to_string();

        let pong = run(&["request".into(), addr.clone(), "ping".into()]).expect("ping");
        assert!(pong.contains("Pong"), "response frame: {pong}");
        let ingested = run(&[
            "request".into(),
            addr.clone(),
            "ingest".into(),
            "aa:bb:cc:dd:ee:01,1000,wap1".into(),
        ])
        .expect("ingest");
        assert!(ingested.contains("Ingested"), "response frame: {ingested}");
        // Raw JSON frames pass through unchanged.
        let located = run(&[
            "request".into(),
            addr.clone(),
            "{\"Locate\":{\"mac\":\"aa:bb:cc:dd:ee:01\",\"t\":1000}}".into(),
        ])
        .expect("locate");
        assert!(located.contains("Located"), "response frame: {located}");
        assert_eq!(state.service().num_events(), 1);

        assert!(run(&["request".into()]).is_err(), "address is required");
        assert!(
            run(&["request".into(), addr.clone()]).is_err(),
            "a request line is required"
        );
        assert!(
            run(&["request".into(), addr, "quit".into()]).is_err(),
            "quit is not a wire request"
        );
    }

    #[test]
    fn flag_parsing_helpers() {
        let args: Vec<String> = vec![
            "x".into(),
            "--days".into(),
            "9".into(),
            "--dependent".into(),
        ];
        assert_eq!(
            parsed_flag::<String>(&args, "--days", "a count").unwrap(),
            Some("9".to_string())
        );
        assert_eq!(
            parsed_flag::<String>(&args, "--seed", "a seed").unwrap(),
            None
        );
        // A flag with nothing after it, or with another flag after it, has no
        // value: a usage error, never a silent default.
        for dangling in [&["--out"][..], &["--out", "--spill-dir", "d"]] {
            let dangling: Vec<String> = dangling.iter().map(|a| a.to_string()).collect();
            assert!(
                matches!(
                    parsed_flag::<String>(&dangling, "--out", "a path"),
                    Err(CliError::Usage(m)) if m == "--out requires a path"
                ),
                "{dangling:?}"
            );
        }
        let config = config_from_flags(&args);
        assert_eq!(config.fine.mode, FineMode::Dependent);
        assert_eq!(config.cache, CacheMode::Enabled);
        let config = config_from_flags(&["--no-cache".to_string()]);
        assert_eq!(config.cache, CacheMode::Disabled);

        assert_eq!(shards_from_flags(&[]).unwrap(), 1);
        assert_eq!(
            shards_from_flags(&["--shards".into(), "4".into()]).unwrap(),
            4
        );
        assert!(shards_from_flags(&["--shards".into()]).is_err());
        assert!(shards_from_flags(&["--shards".into(), "0".into()]).is_err());
    }

    #[test]
    fn simulate_rejects_non_positive_days_and_dangling_flags() {
        let prefix = std::env::temp_dir().join("locater-cli-never-written");
        let prefix = prefix.to_string_lossy().to_string();
        for flags in [
            &["--days", "-5"][..],
            &["--days", "0"],
            &["--days"],
            &["--seed"],
            &["--seed", "seven"],
        ] {
            let mut args: Vec<String> = vec!["simulate".into(), "office".into(), prefix.clone()];
            args.extend(flags.iter().map(|f| f.to_string()));
            let error = run(&args).expect_err("bad simulate flags must not run");
            assert!(
                matches!(&error, CliError::Usage(m) if m.starts_with(flags[0])),
                "{flags:?}: {error:?}"
            );
        }
        assert!(!std::path::Path::new(&format!("{prefix}.events.csv")).exists());
    }

    /// Every `"--flag"` literal the commands match must be in the help text.
    #[test]
    fn usage_names_every_flag_the_commands_parse() {
        let source = include_str!("locater-cli.rs");
        let commands = &source[..source.find("#[cfg(test)]").expect("test module")];
        let mut flags: Vec<&str> = commands
            .split('"')
            .filter(|literal| literal.starts_with("--"))
            .filter_map(|literal| literal.split_whitespace().next())
            .collect();
        flags.sort_unstable();
        flags.dedup();
        assert!(flags.contains(&"--retries") && flags.contains(&"--days"));
        for flag in flags {
            assert!(usage().contains(flag), "usage() omits {flag}");
        }
    }
}
