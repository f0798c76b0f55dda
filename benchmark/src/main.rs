//! The repo benchmark. One invocation runs one workload once:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload serve_hot|serve_cold|ingest_mixed|batch_clean \
//!     [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! It prints every metric it measured by name with its unit, checks the
//! program's outputs, and ends with one JSON line: the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). See `README.md`.

mod countio;
mod data;
mod harness;
mod layers;
mod report;
mod run;
mod spec;
mod stats;
mod trace;

use report::Report;
use spec::{Plan, Workload};
use std::path::PathBuf;

const USAGE: &str =
    "usage: locater-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: Workload::ServeHot,
        seed: 1,
        seconds: spec::contract().run_seconds as f64,
        traced: false,
        smoke: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or_else(|| {
                    format!(
                        "unknown workload {name:?}; BENCHMARK.json lists {}",
                        spec::contract().workload_names().join(", ")
                    )
                })?);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=60.0).contains(&parsed.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

/// `benchmark/out/`: beside the manifest when run through `cargo run` (which
/// exports `CARGO_MANIFEST_DIR`), else where the crate was built.
fn out_root() -> PathBuf {
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest_dir).join("out")
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let plan = Plan::new(args.workload, args.seconds, args.smoke);
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Before anything spawns a thread: every thread inherits the restriction.
    let pinned = (args.workload == Workload::ServeHot)
        .then(harness::pin_to_one_cpu)
        .flatten();
    println!(
        "workload {} seed {} seconds {} trace {} smoke {} | {cores} cores, {} | closed {} ops, open {} ops at {}/s",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.traced),
        args.smoke,
        pinned.map_or("every one used".to_string(), |cpu| format!("all threads on cpu {cpu}")),
        plan.closed_ops,
        plan.open_ops,
        plan.open_rate,
    );

    let inputs = data::generate(args.workload, plan, args.seed, &out_root(), args.traced);
    // Memory is counted from here: what is held now are the inputs.
    let heap_floor = harness::heap_mib();
    harness::reset_rss_peak();
    let mut report = Report::default();
    report.set("harness.generate_s", inputs.generate_s);
    report.set("harness.script_fnv", f64::from(inputs.script_fnv));
    println!(
        "generated {} events ({} preloaded), panel {}, script fnv {:08x} in {:.3} s",
        inputs.out.events.len(),
        inputs.preload_len,
        inputs.panel.len(),
        inputs.script_fnv,
        inputs.generate_s
    );
    if let Some(template) = &inputs.wal_template {
        println!(
            "wal template: checkpoint of {} events + a log tail of {} events",
            template.base_events, template.tail_events
        );
    }
    if args.traced {
        run::traced(&inputs, &mut report);
    } else {
        run::untraced(&inputs, heap_floor, &mut report);
    }
    let _ = std::fs::remove_dir_all(&inputs.dir);

    // The result line is composed first: it may still flag a missing metric.
    let line = report.result_line(args.traced);
    report.print_metrics();
    println!("{line}");
    if !report.correct() {
        std::process::exit(1);
    }
}
