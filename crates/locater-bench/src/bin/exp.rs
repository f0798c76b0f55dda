//! Prints the result tables of one paper experiment, or of the whole evaluation:
//! `exp <fig7|table2|fig8|fig9|table3|table4|fig10|fig11|fig12|ablations|all> [--full]`.

use locater_bench::datasets::BenchScale;
use locater_bench::experiments::{self, EXPERIMENTS};
use locater_bench::{print_tables, Table};
use std::process::ExitCode;

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    format!(
        "usage: exp <{}|all> [--full]\n  --full  paper-sized datasets (`all` takes about 44 s on 2 vCPUs; the default quick scale about 3.8 s)",
        names.join("|")
    )
}

/// Splits the arguments into the experiment name and the scale; anything else
/// (no name, two names, an unknown flag) is a usage error.
fn parse(args: &[String]) -> Result<(&str, BenchScale), String> {
    let mut name = None;
    let mut scale = BenchScale::quick();
    for arg in args {
        match arg.as_str() {
            "--full" => scale = BenchScale::full(),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            other if name.is_none() => name = Some(other),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok((name.ok_or("missing experiment name")?, scale))
}

fn run(args: &[String]) -> Result<Vec<Table>, String> {
    let (name, scale) = parse(args)?;
    let run = match name {
        "all" => experiments::run_all,
        _ => {
            let known = EXPERIMENTS.iter().find(|(known, _)| *known == name);
            known
                .ok_or_else(|| format!("unknown experiment {name:?}"))?
                .1
        }
    };
    eprintln!("running exp {name} at scale {scale:?}");
    if name == "all" {
        println!("<!-- generated by `cargo run -p locater-bench --release --bin exp -- all` -->\n");
    }
    Ok(run(&scale))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(tables) => {
            print_tables(&tables);
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("error: {error}\n{}", usage());
            ExitCode::FAILURE
        }
    }
}
