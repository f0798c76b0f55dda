//! One module per table/figure of the paper's evaluation (§6), plus the ablation
//! studies.
//!
//! Every module exposes `run(scale) -> Vec<Table>`: it builds the required synthetic
//! datasets, evaluates the relevant systems, and returns result tables that contain
//! the measured values of this reproduction next to the values the paper reports.
//! [`EXPERIMENTS`] names them in paper order; the `exp` binary prints one by name
//! and [`run_all`] concatenates them all.

pub mod ablation;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table2;
pub mod table3;
pub mod table4;

use crate::datasets::BenchScale;
use crate::report::Table;

type Run = fn(&BenchScale) -> Vec<Table>;

/// Every experiment in paper order: the name `exp` accepts and the `run` behind it.
pub const EXPERIMENTS: [(&str, Run); 10] = [
    ("fig7", fig7::run),
    ("table2", table2::run),
    ("fig8", fig8::run),
    ("fig9", fig9::run),
    ("table3", table3::run),
    ("table4", table4::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("fig12", fig12::run),
    ("ablations", ablation::run),
];

/// Runs every experiment in paper order and returns all result tables.
pub fn run_all(scale: &BenchScale) -> Vec<Table> {
    EXPERIMENTS.iter().flat_map(|(_, run)| run(scale)).collect()
}

/// The scale used by the experiment unit tests: small enough for CI, large enough to
/// exercise every code path.
#[cfg(test)]
pub(crate) fn test_scale() -> BenchScale {
    BenchScale {
        campus_weeks: 2,
        campus_population: 16,
        campus_access_points: 5,
        campus_monitored: 4,
        queries_per_person: 4,
        generated_queries: 30,
        scenario_scale: 0.15,
        scenario_days: 3,
    }
}
