//! Table 4 — accuracy per user profile on the four simulated scenarios (office,
//! university, mall, airport).
//!
//! The paper runs D-LOCATER (the better variant) on SmartBench-generated datasets and
//! reports `Pc|Pf|Po` per profile, plus the difference between LOCATER's overall
//! precision and the best baseline's (Baseline2). LOCATER wins everywhere; the margin
//! shrinks for highly unpredictable profiles (passengers, random customers), and the
//! coarse precision stays above ~80% in every scenario.

use crate::datasets::{scenario_fixture, BenchScale};
use crate::report::{triple, Table};
use crate::runner::{evaluate_baseline, evaluate_locater, profile_group};
use locater_core::baselines::{Baseline1, Baseline2};
use locater_core::system::{FineMode, LocaterConfig};
use locater_sim::ScenarioKind;

/// The paper's Table 4 per-profile cells (`Pc|Pf|Po(Δ)` percent), for reference.
pub(crate) fn paper_reference(kind: ScenarioKind) -> Vec<(&'static str, &'static str)> {
    match kind {
        ScenarioKind::Office => vec![
            ("Janitorial", "88|32|31(8)"),
            ("Visitors", "86|36|30(8)"),
            ("Manager", "92|72|69(15)"),
            ("Employees", "90|76|73(22)"),
            ("Receptionist", "92|85|81(21)"),
        ],
        ScenarioKind::University => vec![
            ("Visitors", "85|29|27(5)"),
            ("Undergraduate", "86|52|51(12)"),
            ("Professor", "85|76|68(9)"),
            ("Graduate", "87|81|73(21)"),
            ("Staff", "90|87|80(26)"),
        ],
        ScenarioKind::Mall => vec![
            ("Random Customer", "82|31|27(9)"),
            ("Regular Customer", "83|48|34(20)"),
            ("Staff", "86|55|50(14)"),
            ("Salesman(Res)", "87|72|66(16)"),
            ("Salesman(Shops)", "88|77|65(19)"),
        ],
        ScenarioKind::Airport => vec![
            ("Passenger", "90|29|37(16)"),
            ("TSA", "91|42|43(12)"),
            ("Airline-Represent", "88|71|65(25)"),
            ("Store-Staff", "92|79|80(31)"),
            ("Res-Staff", "90|85|80(27)"),
        ],
    }
}

/// Runs the experiment: one table per scenario.
pub fn run(scale: &BenchScale) -> Vec<Table> {
    ScenarioKind::ALL
        .iter()
        .map(|&kind| run_scenario(kind, scale))
        .collect()
}

/// Runs one scenario and builds its table.
pub fn run_scenario(kind: ScenarioKind, scale: &BenchScale) -> Table {
    let fixture = scenario_fixture(kind, scale);
    let group = |mac: &str| profile_group(&fixture.output, mac);

    let d_locater = evaluate_locater(
        "D-LOCATER",
        &fixture.output,
        &fixture.store,
        LocaterConfig::default().with_fine_mode(FineMode::Dependent),
        &fixture.workload,
        &group,
    );
    let mut baseline1 = Baseline1::default();
    let b1 = evaluate_baseline(
        &fixture.output,
        &fixture.store,
        &mut baseline1,
        &fixture.workload,
        &group,
    );
    let mut baseline2 = Baseline2;
    let b2 = evaluate_baseline(
        &fixture.output,
        &fixture.store,
        &mut baseline2,
        &fixture.workload,
        &group,
    );

    let mut table = Table::new(
        format!("Table 4 — {kind} scenario: D-LOCATER accuracy per profile"),
        "Cells are measured Pc|Pf|Po with, in parentheses, the improvement of Po over the \
         best baseline (negative means the baseline won). The paper's cells are shown in \
         the last column.",
        &[
            "profile",
            "D-LOCATER measured Pc|Pf|Po(Δ best baseline)",
            "queries",
            "paper Pc|Pf|Po(Δ)",
        ],
    );

    for (profile, paper) in paper_reference(kind) {
        let measured = d_locater.report.group(profile);
        let cell = match measured {
            Some(counts) => {
                let best_baseline_po = [&b1, &b2]
                    .iter()
                    .filter_map(|eval| eval.report.group(profile).map(|c| c.po()))
                    .fold(0.0f64, f64::max);
                let delta = (counts.po() - best_baseline_po) * 100.0;
                format!(
                    "{}({:+.0})",
                    triple(counts.pc(), counts.pf(), counts.po()),
                    delta
                )
            }
            None => "n/a".to_string(),
        };
        let queries = measured.map(|c| c.queries).unwrap_or(0);
        table.push_row(vec![
            profile.to_string(),
            cell,
            queries.to_string(),
            paper.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_scale;

    #[test]
    fn table4_covers_one_scenario_with_all_profiles() {
        // Run a single scenario in the unit test to keep it fast; the full sweep is
        // exercised by `exp table4`.
        let table = run_scenario(ScenarioKind::Office, &test_scale());
        assert_eq!(table.rows.len(), 5);
        let profiles: Vec<&str> = table.rows.iter().map(|r| r[0].as_str()).collect();
        assert_eq!(
            profiles,
            vec![
                "Janitorial",
                "Visitors",
                "Manager",
                "Employees",
                "Receptionist"
            ]
        );
    }

    #[test]
    fn paper_reference_lists_five_profiles_per_scenario() {
        for kind in ScenarioKind::ALL {
            assert_eq!(paper_reference(kind).len(), 5);
        }
    }
}
