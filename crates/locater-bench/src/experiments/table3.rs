//! Table 3 — precision per predictability group: baselines vs I-LOCATER vs
//! D-LOCATER.
//!
//! The paper groups the monitored users by the fraction of in-building time they
//! spend in their preferred room ([40,55) … [85,100)) and reports `Pc|Pf|Po` per
//! system. Both LOCATER variants beat Baseline1 everywhere and Baseline2 everywhere
//! except the most predictable group, where selecting the metadata room is already
//! nearly optimal; D-LOCATER is consistently at or above I-LOCATER.

use crate::datasets::{campus_fixture, BenchScale};
use crate::report::{triple, Table};
use crate::runner::{evaluate_baseline, evaluate_locater, predictability_group, SystemEvaluation};
use locater_core::baselines::{Baseline1, Baseline2};
use locater_core::system::{FineMode, LocaterConfig};

/// The predictability groups of Table 3, in paper order.
pub(crate) const GROUPS: [&str; 4] = ["[40,55)", "[55,70)", "[70,85)", "[85,100)"];

/// The paper's Table 3 (`Pc|Pf|Po`, percent) for reference, row per system.
pub(crate) const PAPER_ROWS: [(&str, [&str; 4]); 4] = [
    ("Baseline1", ["56|10|24", "63|8|25", "67|10|26", "73|12|27"]),
    (
        "Baseline2",
        ["62|45|39", "67|63|50", "69|75|57", "76|93|72"],
    ),
    (
        "I-LOCATER",
        ["76|72|61", "83|78|70", "87|84|77", "93|87|84"],
    ),
    (
        "D-LOCATER",
        ["76|77|63", "83|82|72", "87|87|79", "93|92|88"],
    ),
];

fn row_for(table: &mut Table, eval: &SystemEvaluation, paper: &[&str; 4]) {
    let mut cells = vec![eval.name.clone()];
    for (band, paper_cell) in GROUPS.iter().zip(paper) {
        match eval.report.group(band) {
            Some(counts) => {
                cells.push(format!(
                    "{} (paper {paper_cell})",
                    triple(counts.pc(), counts.pf(), counts.po())
                ));
            }
            None => cells.push(format!("n/a (paper {paper_cell})")),
        }
    }
    let overall = eval.overall();
    cells.push(triple(overall.pc(), overall.pf(), overall.po()));
    table.push_row(cells);
}

/// Runs the experiment.
pub fn run(scale: &BenchScale) -> Vec<Table> {
    let fixture = campus_fixture(scale);
    let group = |mac: &str| predictability_group(&fixture.output, mac);

    let mut table = Table::new(
        "Table 3 — Pc|Pf|Po per predictability group",
        "Campus dataset, university-style workload, 8 weeks of history. Cells are \
         measured Pc|Pf|Po with the paper's values in parentheses.",
        &[
            "system",
            "[40,55)",
            "[55,70)",
            "[70,85)",
            "[85,100)",
            "overall (measured)",
        ],
    );

    let mut baseline1 = Baseline1::default();
    let b1 = evaluate_baseline(
        &fixture.output,
        &fixture.store,
        &mut baseline1,
        &fixture.university,
        &group,
    );
    row_for(&mut table, &b1, &PAPER_ROWS[0].1);

    let mut baseline2 = Baseline2;
    let b2 = evaluate_baseline(
        &fixture.output,
        &fixture.store,
        &mut baseline2,
        &fixture.university,
        &group,
    );
    row_for(&mut table, &b2, &PAPER_ROWS[1].1);

    let i_locater = evaluate_locater(
        "I-LOCATER",
        &fixture.output,
        &fixture.store,
        LocaterConfig::default().with_fine_mode(FineMode::Independent),
        &fixture.university,
        &group,
    );
    row_for(&mut table, &i_locater, &PAPER_ROWS[2].1);

    let d_locater = evaluate_locater(
        "D-LOCATER",
        &fixture.output,
        &fixture.store,
        LocaterConfig::default().with_fine_mode(FineMode::Dependent),
        &fixture.university,
        &group,
    );
    row_for(&mut table, &d_locater, &PAPER_ROWS[3].1);

    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_scale;

    #[test]
    fn table3_lists_all_four_systems() {
        let tables = run(&test_scale());
        assert_eq!(tables.len(), 1);
        let table = &tables[0];
        assert_eq!(table.rows.len(), 4);
        let systems: Vec<&str> = table.rows.iter().map(|r| r[0].as_str()).collect();
        assert_eq!(
            systems,
            vec!["Baseline1", "Baseline2", "I-LOCATER", "D-LOCATER"]
        );
        // Overall column is always a Pc|Pf|Po triple.
        for row in &table.rows {
            assert_eq!(row.last().unwrap().split('|').count(), 3);
        }
    }
}
