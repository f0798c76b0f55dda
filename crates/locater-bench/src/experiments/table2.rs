//! Table 2 — impact of the room-affinity weight combinations `C1..C4` on the fine
//! precision `P_f`, for I-FINE and D-FINE.
//!
//! The paper reports that all four combinations perform similarly (C2 slightly best)
//! and that D-FINE outperforms I-FINE by ≈4.6 points on average.

use crate::datasets::{campus_fixture, BenchScale};
use crate::report::{pct, Table};
use crate::runner::evaluate_locater;
use locater_core::fine::RoomAffinityWeights;
use locater_core::system::{FineMode, LocaterConfig};

/// The paper's Table 2 values (percent): `P_f` of I-FINE for C1..C4.
pub(crate) const PAPER_I_FINE: [f64; 4] = [81.8, 83.4, 82.3, 82.4];
/// The paper's Table 2 values (percent): `P_f` of D-FINE for C1..C4.
pub(crate) const PAPER_D_FINE: [f64; 4] = [86.1, 87.5, 86.6, 86.4];

/// Runs the experiment.
pub fn run(scale: &BenchScale) -> Vec<Table> {
    let fixture = campus_fixture(scale);
    let group = |_: &str| "all".to_string();
    let combos = ["C1", "C2", "C3", "C4"];

    let mut table = Table::new(
        "Table 2 — fine precision Pf per room-affinity weight combination",
        "C1={0.7,0.2,0.1}, C2={0.6,0.3,0.1}, C3={0.5,0.3,0.2}, C4={0.5,0.4,0.1}. The paper \
         finds the algorithm insensitive to the combination (C2 slightly best) and D-FINE \
         above I-FINE by ~4.6 points.",
        &[
            "combination",
            "I-FINE measured",
            "I-FINE paper",
            "D-FINE measured",
            "D-FINE paper",
        ],
    );

    for (idx, (label, weights)) in combos.iter().zip(RoomAffinityWeights::TABLE2).enumerate() {
        let mut row = vec![label.to_string()];
        for mode in [FineMode::Independent, FineMode::Dependent] {
            let mut config = LocaterConfig::default().with_fine_mode(mode);
            config.fine.weights = weights;
            let eval = evaluate_locater(
                &format!("{label}-{mode}"),
                &fixture.output,
                &fixture.store,
                config,
                &fixture.university,
                &group,
            );
            row.push(pct(eval.overall().pf()));
            let paper = match mode {
                FineMode::Independent => PAPER_I_FINE[idx],
                FineMode::Dependent => PAPER_D_FINE[idx],
            };
            row.push(format!("{paper:.1}"));
        }
        // Reorder into (combo, I measured, I paper, D measured, D paper).
        table.push_row(vec![
            row[0].clone(),
            row[1].clone(),
            row[2].clone(),
            row[3].clone(),
            row[4].clone(),
        ]);
    }

    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_scale;

    #[test]
    fn table2_covers_all_weight_combinations() {
        let tables = run(&test_scale());
        assert_eq!(tables.len(), 1);
        let table = &tables[0];
        assert_eq!(table.rows.len(), 4);
        let labels: Vec<&str> = table.rows.iter().map(|r| r[0].as_str()).collect();
        assert_eq!(labels, vec!["C1", "C2", "C3", "C4"]);
        for row in &table.rows {
            for cell in &row[1..] {
                let value: f64 = cell.parse().unwrap();
                assert!((0.0..=100.0).contains(&value));
            }
        }
    }
}
