//! Figure 8 — impact of the amount of historical data on `P_c`, `P_f` and `P_o`.
//!
//! The paper varies the history from 0 to 9 weeks for the two least-predictable user
//! groups and observes: coarse precision keeps improving and plateaus around 8 weeks;
//! fine precision roughly doubles from 0 to 1 week of history and plateaus around 3
//! weeks; the overall precision follows the same pattern, and every curve is higher
//! for the more predictable group.

use crate::datasets::{campus_fixture, BenchScale};
use crate::report::{pct, Table};
use crate::runner::{evaluate_locater, predictability_group};
use locater_core::system::{FineMode, LocaterConfig};
use locater_events::clock;

/// The history lengths (weeks) evaluated; a subset of the paper's 0..9 sweep chosen to
/// show the knee of every curve.
pub(crate) const WEEKS: [i64; 5] = [0, 1, 3, 5, 8];

/// The predictability groups plotted by Fig. 8.
pub(crate) const GROUPS: [&str; 2] = ["[40,55)", "[55,70)"];

/// Runs the experiment.
pub fn run(scale: &BenchScale) -> Vec<Table> {
    let fixture = campus_fixture(scale);
    let group = |mac: &str| predictability_group(&fixture.output, mac);

    let mut tables = Vec::new();
    for mode in [FineMode::Independent, FineMode::Dependent] {
        let mut table = Table::new(
            format!("Figure 8 — precision vs weeks of history ({mode})"),
            "Per predictability group; the paper reports the coarse precision plateauing \
             around 8 weeks of history and the fine precision around 3 weeks, with a large \
             jump from 0 to 1 week.",
            &[
                "weeks",
                "group",
                "Pc measured (%)",
                "Pf measured (%)",
                "Po measured (%)",
            ],
        );
        for &weeks in &WEEKS {
            let config = LocaterConfig::default()
                .with_fine_mode(mode)
                .with_history(clock::weeks(weeks).max(1));
            let eval = evaluate_locater(
                &format!("{mode}-{weeks}w"),
                &fixture.output,
                &fixture.store,
                config,
                &fixture.university,
                &group,
            );
            for band in GROUPS {
                if let Some(counts) = eval.report.group(band) {
                    table.push_row(vec![
                        weeks.to_string(),
                        band.to_string(),
                        pct(counts.pc()),
                        pct(counts.pf()),
                        pct(counts.po()),
                    ]);
                }
            }
            // Also report the aggregate over all groups so the trend is visible even
            // when a band happens to be sparsely populated at small scales.
            let overall = eval.overall();
            table.push_row(vec![
                weeks.to_string(),
                "all".to_string(),
                pct(overall.pc()),
                pct(overall.pf()),
                pct(overall.po()),
            ]);
        }
        tables.push(table);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_scale;

    #[test]
    fn fig8_reports_every_history_length() {
        let tables = run(&test_scale());
        assert_eq!(tables.len(), 2);
        for table in &tables {
            // At least the "all" row exists for every history length.
            let weeks_seen: std::collections::HashSet<&str> =
                table.rows.iter().map(|r| r[0].as_str()).collect();
            assert_eq!(weeks_seen.len(), WEEKS.len());
            for row in &table.rows {
                for cell in &row[2..] {
                    let value: f64 = cell.parse().unwrap();
                    assert!((0.0..=100.0).contains(&value));
                }
            }
        }
    }
}
