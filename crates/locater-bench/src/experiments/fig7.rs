//! Figure 7 — coarse precision `P_c` versus the bootstrapping thresholds `τ_l` and
//! `τ_h`.
//!
//! The paper sweeps `τ_l` from 10 to 30 minutes (with `τ_h = 180`) and `τ_h` from 60
//! to 180 minutes (with `τ_l = 20`) and reports that `P_c` peaks around `τ_l = 20`
//! minutes and keeps improving with `τ_h`, levelling off around 170 minutes.

use crate::datasets::{campus_fixture, BenchScale};
use crate::report::{pct, Table};
use crate::runner::evaluate_locater;
use locater_core::system::LocaterConfig;
use locater_events::clock;

/// The `τ_l` sweep (minutes) of the left plot of Fig. 7.
pub(crate) const TAU_L_MINUTES: [i64; 5] = [10, 15, 20, 25, 30];
/// Paper-reported `P_c` (percent, read off the figure) for the `τ_l` sweep.
pub(crate) const PAPER_TAU_L: [f64; 5] = [83.0, 84.5, 85.5, 85.2, 84.8];
/// The `τ_h` sweep (minutes) of the right plot of Fig. 7.
pub(crate) const TAU_H_MINUTES: [i64; 5] = [60, 90, 120, 150, 180];
/// Paper-reported `P_c` (percent, read off the figure) for the `τ_h` sweep.
pub(crate) const PAPER_TAU_H: [f64; 5] = [77.0, 80.0, 82.5, 84.5, 85.8];

/// Runs the experiment.
pub fn run(scale: &BenchScale) -> Vec<Table> {
    let fixture = campus_fixture(scale);
    let group = |_: &str| "all".to_string();

    let mut tau_l_table = Table::new(
        "Figure 7 (left) — coarse precision vs τ_l (τ_h = 180 min)",
        "University-style query workload over the synthetic campus dataset. The paper \
         observes Pc rising to a peak at τ_l = 20 minutes and dipping slightly after.",
        &["τ_l (min)", "Pc measured (%)", "Pc paper (%)"],
    );
    for (&minutes, &paper) in TAU_L_MINUTES.iter().zip(&PAPER_TAU_L) {
        let mut config = LocaterConfig::default();
        config.coarse.tau_low = clock::minutes(minutes);
        config.coarse.tau_high = clock::minutes(180);
        let eval = evaluate_locater(
            &format!("tau_l={minutes}"),
            &fixture.output,
            &fixture.store,
            config,
            &fixture.university,
            &group,
        );
        tau_l_table.push_row(vec![
            minutes.to_string(),
            pct(eval.overall().pc()),
            format!("{paper:.1}"),
        ]);
    }

    let mut tau_h_table = Table::new(
        "Figure 7 (right) — coarse precision vs τ_h (τ_l = 20 min)",
        "The paper observes Pc increasing with τ_h and levelling off beyond ~170 minutes.",
        &["τ_h (min)", "Pc measured (%)", "Pc paper (%)"],
    );
    for (&minutes, &paper) in TAU_H_MINUTES.iter().zip(&PAPER_TAU_H) {
        let mut config = LocaterConfig::default();
        config.coarse.tau_low = clock::minutes(20);
        config.coarse.tau_high = clock::minutes(minutes);
        let eval = evaluate_locater(
            &format!("tau_h={minutes}"),
            &fixture.output,
            &fixture.store,
            config,
            &fixture.university,
            &group,
        );
        tau_h_table.push_row(vec![
            minutes.to_string(),
            pct(eval.overall().pc()),
            format!("{paper:.1}"),
        ]);
    }

    vec![tau_l_table, tau_h_table]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_scale;

    #[test]
    fn fig7_produces_both_sweeps() {
        let tables = run(&test_scale());
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].rows.len(), TAU_L_MINUTES.len());
        assert_eq!(tables[1].rows.len(), TAU_H_MINUTES.len());
        // Every measured cell parses as a percentage.
        for table in &tables {
            for row in &table.rows {
                let measured: f64 = row[1].parse().unwrap();
                assert!((0.0..=100.0).contains(&measured));
            }
        }
    }
}
