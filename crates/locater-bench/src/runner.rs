//! Query-evaluation loops shared by all experiments.
//!
//! An experiment evaluates one or more *systems* (LOCATER configurations or the
//! baselines of §6.1) against a [`QueryWorkload`], scoring every answer against the
//! simulator ground truth with the paper's `P_c` / `P_f` / `P_o` metrics and timing
//! every query for the efficiency experiments.

use locater_core::baselines::BaselineSystem;
use locater_core::metrics::{EvaluationReport, PrecisionCounts, TruthLocation};
use locater_core::system::{LocateRequest, LocaterConfig, Location, ShardedLocaterService};
use locater_events::clock::Timestamp;
use locater_sim::{QueryWorkload, SimOutput};
use locater_store::EventStore;
use std::time::{Duration, Instant};

/// The ground-truth location of `mac` at `t` according to the simulator.
pub(crate) fn truth_at(output: &SimOutput, mac: &str, t: Timestamp) -> TruthLocation {
    match output.ground_truth.room_at(mac, t) {
        Some(room) => TruthLocation::Room(room),
        None => TruthLocation::Outside,
    }
}

/// Group label used by Table 3: the predictability band of the queried person.
pub(crate) fn predictability_group(output: &SimOutput, mac: &str) -> String {
    output
        .person(mac)
        .map(|p| p.group.clone())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Group label used by Table 4: the profile of the queried person.
pub(crate) fn profile_group(output: &SimOutput, mac: &str) -> String {
    output
        .person(mac)
        .map(|p| p.profile.clone())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The outcome of evaluating one system over one workload.
#[derive(Debug, Clone)]
pub(crate) struct SystemEvaluation {
    /// System name ("I-LOCATER", "Baseline2", …).
    pub name: String,
    /// Precision counters per group.
    pub report: EvaluationReport,
    /// Per-query wall-clock time, in the execution order of the workload.
    pub per_query: Vec<Duration>,
}

impl SystemEvaluation {
    /// Precision counters aggregated over all groups.
    pub(crate) fn overall(&self) -> PrecisionCounts {
        self.report.overall()
    }

    /// Mean wall-clock time per query.
    pub(crate) fn avg_query_time(&self) -> Duration {
        if self.per_query.is_empty() {
            return Duration::ZERO;
        }
        self.per_query.iter().sum::<Duration>() / self.per_query.len() as u32
    }

    /// Cumulative average query time sampled at `points` evenly spaced checkpoints —
    /// the series Fig. 10 plots ("average time per query vs #processed queries").
    pub(crate) fn cumulative_average_series(&self, points: usize) -> Vec<(usize, Duration)> {
        if self.per_query.is_empty() || points == 0 {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(points);
        let step = (self.per_query.len() / points).max(1);
        let mut running = Duration::ZERO;
        for (idx, &duration) in self.per_query.iter().enumerate() {
            running += duration;
            let processed = idx + 1;
            if processed % step == 0 || processed == self.per_query.len() {
                out.push((processed, running / processed as u32));
            }
        }
        out
    }
}

/// Evaluates a LOCATER configuration over a workload. The event store is cloned so
/// repeated evaluations never see each other's caches.
pub(crate) fn evaluate_locater(
    name: &str,
    output: &SimOutput,
    store: &EventStore,
    config: LocaterConfig,
    workload: &QueryWorkload,
    group_of: &dyn Fn(&str) -> String,
) -> SystemEvaluation {
    let service = ShardedLocaterService::new(store.clone(), config, 1);
    let mut report = EvaluationReport::new(name);
    let mut per_query = Vec::with_capacity(workload.len());
    for query in &workload.queries {
        let started = Instant::now();
        let predicted = service
            .locate(&LocateRequest::by_mac(&query.mac, query.t))
            .map(|response| response.answer.location)
            // Devices absent from the log cannot be placed inside the building.
            .unwrap_or(Location::Outside);
        per_query.push(started.elapsed());
        let truth = truth_at(output, &query.mac, query.t);
        report.record(&group_of(&query.mac), &output.space, truth, &predicted);
    }
    SystemEvaluation {
        name: name.to_string(),
        report,
        per_query,
    }
}

/// Evaluates one of the baselines over a workload.
pub(crate) fn evaluate_baseline(
    output: &SimOutput,
    store: &EventStore,
    baseline: &mut dyn BaselineSystem,
    workload: &QueryWorkload,
    group_of: &dyn Fn(&str) -> String,
) -> SystemEvaluation {
    let name = baseline.name().to_string();
    let mut report = EvaluationReport::new(&name);
    let mut per_query = Vec::with_capacity(workload.len());
    for query in &workload.queries {
        let started = Instant::now();
        let predicted = match store.device_id(&query.mac) {
            Some(device) => baseline.locate(store, device, query.t).location,
            None => Location::Outside,
        };
        per_query.push(started.elapsed());
        let truth = truth_at(output, &query.mac, query.t);
        report.record(&group_of(&query.mac), &output.space, truth, &predicted);
    }
    SystemEvaluation {
        name,
        report,
        per_query,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{campus_fixture, BenchScale, CampusFixture};
    use locater_core::baselines::{Baseline1, Baseline2};
    use locater_core::system::FineMode;

    fn tiny_fixture() -> CampusFixture {
        campus_fixture(&BenchScale {
            campus_weeks: 2,
            campus_population: 16,
            campus_access_points: 5,
            campus_monitored: 5,
            queries_per_person: 6,
            generated_queries: 30,
            scenario_scale: 0.2,
            scenario_days: 3,
        })
    }

    #[test]
    fn locater_evaluation_scores_every_query() {
        let fixture = tiny_fixture();
        let group = |mac: &str| predictability_group(&fixture.output, mac);
        let eval = evaluate_locater(
            "I-LOCATER",
            &fixture.output,
            &fixture.store,
            LocaterConfig::default(),
            &fixture.university,
            &group,
        );
        assert_eq!(eval.per_query.len(), fixture.university.len());
        assert_eq!(eval.overall().queries, fixture.university.len());
        assert!(eval.avg_query_time() > Duration::ZERO);
        // The system must do visibly better than chance at the coarse level on a
        // dataset this regular.
        assert!(eval.overall().pc() > 0.4, "Pc = {}", eval.overall().pc());
        let series = eval.cumulative_average_series(5);
        assert!(!series.is_empty());
        assert_eq!(series.last().unwrap().0, fixture.university.len());
    }

    #[test]
    fn baselines_evaluate_and_locater_beats_baseline1_overall() {
        let fixture = tiny_fixture();
        let group = |mac: &str| predictability_group(&fixture.output, mac);
        let mut baseline1 = Baseline1::default();
        let b1 = evaluate_baseline(
            &fixture.output,
            &fixture.store,
            &mut baseline1,
            &fixture.university,
            &group,
        );
        let mut baseline2 = Baseline2;
        let b2 = evaluate_baseline(
            &fixture.output,
            &fixture.store,
            &mut baseline2,
            &fixture.university,
            &group,
        );
        let locater = evaluate_locater(
            "D-LOCATER",
            &fixture.output,
            &fixture.store,
            LocaterConfig::default().with_fine_mode(FineMode::Dependent),
            &fixture.university,
            &group,
        );
        assert_eq!(b1.name, "Baseline1");
        assert_eq!(b2.name, "Baseline2");
        assert_eq!(b1.overall().queries, locater.overall().queries);
        // The headline claim of the paper: LOCATER's overall precision beats the
        // random-room baseline.
        assert!(
            locater.overall().po() > b1.overall().po(),
            "LOCATER Po {} vs Baseline1 Po {}",
            locater.overall().po(),
            b1.overall().po()
        );
    }

    #[test]
    fn unknown_devices_are_scored_as_outside() {
        let fixture = tiny_fixture();
        let workload = QueryWorkload {
            name: "ghosts".into(),
            queries: vec![locater_sim::WorkloadQuery {
                mac: "never-seen-device".into(),
                t: 1_000,
            }],
        };
        let group = |_: &str| "g".to_string();
        let eval = evaluate_locater(
            "I-LOCATER",
            &fixture.output,
            &fixture.store,
            LocaterConfig::default(),
            &workload,
            &group,
        );
        // Ground truth also says outside (the device has no trajectory), so the
        // answer counts as a correct outside prediction.
        assert_eq!(eval.overall().queries, 1);
        assert_eq!(eval.overall().correct_outside, 1);
    }

    #[test]
    fn group_helpers_fall_back_to_unknown() {
        let fixture = tiny_fixture();
        assert_eq!(predictability_group(&fixture.output, "nope"), "unknown");
        assert_eq!(profile_group(&fixture.output, "nope"), "unknown");
        let known = &fixture.output.people[0].mac;
        assert_ne!(predictability_group(&fixture.output, known), "unknown");
        assert_ne!(profile_group(&fixture.output, known), "unknown");
    }
}
