//! Dataset construction for the experiment harness.
//!
//! Every experiment runs against synthetic data (neither the DBH logs nor the
//! SmartBench outputs are redistributable — see `docs/PAPER_MAPPING.md`); the sizes
//! are controlled by a [`BenchScale`] so the whole suite completes quickly by default
//! (`quick`) and can be scaled up (`exp --full`) when more time is available.

use locater_sim::{
    generated_workload, university_workload, CampusConfig, QueryWorkload, ScenarioConfig,
    ScenarioKind, SimOutput, Simulator,
};
use locater_store::EventStore;

/// Sizing knobs for the experiment datasets and workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchScale {
    /// Weeks of campus data to generate.
    pub campus_weeks: i64,
    /// Number of campus occupants with offices.
    pub campus_population: usize,
    /// Number of campus access points.
    pub campus_access_points: usize,
    /// Size of the monitored ground-truth panel.
    pub campus_monitored: usize,
    /// Queries per monitored person in the university-style workload.
    pub queries_per_person: usize,
    /// Size of the generated (uniform) workload.
    pub generated_queries: usize,
    /// Scenario population scale factor (1.0 = the paper's population mix).
    pub scenario_scale: f64,
    /// Scenario length in days (the paper simulates 15).
    pub scenario_days: i64,
}

impl BenchScale {
    /// The fast configuration used by default: `exp all` takes about 3.8 s on a
    /// 2-vCPU machine.
    pub fn quick() -> Self {
        Self {
            campus_weeks: 8,
            campus_population: 72,
            campus_access_points: 12,
            campus_monitored: 16,
            queries_per_person: 50,
            generated_queries: 2_500,
            scenario_scale: 0.4,
            scenario_days: 12,
        }
    }

    /// A configuration approaching the paper's sizes (6-month-scale data, 5k/100k
    /// query workloads): `exp all --full` takes about 44 s on a 2-vCPU machine.
    pub fn full() -> Self {
        Self {
            campus_weeks: 12,
            campus_population: 240,
            campus_access_points: 32,
            campus_monitored: 22,
            queries_per_person: 230,
            generated_queries: 100_000,
            scenario_scale: 1.0,
            scenario_days: 15,
        }
    }

    /// The campus configuration for this scale.
    pub(crate) fn campus_config(&self) -> CampusConfig {
        CampusConfig {
            access_points: self.campus_access_points,
            population: self.campus_population,
            visitors: self.campus_population / 4,
            monitored: self.campus_monitored,
            weeks: self.campus_weeks,
            ..CampusConfig::default()
        }
    }
}

/// The campus dataset plus its query workloads and event store — the fixture most
/// experiments run against.
#[derive(Debug, Clone)]
pub(crate) struct CampusFixture {
    /// The simulated campus data.
    pub output: SimOutput,
    /// An event store over the data (with per-device δ estimated from the log).
    pub store: EventStore,
    /// The university-style query workload (monitored individuals).
    pub university: QueryWorkload,
    /// The generated (uniform devices × times) query workload.
    pub generated: QueryWorkload,
}

/// Builds the campus fixture for a scale.
pub(crate) fn campus_fixture(scale: &BenchScale) -> CampusFixture {
    let output = Simulator::new(0xBE7C).run_campus(&scale.campus_config());
    let store = output.build_store();
    let university = university_workload(&output, scale.queries_per_person, 0xACAD).shuffled(17);
    let generated = generated_workload(&output, scale.generated_queries, 0x6E7).shuffled(19);
    CampusFixture {
        output,
        store,
        university,
        generated,
    }
}

/// The fixture of one Table-4 scenario.
#[derive(Debug, Clone)]
pub(crate) struct ScenarioFixture {
    /// The simulated data.
    pub output: SimOutput,
    /// Event store over the data.
    pub store: EventStore,
    /// Queries about the monitored members of every profile.
    pub workload: QueryWorkload,
}

/// Builds the fixture of one scenario.
pub(crate) fn scenario_fixture(kind: ScenarioKind, scale: &BenchScale) -> ScenarioFixture {
    let config = ScenarioConfig::new(kind)
        .with_days(scale.scenario_days)
        .with_scale(scale.scenario_scale);
    let output = Simulator::new(0x5CE0).run_scenario(&config);
    let store = output.build_store();
    let workload = university_workload(
        &output,
        scale.queries_per_person / 2 + 5,
        0xE0 + kind as u64,
    )
    .shuffled(23);
    ScenarioFixture {
        output,
        store,
        workload,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> BenchScale {
        BenchScale {
            campus_weeks: 2,
            campus_population: 12,
            campus_access_points: 5,
            campus_monitored: 4,
            queries_per_person: 5,
            generated_queries: 40,
            scenario_scale: 0.15,
            scenario_days: 4,
        }
    }

    #[test]
    fn scales_are_ordered() {
        let quick = BenchScale::quick();
        let full = BenchScale::full();
        assert!(quick.campus_weeks < full.campus_weeks);
        assert!(quick.generated_queries < full.generated_queries);
        assert!(quick.scenario_scale < full.scenario_scale);
    }

    #[test]
    fn campus_fixture_is_consistent() {
        let fixture = campus_fixture(&tiny_scale());
        assert!(!fixture.output.events.is_empty());
        assert_eq!(fixture.store.num_events(), fixture.output.events.len());
        assert_eq!(fixture.university.len(), 4 * 5);
        assert_eq!(fixture.generated.len(), 40);
        // Every university query refers to a device present in the store.
        for query in &fixture.university.queries {
            assert!(
                fixture.store.device_id(&query.mac).is_some()
                    || fixture.output.person(&query.mac).is_some()
            );
        }
    }

    #[test]
    fn scenario_fixture_builds_for_every_kind() {
        let scale = tiny_scale();
        for kind in ScenarioKind::ALL {
            let fixture = scenario_fixture(kind, &scale);
            assert!(!fixture.output.events.is_empty(), "{kind}");
            assert!(!fixture.workload.is_empty(), "{kind}");
        }
    }
}
