//! # locater-sim
//!
//! A SmartBench-style scenario simulator (paper §6.3) and a DBH-like campus dataset
//! generator (paper §6.1) for the LOCATER reproduction.
//!
//! The paper's evaluation uses (a) six months of real WiFi association logs from UC
//! Irvine's Donald Bren Hall with ground truth collected for a monitored panel, and
//! (b) four synthetic environments — office, university, mall, airport — generated
//! with the SmartBench simulator. Neither artifact is redistributable, so this crate
//! rebuilds the generative model from the paper's description:
//!
//! * **People and profiles** (`Person`, `Behaviour`) — each simulated person
//!   carries one device, has a profile (TSA staff, professor, employee, visitor, …),
//!   optionally a preferred *anchor room* (their office), and behavioural parameters
//!   controlling predictability, presence, arrival times and device chattiness.
//! * **Recurring events** (`ScheduledEvent`) — classes, meetings, boarding calls and
//!   lunch rushes with rooms, time windows, capacities and eligible profiles.
//! * **Trajectories** — per day and person, a time-sorted list of room [`Stay`]s
//!   (the ground truth), generated from the behaviour and the event schedule.
//! * **Connectivity emission** — trajectories are converted to sporadic
//!   `⟨mac, timestamp, ap⟩` events with device-specific periodicity, drop-outs and
//!   occasional attribution to a secondary covering AP.
//!
//! [`Simulator`] is the entry point:
//!
//! ```
//! use locater_sim::{CampusConfig, Simulator};
//!
//! let output = Simulator::new(7).run_campus(&CampusConfig::small().with_weeks(2));
//! assert!(!output.events.is_empty());
//! let store = output.build_store();
//! assert_eq!(store.num_events(), output.events.len());
//! // Ground truth answers "where was this device at time t?" for evaluation.
//! let monitored = output.monitored().next().unwrap();
//! let _room_or_outside = output.ground_truth.room_at(&monitored.mac, 3_600);
//! ```
//!
//! The four SmartBench scenarios come from [`ScenarioConfig`]; the large
//! `metro_campus` corpus (the repo benchmark's pinned scenario) is
//! [`CampusConfig::metro`]:
//!
//! ```
//! use locater_sim::{CampusConfig, ScenarioConfig, ScenarioKind, Simulator};
//!
//! let office = Simulator::new(1).run_scenario(
//!     &ScenarioConfig::new(ScenarioKind::Office).with_days(2).with_scale(0.2),
//! );
//! assert!(office.people.iter().any(|p| p.profile == "Employees"));
//!
//! let metro = CampusConfig::metro();
//! assert!(metro.access_points > CampusConfig::default().access_points);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campus;
mod connectivity;
mod ground_truth;
mod person;
mod rng;
pub mod scenario;
mod schedule;
mod trajectory;
pub mod workload;
mod world;

pub use campus::CampusConfig;
pub use ground_truth::{GroundTruth, Stay};
pub use person::PersonRecord;
pub use scenario::{ScenarioConfig, ScenarioKind};
pub use workload::{generated_workload, university_workload, QueryWorkload, WorkloadQuery};
pub use world::SimOutput;

/// The simulator entry point: a thin, seedable facade over the scenario and campus
/// generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Simulator {
    seed: u64,
}

impl Simulator {
    /// Creates a simulator with a base seed. The seed is combined with the seed of
    /// the individual configuration so different runs stay reproducible.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The base seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Generates one of the four Table-4 scenarios.
    pub fn run_scenario(&self, config: &ScenarioConfig) -> SimOutput {
        let world = scenario::build_world(config);
        world::simulate(&world, config.days, config.seed ^ self.seed)
    }

    /// Generates the DBH-like campus dataset.
    pub fn run_campus(&self, config: &CampusConfig) -> SimOutput {
        let adjusted = CampusConfig {
            seed: config.seed ^ self.seed,
            ..*config
        };
        campus::generate(&adjusted)
    }
}

impl Default for Simulator {
    fn default() -> Self {
        Self::new(0x10CA7E12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulator_runs_scenarios_and_campus() {
        let simulator = Simulator::new(3);
        assert_eq!(simulator.seed(), 3);
        let office = simulator.run_scenario(
            &ScenarioConfig::new(ScenarioKind::Office)
                .with_days(3)
                .with_scale(0.2),
        );
        assert!(!office.events.is_empty());
        assert!(office.people.iter().any(|p| p.profile == "Employees"));

        let campus = simulator.run_campus(&CampusConfig::small().with_weeks(1));
        assert!(!campus.events.is_empty());
        assert!(campus.monitored().count() > 0);
    }

    #[test]
    fn different_simulator_seeds_change_the_data() {
        let config = ScenarioConfig::new(ScenarioKind::Office)
            .with_days(2)
            .with_scale(0.2);
        let a = Simulator::new(1).run_scenario(&config);
        let b = Simulator::new(2).run_scenario(&config);
        assert_ne!(a.events, b.events);
        let c = Simulator::new(1).run_scenario(&config);
        assert_eq!(a.events, c.events);
    }

    #[test]
    fn default_simulator_is_usable() {
        let campus = Simulator::default().run_campus(&CampusConfig::small().with_weeks(1));
        assert!(campus.events.len() > 100);
    }
}
