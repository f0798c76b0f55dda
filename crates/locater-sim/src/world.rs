//! The simulation world and the main generation loop.

use crate::connectivity::emit_events;
use crate::ground_truth::GroundTruth;
use crate::person::{predictability_band, Person, PersonRecord};
use crate::schedule::{DayAttendance, ScheduledEvent};
use crate::trajectory::generate_day;
use locater_events::{Interval, SeededRng};
use locater_space::Space;
use locater_store::{EventStore, RawEvent};

/// A fully specified simulation world: the space, its people and its recurring
/// events. Scenario and campus builders produce a `World`; [`simulate`] turns it into
/// data.
#[derive(Debug, Clone)]
pub(crate) struct World {
    /// The building.
    pub space: Space,
    /// The simulated people (each carrying one device).
    pub people: Vec<Person>,
    /// The recurring events that drive movement.
    pub schedule: Vec<ScheduledEvent>,
}

/// Everything a simulation run produces: the space, the raw connectivity log, the
/// ground-truth trajectories and a record per simulated person.
#[derive(Debug, Clone)]
pub struct SimOutput {
    /// The building the data was generated for.
    pub space: Space,
    /// The raw connectivity events, time-sorted.
    pub events: Vec<RawEvent>,
    /// Ground-truth room occupancy per device.
    pub ground_truth: GroundTruth,
    /// One record per simulated person.
    pub people: Vec<PersonRecord>,
    /// Number of simulated days.
    pub days: i64,
}

impl SimOutput {
    /// Builds an [`EventStore`] from the generated events (ingests everything and
    /// re-estimates per-device validity periods from the data, as a deployment would).
    pub fn build_store(&self) -> EventStore {
        let mut store = EventStore::new(self.space.clone());
        store
            .ingest_batch(self.events.iter())
            .expect("simulator events are always ingestible");
        store.estimate_deltas();
        store
    }

    /// The monitored (ground-truth panel) person records.
    pub fn monitored(&self) -> impl Iterator<Item = &PersonRecord> {
        self.people.iter().filter(|p| p.monitored)
    }

    /// The record of one person, looked up by device identifier.
    pub fn person(&self, mac: &str) -> Option<&PersonRecord> {
        self.people.iter().find(|p| p.mac == mac)
    }

    /// The time span covered by the generated events, if any.
    pub fn span(&self) -> Option<Interval> {
        let first = self.events.first()?.t;
        let last = self.events.last()?.t;
        Some(Interval::new(first, last + 1))
    }
}

/// Runs the generation loop: for every day and every person, generate the day plan,
/// record it as ground truth and emit the connectivity events.
pub(crate) fn simulate(world: &World, days: i64, seed: u64) -> SimOutput {
    let mut rng = SeededRng::new(seed);
    let mut truth = GroundTruth::new();
    let mut events: Vec<RawEvent> = Vec::new();

    for day in 0..days.max(0) {
        let mut attendance = DayAttendance::new(world.schedule.len());
        for person in &world.people {
            let stays = generate_day(
                &mut rng,
                person,
                &world.space,
                &world.schedule,
                day,
                &mut attendance,
            );
            for stay in &stays {
                truth.record(&person.mac, *stay);
            }
            emit_events(&mut rng, person, &stays, &world.space, &mut events);
        }
    }
    events.sort_by(|a, b| a.t.cmp(&b.t).then_with(|| a.mac.cmp(&b.mac)));

    let people = world
        .people
        .iter()
        .map(|person| {
            let measured = person
                .anchor_room
                .map(|room| truth.room_fraction(&person.mac, room))
                .unwrap_or(0.0);
            PersonRecord {
                mac: person.mac.clone(),
                profile: person.profile.clone(),
                anchor_room: person.anchor_room,
                target_predictability: person.behaviour.anchor_prob,
                measured_predictability: measured,
                group: predictability_band(measured).to_string(),
                monitored: person.monitored,
            }
        })
        .collect();

    SimOutput {
        space: world.space.clone(),
        events,
        ground_truth: truth,
        people,
        days,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::person::Behaviour;
    use locater_space::{RoomType, SpaceBuilder};

    fn tiny_world() -> World {
        let space = SpaceBuilder::new("tiny")
            .add_access_point("wap0", &["office-a", "office-b", "lounge"])
            .add_access_point("wap1", &["lounge", "lab"])
            .room_type("lounge", RoomType::Public)
            .room_owner("office-a", "alice")
            .room_owner("office-b", "bob")
            .build()
            .unwrap();
        let alice = Person::new("alice", "Employees")
            .with_anchor(space.room_id("office-a").unwrap())
            .with_behaviour(Behaviour::with_predictability(0.9))
            .monitored();
        let bob = Person::new("bob", "Employees")
            .with_anchor(space.room_id("office-b").unwrap())
            .with_behaviour(Behaviour::with_predictability(0.5));
        World {
            space,
            people: vec![alice, bob],
            schedule: Vec::new(),
        }
    }

    #[test]
    fn simulation_produces_consistent_output() {
        let world = tiny_world();
        let output = simulate(&world, 14, 42);
        assert_eq!(output.days, 14);
        assert_eq!(output.people.len(), 2);
        assert!(!output.events.is_empty());
        assert!(output.ground_truth.num_devices() > 0);
        // Events are sorted by time.
        for w in output.events.windows(2) {
            assert!(w[0].t <= w[1].t);
        }
        // Every event belongs to a simulated person.
        for event in &output.events {
            assert!(output.person(&event.mac).is_some());
        }
        // Spans exist and overlap.
        let span = output.span().unwrap();
        let truth_span = output.ground_truth.span().unwrap();
        assert!(span.overlaps(&truth_span));
    }

    #[test]
    fn predictable_people_measure_as_predictable() {
        let world = tiny_world();
        let output = simulate(&world, 28, 7);
        let alice = output.person("alice").unwrap();
        let bob = output.person("bob").unwrap();
        assert!(alice.measured_predictability > bob.measured_predictability);
        assert!(alice.measured_predictability > 0.6);
        assert!(alice.monitored);
        assert!(!bob.monitored);
        assert_eq!(output.monitored().count(), 1);
    }

    #[test]
    fn build_store_ingests_every_event() {
        let world = tiny_world();
        let output = simulate(&world, 7, 11);
        let store = output.build_store();
        assert_eq!(store.num_events(), output.events.len());
        assert_eq!(store.num_devices(), 2);
        assert!(store.space().num_access_points() == 2);
    }

    #[test]
    fn simulation_is_deterministic_per_seed() {
        let world = tiny_world();
        let a = simulate(&world, 7, 123);
        let b = simulate(&world, 7, 123);
        let c = simulate(&world, 7, 124);
        assert_eq!(a.events, b.events);
        assert_eq!(a.ground_truth, b.ground_truth);
        assert_ne!(a.events, c.events);
    }

    #[test]
    fn zero_days_produces_empty_output() {
        let world = tiny_world();
        let output = simulate(&world, 0, 1);
        assert!(output.events.is_empty());
        assert_eq!(output.ground_truth.num_devices(), 0);
        assert!(output.span().is_none());
    }
}
