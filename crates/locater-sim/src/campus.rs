//! The DBH-like campus dataset generator.
//!
//! The paper's main dataset (DBH-WIFI, §6.1) was captured in UC Irvine's Donald Bren
//! Hall: 64 APs, 300+ rooms, six months of data, with ground truth collected for a
//! small panel of monitored individuals grouped by how predictable their behaviour is.
//! We cannot redistribute that dataset, so [`CampusConfig`] generates a synthetic
//! campus building with the same *shape*: many overlapping AP coverage areas (≈11
//! rooms per AP), a mix of offices / conference rooms / lounges, occupants whose
//! predictability spans the paper's four bands `[40,55) … [85,100)`, and a monitored
//! panel for which ground truth queries can be scored.

use crate::person::{Behaviour, Person};
use crate::schedule::ScheduledEvent;
use crate::world::{simulate, SimOutput, World};
use locater_events::clock;
use locater_space::{RoomType, SpaceBuilder};

/// Configuration of the synthetic campus dataset.
///
/// The defaults are sized so that the full evaluation suite runs on a laptop in
/// minutes; scaling `access_points` to 64 and `population` into the thousands
/// reproduces the paper's deployment scale when more time is available.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampusConfig {
    /// Number of WiFi access points (the paper's building has 64).
    pub access_points: usize,
    /// Number of rooms covered by each access point (the paper reports ≈11).
    pub rooms_per_ap: usize,
    /// Number of rooms shared between adjacent access points (coverage overlap).
    pub overlap: usize,
    /// Number of building occupants with an assigned office.
    pub population: usize,
    /// Number of additional visitor devices without a preferred room.
    pub visitors: usize,
    /// Size of the monitored ground-truth panel (the paper had 9 diary participants
    /// plus 13 camera-identified individuals).
    pub monitored: usize,
    /// Number of simulated weeks (the paper uses up to 9 weeks of history plus the
    /// evaluation period).
    pub weeks: i64,
    /// Random seed.
    pub seed: u64,
}

impl Default for CampusConfig {
    fn default() -> Self {
        Self {
            access_points: 16,
            rooms_per_ap: 11,
            overlap: 3,
            population: 96,
            visitors: 24,
            monitored: 20,
            weeks: 10,
            seed: 0xDB15EED,
        }
    }
}

impl CampusConfig {
    /// A small configuration for unit tests and quick examples.
    pub fn small() -> Self {
        Self {
            access_points: 6,
            rooms_per_ap: 8,
            overlap: 2,
            population: 24,
            visitors: 6,
            monitored: 8,
            weeks: 4,
            seed: 0x5A11,
        }
    }

    /// Number of simulated days.
    pub fn days(&self) -> i64 {
        self.weeks * 7
    }

    /// Sets the number of simulated weeks.
    pub fn with_weeks(mut self, weeks: i64) -> Self {
        self.weeks = weeks.max(1);
        self
    }

    /// Sets the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The `metro_campus` large-scenario configuration: a metropolitan campus
    /// an order of magnitude bigger than [`CampusConfig::default`] (64 APs,
    /// hundreds of occupants, a quarter of simulated history), sized like a real
    /// deployment's corpus; the repo benchmark's pinned scenario.
    pub fn metro() -> Self {
        Self {
            access_points: 64,
            rooms_per_ap: 11,
            overlap: 3,
            population: 480,
            visitors: 120,
            monitored: 40,
            weeks: 13,
            seed: 0x3E7209,
        }
    }
}

/// The anchor-probability targets used to populate the paper's four predictability
/// bands. Anchor stays are longer than visits, so the measured fraction of in-building
/// time spent in the preferred room ends up above the per-segment probability; these
/// targets are calibrated so the measured values land in [40,55), [55,70), [70,85)
/// and [85,100) respectively.
const BAND_TARGETS: [f64; 4] = [0.26, 0.42, 0.60, 0.88];

/// Builds the campus [`World`] for a configuration.
pub(crate) fn build_world(config: &CampusConfig) -> World {
    let access_points = config.access_points.max(2);
    let rooms_per_ap = config.rooms_per_ap.max(3);
    let overlap = config.overlap.min(rooms_per_ap - 1);
    let step = rooms_per_ap - overlap;
    let num_rooms = step * (access_points - 1) + rooms_per_ap;

    // Room names mimic DBH's numbering (2001, 2002, …); every 8th room is a shared
    // space (conference room or lounge).
    let room_names: Vec<String> = (0..num_rooms).map(|i| format!("{}", 2000 + i)).collect();
    let is_public = |idx: usize| idx % 8 == 4 || idx.is_multiple_of(8);

    let mut builder = SpaceBuilder::new("Campus-DBH");
    for ap in 0..access_points {
        let start = ap * step;
        let end = (start + rooms_per_ap).min(num_rooms);
        let coverage: Vec<&str> = room_names[start..end].iter().map(String::as_str).collect();
        builder = builder.add_access_point(&format!("wap{ap}"), &coverage);
    }
    for (idx, name) in room_names.iter().enumerate() {
        let room_type = if is_public(idx) {
            RoomType::Public
        } else {
            RoomType::Private
        };
        builder = builder.room_type(name, room_type);
    }

    // Occupants: private rooms are handed out round-robin as offices; predictability
    // targets cycle through the four bands so every band is populated.
    let private_rooms: Vec<&String> = room_names
        .iter()
        .enumerate()
        .filter(|(idx, _)| !is_public(*idx))
        .map(|(_, name)| name)
        .collect();
    let public_rooms: Vec<&String> = room_names
        .iter()
        .enumerate()
        .filter(|(idx, _)| is_public(*idx))
        .map(|(_, name)| name)
        .collect();

    struct Pending {
        mac: String,
        profile: String,
        anchor: Option<String>,
        behaviour: Behaviour,
        monitored: bool,
    }
    let mut pending = Vec::new();
    for i in 0..config.population {
        let mac = format!("occupant-{i:04}");
        let office = private_rooms[i % private_rooms.len()].clone();
        let target = BAND_TARGETS[i % BAND_TARGETS.len()];
        builder = builder.room_owner(&office, &mac);
        pending.push(Pending {
            mac,
            profile: "Occupant".to_string(),
            anchor: Some(office),
            behaviour: Behaviour {
                event_prob: 0.4,
                // Real association logs are sporadic (paper §2): phones sleep, probe
                // rarely and miss re-association opportunities, so a large share of a
                // stay is only covered by the validity window around a handful of
                // events — leaving plenty of gaps for the coarse cleaner to repair.
                emit_period: clock::minutes(16 + (i as i64 % 5) * 3),
                emit_prob: 0.45,
                ..Behaviour::with_predictability(target)
            },
            monitored: i < config.monitored,
        });
    }
    for i in 0..config.visitors {
        pending.push(Pending {
            mac: format!("visitor-{i:04}"),
            profile: "Visitor".to_string(),
            anchor: None,
            behaviour: Behaviour {
                anchor_prob: 0.0,
                event_prob: 0.3,
                weekday_presence: 0.25,
                weekend_presence: 0.05,
                stay_mean: clock::hours(3),
                emit_period: clock::minutes(14),
                emit_prob: 0.5,
                ..Behaviour::default()
            },
            monitored: false,
        });
    }

    let space = builder.build().expect("campus layout is a valid space");

    let people: Vec<Person> = pending
        .into_iter()
        .map(|p| {
            let mut person = Person::new(p.mac, p.profile).with_behaviour(p.behaviour);
            if let Some(room) = p.anchor {
                person = person.with_anchor(space.room_id(&room).expect("office exists"));
            }
            if p.monitored {
                person = person.monitored();
            }
            person
        })
        .collect();

    // Recurring campus events: seminars and meetings in shared rooms plus a daily
    // lunch gathering. These create the co-location patterns the fine-grained
    // algorithm's group affinities feed on.
    let mut schedule = Vec::new();
    for (idx, room) in public_rooms.iter().take(4).enumerate() {
        let room_id = space.room_id(room).unwrap();
        schedule.push(
            ScheduledEvent::weekdays(
                format!("seminar-{idx}"),
                room_id,
                clock::hours(10 + (idx as i64 % 4) * 2),
                clock::minutes(60),
            )
            .with_capacity(20),
        );
    }
    if let Some(lounge) = public_rooms.first() {
        schedule.push(
            ScheduledEvent::daily(
                "lunch",
                space.room_id(lounge).unwrap(),
                clock::hours(12),
                clock::minutes(45),
            )
            .with_capacity(60),
        );
    }

    World {
        space,
        people,
        schedule,
    }
}

/// Generates the campus dataset.
pub fn generate(config: &CampusConfig) -> SimOutput {
    let world = build_world(config);
    simulate(&world, config.days(), config.seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_mirrors_the_papers_shape() {
        let config = CampusConfig::default();
        assert_eq!(config.rooms_per_ap, 11);
        assert!(config.access_points >= 8);
        assert!(config.monitored <= config.population);
        assert_eq!(config.days(), 70);
        let adjusted = config.with_weeks(0).with_seed(1);
        assert_eq!(adjusted.weeks, 1);
        assert_eq!(adjusted.seed, 1);
    }

    #[test]
    fn campus_world_has_overlapping_regions_and_offices() {
        let world = build_world(&CampusConfig::small());
        let space = &world.space;
        assert_eq!(space.num_access_points(), 6);
        assert!((space.avg_rooms_per_ap() - 8.0).abs() < 1.0);
        // Rooms in the overlap belong to two regions.
        let multi_region_rooms = (0..space.num_rooms())
            .filter(|&i| {
                space
                    .regions_of_room(locater_space::RoomId::new(i as u32))
                    .len()
                    > 1
            })
            .count();
        assert!(multi_region_rooms > 0);
        // Every occupant has a registered office; visitors have none.
        for person in &world.people {
            if person.profile == "Occupant" {
                assert!(person.anchor_room.is_some());
                assert!(!space.preferred_rooms(&person.mac).is_empty());
            } else {
                assert!(person.anchor_room.is_none());
            }
        }
        assert!(!world.schedule.is_empty());
    }

    #[test]
    fn generated_dataset_covers_all_predictability_bands() {
        let output = generate(&CampusConfig::small().with_weeks(3));
        assert!(!output.events.is_empty());
        let bands: std::collections::BTreeSet<&str> = output
            .people
            .iter()
            .map(|record| record.group.as_str())
            .collect();
        // Occupant anchor probabilities cycle through four bands; after measurement
        // noise at least three distinct bands must be populated.
        let occupied_bands = bands.iter().filter(|&&label| label != "<40").count();
        assert!(occupied_bands >= 3, "bands: {bands:?}");
        // The monitored panel exists and is the requested size.
        assert_eq!(output.monitored().count(), CampusConfig::small().monitored);
    }

    #[test]
    fn campus_store_builds_and_has_gaps_to_clean() {
        let output = generate(&CampusConfig::small().with_weeks(2));
        let store = output.build_store();
        assert_eq!(store.num_events(), output.events.len());
        assert!(store.num_devices() > 0);
        // At least one monitored device has gaps (missing values to repair).
        let has_gaps = output.monitored().any(|record| {
            store
                .device_id(&record.mac)
                .map(|d| !store.gaps_of(d).is_empty())
                .unwrap_or(false)
        });
        assert!(has_gaps, "campus data should contain gaps");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&CampusConfig::small().with_weeks(1));
        let b = generate(&CampusConfig::small().with_weeks(1));
        assert_eq!(a.events.len(), b.events.len());
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn metro_config_is_a_larger_campus() {
        let metro = CampusConfig::metro();
        let default = CampusConfig::default();
        assert!(metro.access_points > default.access_points);
        assert!(metro.population > default.population);
        assert!(metro.weeks > default.weeks);
    }
}
