//! The four simulated environments of the evaluation (paper §6.3, Table 4):
//! **office**, **university**, **mall** and **airport**, in increasing order of the
//! unpredictability of their occupants.
//!
//! Each scenario is described by a blueprint — its rooms, the AP coverage layout, the
//! people profiles (with per-profile predictability, presence and event-attendance
//! parameters) and the recurring events that drive movement — which is *realized* into
//! a `World` and then simulated. Profile names match the columns of Table 4 so the
//! benchmark harness can report the same rows.

use crate::person::{Behaviour, Person};
use crate::schedule::ScheduledEvent;
use crate::world::World;
use locater_events::clock::{self, Timestamp};
use locater_space::{RoomType, SpaceBuilder};

/// The simulated environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioKind {
    /// An office building (most predictable occupants).
    Office,
    /// A university building (the paper's DBH-like environment).
    University,
    /// A shopping mall.
    Mall,
    /// An airport terminal (least predictable occupants).
    Airport,
}

impl ScenarioKind {
    /// All scenarios, in the order Table 4 lists them.
    pub const ALL: [ScenarioKind; 4] = [
        ScenarioKind::Office,
        ScenarioKind::University,
        ScenarioKind::Mall,
        ScenarioKind::Airport,
    ];

    /// Human-readable scenario name.
    pub fn name(&self) -> &'static str {
        match self {
            ScenarioKind::Office => "Office",
            ScenarioKind::University => "University",
            ScenarioKind::Mall => "Mall",
            ScenarioKind::Airport => "Airport",
        }
    }

    /// The profile names of the scenario, in the order Table 4 lists them.
    pub fn profiles(&self) -> Vec<&'static str> {
        match self {
            ScenarioKind::Office => vec![
                "Janitorial",
                "Visitors",
                "Manager",
                "Employees",
                "Receptionist",
            ],
            ScenarioKind::University => vec![
                "Visitors",
                "Undergraduate",
                "Professor",
                "Graduate",
                "Staff",
            ],
            ScenarioKind::Mall => vec![
                "Random Customer",
                "Regular Customer",
                "Staff",
                "Salesman(Res)",
                "Salesman(Shops)",
            ],
            ScenarioKind::Airport => vec![
                "Passenger",
                "TSA",
                "Airline-Represent",
                "Store-Staff",
                "Res-Staff",
            ],
        }
    }
}

impl std::fmt::Display for ScenarioKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Configuration of one scenario simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioConfig {
    /// Which environment to simulate.
    pub kind: ScenarioKind,
    /// Number of simulated days (the paper generates 15 days per scenario).
    pub days: i64,
    /// Population scale factor; 1.0 reproduces the blueprint populations, smaller
    /// values shrink them proportionally (useful for fast benchmark runs).
    pub scale: f64,
    /// Random seed.
    pub seed: u64,
}

impl ScenarioConfig {
    /// Creates the default configuration for a scenario: 15 days, full scale.
    pub fn new(kind: ScenarioKind) -> Self {
        Self {
            kind,
            days: 15,
            scale: 1.0,
            seed: 0xC0FFEE ^ kind as u64,
        }
    }

    /// Sets the number of simulated days.
    pub fn with_days(mut self, days: i64) -> Self {
        self.days = days.max(1);
        self
    }

    /// Sets the population scale.
    pub fn with_scale(mut self, scale: f64) -> Self {
        self.scale = scale.clamp(0.05, 10.0);
        self
    }

    /// Sets the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

// ---------------------------------------------------------------------------
// Blueprints
// ---------------------------------------------------------------------------

/// One profile of a blueprint: how many people, how predictable, where anchored.
#[derive(Debug, Clone)]
struct ProfileSpec {
    name: &'static str,
    count: usize,
    predictability: f64,
    /// Room names the profile's members are anchored to (round-robin); empty for
    /// profiles without a preferred room (visitors, passengers, random customers).
    anchor_rooms: Vec<String>,
    weekday_presence: f64,
    weekend_presence: f64,
    event_prob: f64,
    arrival_hour: i64,
    stay_hours: i64,
}

/// One recurring event of a blueprint, referencing rooms by name.
#[derive(Debug, Clone)]
struct EventSpec {
    name: &'static str,
    room: String,
    start_hour: i64,
    duration_minutes: i64,
    capacity: usize,
    profiles: Vec<&'static str>,
    daily: bool,
}

/// A full scenario blueprint.
#[derive(Debug, Clone)]
struct Blueprint {
    name: &'static str,
    rooms: Vec<(String, RoomType)>,
    rooms_per_ap: usize,
    overlap: usize,
    profiles: Vec<ProfileSpec>,
    events: Vec<EventSpec>,
}

fn room_names(prefix: &str, count: usize, room_type: RoomType) -> Vec<(String, RoomType)> {
    (1..=count)
        .map(|i| (format!("{prefix}-{i}"), room_type))
        .collect()
}

fn slug(profile: &str) -> String {
    profile
        .to_ascii_lowercase()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect()
}

fn office_blueprint() -> Blueprint {
    let mut rooms = Vec::new();
    rooms.extend(room_names("office", 36, RoomType::Private));
    rooms.extend(room_names("meeting", 6, RoomType::Public));
    rooms.push(("lounge".into(), RoomType::Public));
    rooms.push(("kitchen".into(), RoomType::Public));
    rooms.push(("reception".into(), RoomType::Public));
    rooms.push(("janitor-closet".into(), RoomType::Private));
    rooms.push(("storage".into(), RoomType::Private));
    rooms.push(("server-room".into(), RoomType::Private));
    let offices: Vec<String> = (1..=36).map(|i| format!("office-{i}")).collect();
    Blueprint {
        name: "Office",
        rooms,
        rooms_per_ap: 8,
        overlap: 2,
        profiles: vec![
            ProfileSpec {
                name: "Janitorial",
                count: 4,
                predictability: 0.35,
                anchor_rooms: vec!["janitor-closet".into()],
                weekday_presence: 0.95,
                weekend_presence: 0.4,
                event_prob: 0.05,
                arrival_hour: 6,
                stay_hours: 8,
            },
            ProfileSpec {
                name: "Visitors",
                count: 14,
                predictability: 0.2,
                anchor_rooms: Vec::new(),
                weekday_presence: 0.3,
                weekend_presence: 0.02,
                event_prob: 0.4,
                arrival_hour: 10,
                stay_hours: 3,
            },
            ProfileSpec {
                name: "Manager",
                count: 4,
                predictability: 0.72,
                anchor_rooms: offices[..4].to_vec(),
                weekday_presence: 0.9,
                weekend_presence: 0.1,
                event_prob: 0.7,
                arrival_hour: 9,
                stay_hours: 9,
            },
            ProfileSpec {
                name: "Employees",
                count: 24,
                predictability: 0.85,
                anchor_rooms: offices[4..].to_vec(),
                weekday_presence: 0.92,
                weekend_presence: 0.05,
                event_prob: 0.5,
                arrival_hour: 9,
                stay_hours: 8,
            },
            ProfileSpec {
                name: "Receptionist",
                count: 2,
                predictability: 0.93,
                anchor_rooms: vec!["reception".into()],
                weekday_presence: 0.98,
                weekend_presence: 0.0,
                event_prob: 0.1,
                arrival_hour: 8,
                stay_hours: 9,
            },
        ],
        events: vec![
            EventSpec {
                name: "standup",
                room: "meeting-1".into(),
                start_hour: 9,
                duration_minutes: 30,
                capacity: 12,
                profiles: vec!["Employees", "Manager"],
                daily: false,
            },
            EventSpec {
                name: "project-sync",
                room: "meeting-2".into(),
                start_hour: 14,
                duration_minutes: 60,
                capacity: 10,
                profiles: vec!["Employees", "Manager", "Visitors"],
                daily: false,
            },
            EventSpec {
                name: "lunch",
                room: "kitchen".into(),
                start_hour: 12,
                duration_minutes: 45,
                capacity: 30,
                profiles: vec![],
                daily: true,
            },
        ],
    }
}

fn university_blueprint() -> Blueprint {
    let mut rooms = Vec::new();
    rooms.extend(room_names("classroom", 10, RoomType::Public));
    rooms.extend(room_names("lab", 8, RoomType::Private));
    rooms.extend(room_names("faculty-office", 12, RoomType::Private));
    rooms.extend(room_names("grad-office", 10, RoomType::Private));
    rooms.extend(room_names("staff-office", 4, RoomType::Private));
    rooms.push(("library".into(), RoomType::Public));
    rooms.push(("student-lounge".into(), RoomType::Public));
    rooms.push(("cafeteria".into(), RoomType::Public));
    rooms.push(("conference-hall".into(), RoomType::Public));
    let faculty: Vec<String> = (1..=12).map(|i| format!("faculty-office-{i}")).collect();
    let grad: Vec<String> = (1..=10).map(|i| format!("grad-office-{i}")).collect();
    let staff: Vec<String> = (1..=4).map(|i| format!("staff-office-{i}")).collect();
    let labs: Vec<String> = (1..=8).map(|i| format!("lab-{i}")).collect();
    Blueprint {
        name: "University",
        rooms,
        rooms_per_ap: 9,
        overlap: 2,
        profiles: vec![
            ProfileSpec {
                name: "Visitors",
                count: 10,
                predictability: 0.18,
                anchor_rooms: Vec::new(),
                weekday_presence: 0.25,
                weekend_presence: 0.05,
                event_prob: 0.3,
                arrival_hour: 11,
                stay_hours: 3,
            },
            ProfileSpec {
                name: "Undergraduate",
                count: 40,
                predictability: 0.5,
                anchor_rooms: vec!["library".into(), "student-lounge".into()],
                weekday_presence: 0.8,
                weekend_presence: 0.15,
                event_prob: 0.85,
                arrival_hour: 10,
                stay_hours: 6,
            },
            ProfileSpec {
                name: "Professor",
                count: 10,
                predictability: 0.75,
                anchor_rooms: faculty,
                weekday_presence: 0.85,
                weekend_presence: 0.1,
                event_prob: 0.7,
                arrival_hour: 9,
                stay_hours: 8,
            },
            ProfileSpec {
                name: "Graduate",
                count: 20,
                predictability: 0.8,
                anchor_rooms: [grad, labs].concat(),
                weekday_presence: 0.9,
                weekend_presence: 0.3,
                event_prob: 0.5,
                arrival_hour: 10,
                stay_hours: 9,
            },
            ProfileSpec {
                name: "Staff",
                count: 6,
                predictability: 0.92,
                anchor_rooms: staff,
                weekday_presence: 0.97,
                weekend_presence: 0.0,
                event_prob: 0.2,
                arrival_hour: 8,
                stay_hours: 8,
            },
        ],
        events: vec![
            EventSpec {
                name: "morning-lecture",
                room: "classroom-1".into(),
                start_hour: 9,
                duration_minutes: 80,
                capacity: 35,
                profiles: vec!["Undergraduate", "Professor"],
                daily: false,
            },
            EventSpec {
                name: "midday-lecture",
                room: "classroom-2".into(),
                start_hour: 11,
                duration_minutes: 80,
                capacity: 35,
                profiles: vec!["Undergraduate", "Graduate", "Professor"],
                daily: false,
            },
            EventSpec {
                name: "afternoon-lecture",
                room: "classroom-3".into(),
                start_hour: 14,
                duration_minutes: 80,
                capacity: 35,
                profiles: vec!["Undergraduate", "Professor"],
                daily: false,
            },
            EventSpec {
                name: "seminar",
                room: "conference-hall".into(),
                start_hour: 16,
                duration_minutes: 60,
                capacity: 40,
                profiles: vec!["Graduate", "Professor", "Staff"],
                daily: false,
            },
            EventSpec {
                name: "lunch",
                room: "cafeteria".into(),
                start_hour: 12,
                duration_minutes: 60,
                capacity: 80,
                profiles: vec![],
                daily: true,
            },
        ],
    }
}

fn mall_blueprint() -> Blueprint {
    let mut rooms = Vec::new();
    rooms.extend(room_names("store", 24, RoomType::Public));
    rooms.extend(room_names("restaurant", 6, RoomType::Public));
    rooms.push(("food-court".into(), RoomType::Public));
    rooms.push(("atrium".into(), RoomType::Public));
    rooms.extend(room_names("staff-room", 8, RoomType::Private));
    rooms.extend(room_names("storage", 4, RoomType::Private));
    rooms.push(("security-office".into(), RoomType::Private));
    let stores: Vec<String> = (1..=24).map(|i| format!("store-{i}")).collect();
    let restaurants: Vec<String> = (1..=6).map(|i| format!("restaurant-{i}")).collect();
    let staff_rooms: Vec<String> = (1..=8).map(|i| format!("staff-room-{i}")).collect();
    Blueprint {
        name: "Mall",
        rooms,
        rooms_per_ap: 8,
        overlap: 2,
        profiles: vec![
            ProfileSpec {
                name: "Random Customer",
                count: 40,
                predictability: 0.12,
                anchor_rooms: Vec::new(),
                weekday_presence: 0.25,
                weekend_presence: 0.5,
                event_prob: 0.5,
                arrival_hour: 13,
                stay_hours: 2,
            },
            ProfileSpec {
                name: "Regular Customer",
                count: 20,
                predictability: 0.42,
                anchor_rooms: vec!["food-court".into(), "atrium".into()],
                weekday_presence: 0.45,
                weekend_presence: 0.7,
                event_prob: 0.6,
                arrival_hour: 12,
                stay_hours: 3,
            },
            ProfileSpec {
                name: "Staff",
                count: 10,
                predictability: 0.55,
                anchor_rooms: staff_rooms,
                weekday_presence: 0.9,
                weekend_presence: 0.8,
                event_prob: 0.2,
                arrival_hour: 9,
                stay_hours: 8,
            },
            ProfileSpec {
                name: "Salesman(Res)",
                count: 8,
                predictability: 0.7,
                anchor_rooms: restaurants,
                weekday_presence: 0.9,
                weekend_presence: 0.85,
                event_prob: 0.15,
                arrival_hour: 10,
                stay_hours: 9,
            },
            ProfileSpec {
                name: "Salesman(Shops)",
                count: 8,
                predictability: 0.75,
                anchor_rooms: stores,
                weekday_presence: 0.9,
                weekend_presence: 0.85,
                event_prob: 0.15,
                arrival_hour: 10,
                stay_hours: 9,
            },
        ],
        events: vec![
            EventSpec {
                name: "lunch-rush",
                room: "food-court".into(),
                start_hour: 12,
                duration_minutes: 90,
                capacity: 120,
                profiles: vec![],
                daily: true,
            },
            EventSpec {
                name: "dinner-rush",
                room: "restaurant-1".into(),
                start_hour: 18,
                duration_minutes: 90,
                capacity: 40,
                profiles: vec!["Random Customer", "Regular Customer"],
                daily: true,
            },
            EventSpec {
                name: "shift-briefing",
                room: "staff-room-1".into(),
                start_hour: 9,
                duration_minutes: 20,
                capacity: 20,
                profiles: vec!["Staff", "Salesman(Res)", "Salesman(Shops)"],
                daily: true,
            },
        ],
    }
}

fn airport_blueprint() -> Blueprint {
    let mut rooms = Vec::new();
    rooms.extend(room_names("gate", 8, RoomType::Public));
    rooms.push(("security-checkpoint".into(), RoomType::Public));
    rooms.push(("baggage-claim".into(), RoomType::Public));
    rooms.extend(room_names("shop", 8, RoomType::Public));
    rooms.extend(room_names("restaurant", 5, RoomType::Public));
    rooms.extend(room_names("airline-counter", 6, RoomType::Private));
    rooms.extend(room_names("staff-area", 6, RoomType::Private));
    rooms.push(("tsa-office".into(), RoomType::Private));
    let shops: Vec<String> = (1..=8).map(|i| format!("shop-{i}")).collect();
    let restaurants: Vec<String> = (1..=5).map(|i| format!("restaurant-{i}")).collect();
    let counters: Vec<String> = (1..=6).map(|i| format!("airline-counter-{i}")).collect();
    Blueprint {
        name: "Airport",
        rooms,
        rooms_per_ap: 7,
        overlap: 2,
        profiles: vec![
            ProfileSpec {
                name: "Passenger",
                count: 60,
                predictability: 0.15,
                anchor_rooms: Vec::new(),
                weekday_presence: 0.3,
                weekend_presence: 0.3,
                event_prob: 0.9,
                arrival_hour: 11,
                stay_hours: 3,
            },
            ProfileSpec {
                name: "TSA",
                count: 8,
                predictability: 0.45,
                anchor_rooms: vec!["security-checkpoint".into(), "tsa-office".into()],
                weekday_presence: 0.95,
                weekend_presence: 0.9,
                event_prob: 0.8,
                arrival_hour: 6,
                stay_hours: 9,
            },
            ProfileSpec {
                name: "Airline-Represent",
                count: 10,
                predictability: 0.62,
                anchor_rooms: counters,
                weekday_presence: 0.92,
                weekend_presence: 0.85,
                event_prob: 0.6,
                arrival_hour: 7,
                stay_hours: 9,
            },
            ProfileSpec {
                name: "Store-Staff",
                count: 8,
                predictability: 0.8,
                anchor_rooms: shops,
                weekday_presence: 0.92,
                weekend_presence: 0.85,
                event_prob: 0.1,
                arrival_hour: 8,
                stay_hours: 9,
            },
            ProfileSpec {
                name: "Res-Staff",
                count: 8,
                predictability: 0.85,
                anchor_rooms: restaurants,
                weekday_presence: 0.92,
                weekend_presence: 0.85,
                event_prob: 0.1,
                arrival_hour: 8,
                stay_hours: 9,
            },
        ],
        events: vec![
            EventSpec {
                name: "security-check",
                room: "security-checkpoint".into(),
                start_hour: 10,
                duration_minutes: 30,
                capacity: 60,
                profiles: vec!["Passenger", "TSA"],
                daily: true,
            },
            EventSpec {
                name: "morning-boarding",
                room: "gate-1".into(),
                start_hour: 11,
                duration_minutes: 45,
                capacity: 50,
                profiles: vec!["Passenger", "Airline-Represent"],
                daily: true,
            },
            EventSpec {
                name: "afternoon-boarding",
                room: "gate-4".into(),
                start_hour: 15,
                duration_minutes: 45,
                capacity: 50,
                profiles: vec!["Passenger", "Airline-Represent"],
                daily: true,
            },
            EventSpec {
                name: "dining",
                room: "restaurant-1".into(),
                start_hour: 12,
                duration_minutes: 60,
                capacity: 40,
                profiles: vec!["Passenger", "Res-Staff"],
                daily: true,
            },
        ],
    }
}

fn blueprint_for(kind: ScenarioKind) -> Blueprint {
    match kind {
        ScenarioKind::Office => office_blueprint(),
        ScenarioKind::University => university_blueprint(),
        ScenarioKind::Mall => mall_blueprint(),
        ScenarioKind::Airport => airport_blueprint(),
    }
}

// ---------------------------------------------------------------------------
// Realization
// ---------------------------------------------------------------------------

/// Builds the [`World`] of a scenario configuration.
pub(crate) fn build_world(config: &ScenarioConfig) -> World {
    let blueprint = blueprint_for(config.kind);

    // Space: chunk the room list into overlapping AP coverage areas.
    let mut builder = SpaceBuilder::new(blueprint.name);
    let names: Vec<&str> = blueprint.rooms.iter().map(|(n, _)| n.as_str()).collect();
    let step = blueprint
        .rooms_per_ap
        .saturating_sub(blueprint.overlap)
        .max(1);
    let mut ap_index = 0usize;
    let mut start = 0usize;
    while start < names.len() {
        let end = (start + blueprint.rooms_per_ap).min(names.len());
        builder = builder.add_access_point(&format!("wap{ap_index}"), &names[start..end]);
        ap_index += 1;
        if end == names.len() {
            break;
        }
        start += step;
    }
    for (name, room_type) in &blueprint.rooms {
        builder = builder.room_type(name, *room_type);
    }

    // People: instantiate every profile, registering anchored people as room owners.
    struct Pending {
        mac: String,
        profile: String,
        anchor: Option<String>,
        behaviour: Behaviour,
        monitored: bool,
    }
    let mut pending: Vec<Pending> = Vec::new();
    for spec in &blueprint.profiles {
        let count = ((spec.count as f64 * config.scale).round() as usize).max(1);
        let monitored_count = (count / 3).clamp(1, 5);
        for i in 0..count {
            let mac = format!("{}-{}-{:03}", slug(blueprint.name), slug(spec.name), i);
            let anchor = if spec.anchor_rooms.is_empty() {
                None
            } else {
                Some(spec.anchor_rooms[i % spec.anchor_rooms.len()].clone())
            };
            if let Some(room) = &anchor {
                builder = builder.room_owner(room, &mac);
            }
            let behaviour = Behaviour {
                anchor_prob: spec.predictability.clamp(0.05, 0.98),
                event_prob: spec.event_prob,
                weekday_presence: spec.weekday_presence,
                weekend_presence: spec.weekend_presence,
                arrival_mean: clock::hours(spec.arrival_hour),
                stay_mean: clock::hours(spec.stay_hours),
                ..Behaviour::default()
            };
            pending.push(Pending {
                mac,
                profile: spec.name.to_string(),
                anchor,
                behaviour,
                monitored: i < monitored_count,
            });
        }
    }

    let space = builder
        .build()
        .expect("scenario blueprints are valid spaces");

    let people: Vec<Person> = pending
        .into_iter()
        .map(|p| {
            let mut person = Person::new(p.mac, p.profile).with_behaviour(p.behaviour);
            if let Some(room) = p.anchor {
                person = person.with_anchor(space.room_id(&room).expect("anchor room exists"));
            }
            if p.monitored {
                person = person.monitored();
            }
            person
        })
        .collect();

    // Schedule: resolve room names to ids.
    let schedule: Vec<ScheduledEvent> = blueprint
        .events
        .iter()
        .map(|spec| {
            let room = space.room_id(&spec.room).expect("event room exists");
            let start: Timestamp = clock::hours(spec.start_hour);
            let duration: Timestamp = clock::minutes(spec.duration_minutes);
            let event = if spec.daily {
                ScheduledEvent::daily(spec.name, room, start, duration)
            } else {
                ScheduledEvent::weekdays(spec.name, room, start, duration)
            };
            event
                .with_capacity(spec.capacity)
                .for_profiles(&spec.profiles)
        })
        .collect();

    World {
        space,
        people,
        schedule,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_names_and_profiles_match_table4() {
        assert_eq!(ScenarioKind::ALL.len(), 4);
        assert_eq!(ScenarioKind::Office.name(), "Office");
        assert_eq!(ScenarioKind::Airport.to_string(), "Airport");
        for kind in ScenarioKind::ALL {
            assert_eq!(kind.profiles().len(), 5, "{kind} must list 5 profiles");
        }
        assert!(ScenarioKind::Airport.profiles().contains(&"TSA"));
        assert!(ScenarioKind::Mall.profiles().contains(&"Salesman(Res)"));
        assert!(ScenarioKind::University.profiles().contains(&"Professor"));
        assert!(ScenarioKind::Office.profiles().contains(&"Receptionist"));
    }

    #[test]
    fn config_builders_clamp_inputs() {
        let config = ScenarioConfig::new(ScenarioKind::Office)
            .with_days(0)
            .with_scale(0.0)
            .with_seed(9);
        assert_eq!(config.days, 1);
        assert!(config.scale >= 0.05);
        assert_eq!(config.seed, 9);
        assert_eq!(ScenarioConfig::new(ScenarioKind::Mall).days, 15);
    }

    #[test]
    fn every_scenario_realizes_into_a_consistent_world() {
        for kind in ScenarioKind::ALL {
            let config = ScenarioConfig::new(kind).with_scale(0.3);
            let world = build_world(&config);
            assert!(world.space.num_access_points() >= 4, "{kind}");
            assert!(world.space.num_rooms() >= 20, "{kind}");
            assert!(!world.people.is_empty(), "{kind}");
            assert!(!world.schedule.is_empty(), "{kind}");
            // Every profile of Table 4 is present.
            for profile in kind.profiles() {
                assert!(
                    world.people.iter().any(|p| p.profile == profile),
                    "{kind} is missing profile {profile}"
                );
            }
            // Every anchored person's anchor room exists in the space.
            for person in &world.people {
                if let Some(room) = person.anchor_room {
                    assert!(room.index() < world.space.num_rooms());
                    // The space metadata records the preference (used by Baseline2 and
                    // the room-affinity weights).
                    assert!(
                        world.space.preferred_rooms(&person.mac).contains(&room),
                        "{kind}: {} anchor not registered",
                        person.mac
                    );
                }
            }
            // Some people are monitored for ground-truth evaluation.
            assert!(world.people.iter().any(|p| p.monitored), "{kind}");
            // Regions overlap somewhere (rooms shared between adjacent APs).
            let overlapping = (0..world.space.num_rooms())
                .filter(|&i| {
                    world
                        .space
                        .regions_of_room(locater_space::RoomId::new(i as u32))
                        .len()
                        > 1
                })
                .count();
            assert!(overlapping > 0, "{kind} has no overlapping coverage");
        }
    }

    #[test]
    fn scale_changes_population_size() {
        let small = build_world(&ScenarioConfig::new(ScenarioKind::University).with_scale(0.2));
        let full = build_world(&ScenarioConfig::new(ScenarioKind::University));
        assert!(small.people.len() < full.people.len());
        assert!(full.people.len() >= 80);
    }

    #[test]
    fn profile_predictability_ordering_is_respected() {
        // Within each scenario the blueprint's profile predictability increases along
        // Table 4's column order (visitors/passengers lowest, dedicated staff highest).
        for kind in ScenarioKind::ALL {
            let world = build_world(&ScenarioConfig::new(kind).with_scale(0.3));
            let mean_anchor_prob = |profile: &str| {
                let probs: Vec<f64> = world
                    .people
                    .iter()
                    .filter(|p| p.profile == profile)
                    .map(|p| p.behaviour.anchor_prob)
                    .collect();
                probs.iter().sum::<f64>() / probs.len() as f64
            };
            let profiles = kind.profiles();
            let first = mean_anchor_prob(profiles[0]);
            let last = mean_anchor_prob(profiles[profiles.len() - 1]);
            assert!(
                last > first + 0.2,
                "{kind}: least predictable {first} vs most predictable {last}"
            );
        }
    }
}
