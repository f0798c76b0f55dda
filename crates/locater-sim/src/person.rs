//! People, their devices and their behavioural parameters.
//!
//! The paper's synthetic datasets (§6.3) are generated from *profiles*: types of
//! people (TSA staff, passengers, professors, …) whose members attend the events of
//! the space with different probabilities and who differ in how *predictable* their
//! behaviour is — the fraction of their in-building time they spend in one "preferred"
//! room. [`Behaviour`] captures those knobs for one simulated person, and
//! [`PersonRecord`] is what the simulator reports back about each person (including
//! the predictability band the paper's Tables 3 uses for grouping).

use locater_events::clock::{self, Timestamp};
use locater_space::RoomId;

/// Behavioural parameters of one simulated person and of the device they carry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Behaviour {
    /// Probability that a free time segment is spent in the person's anchor
    /// (preferred) room. This is the main predictability knob.
    pub anchor_prob: f64,
    /// Probability of attending a scheduled event that the person's profile is
    /// eligible for and that is about to start.
    pub event_prob: f64,
    /// Probability of briefly leaving the building during a free segment.
    pub exit_prob: f64,
    /// Probability of coming to the building at all on a weekday.
    pub weekday_presence: f64,
    /// Probability of coming to the building on a weekend day.
    pub weekend_presence: f64,
    /// Mean arrival time, seconds since midnight.
    pub arrival_mean: Timestamp,
    /// Standard deviation of the arrival time, seconds.
    pub arrival_std: Timestamp,
    /// Mean length of the daily stay, seconds.
    pub stay_mean: Timestamp,
    /// Standard deviation of the daily stay length, seconds.
    pub stay_std: Timestamp,
    /// Typical spacing between connectivity events of the person's device while it is
    /// inside the building, seconds.
    pub emit_period: Timestamp,
    /// Probability that a given emission opportunity actually produces a logged event
    /// (the sporadicity of association logs, §2).
    pub emit_prob: f64,
}

impl Default for Behaviour {
    fn default() -> Self {
        Self {
            anchor_prob: 0.6,
            event_prob: 0.5,
            exit_prob: 0.05,
            weekday_presence: 0.9,
            weekend_presence: 0.1,
            arrival_mean: clock::hours(9),
            arrival_std: clock::minutes(45),
            stay_mean: clock::hours(8),
            stay_std: clock::hours(1),
            emit_period: clock::minutes(8),
            emit_prob: 0.7,
        }
    }
}

impl Behaviour {
    /// A behaviour tuned so that roughly `target` of the person's in-building time is
    /// spent in their anchor room (used to populate the predictability bands of
    /// Table 3).
    pub(crate) fn with_predictability(target: f64) -> Self {
        Self {
            anchor_prob: target.clamp(0.05, 0.98),
            event_prob: 0.35,
            ..Self::default()
        }
    }
}

/// One simulated person together with the device they carry.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Person {
    /// The device identifier that will appear in the connectivity log.
    pub mac: String,
    /// Profile name ("Employees", "Passenger", "Graduate", …).
    pub profile: String,
    /// The person's preferred room (their office, desk, counter, …), if any.
    pub anchor_room: Option<RoomId>,
    /// Behavioural parameters.
    pub behaviour: Behaviour,
    /// Whether the person is part of the monitored ground-truth panel (the paper's
    /// diary participants / camera-identified individuals).
    pub monitored: bool,
}

impl Person {
    /// Creates a person with default behaviour.
    pub(crate) fn new(mac: impl Into<String>, profile: impl Into<String>) -> Self {
        Self {
            mac: mac.into(),
            profile: profile.into(),
            anchor_room: None,
            behaviour: Behaviour::default(),
            monitored: false,
        }
    }

    /// Sets the anchor (preferred) room.
    pub(crate) fn with_anchor(mut self, room: RoomId) -> Self {
        self.anchor_room = Some(room);
        self
    }

    /// Sets the behaviour.
    pub(crate) fn with_behaviour(mut self, behaviour: Behaviour) -> Self {
        self.behaviour = behaviour;
        self
    }

    /// Marks the person as part of the monitored ground-truth panel.
    pub(crate) fn monitored(mut self) -> Self {
        self.monitored = true;
        self
    }
}

/// The predictability bands the paper groups users into (§6.2).
pub(crate) const PREDICTABILITY_BANDS: [(&str, f64, f64); 5] = [
    ("<40", 0.0, 0.40),
    ("[40,55)", 0.40, 0.55),
    ("[55,70)", 0.55, 0.70),
    ("[70,85)", 0.70, 0.85),
    ("[85,100)", 0.85, 1.01),
];

/// The band label for a measured predictability value in `[0, 1]`.
pub(crate) fn predictability_band(predictability: f64) -> &'static str {
    for (label, lo, hi) in PREDICTABILITY_BANDS {
        if predictability >= lo && predictability < hi {
            return label;
        }
    }
    "[85,100)"
}

/// What the simulator reports about each simulated person.
#[derive(Debug, Clone, PartialEq)]
pub struct PersonRecord {
    /// Device identifier in the connectivity log.
    pub mac: String,
    /// Profile name.
    pub profile: String,
    /// Anchor room, if any.
    pub anchor_room: Option<RoomId>,
    /// The `anchor_prob` the person was generated with.
    pub target_predictability: f64,
    /// Fraction of the person's simulated in-building time actually spent in the
    /// anchor room.
    pub measured_predictability: f64,
    /// Predictability band of the *measured* value.
    pub group: String,
    /// Whether the person belongs to the monitored ground-truth panel.
    pub monitored: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaviour_defaults_are_sane() {
        let b = Behaviour::default();
        assert!(b.anchor_prob > 0.0 && b.anchor_prob < 1.0);
        assert!(b.weekday_presence > b.weekend_presence);
        assert!(b.emit_period > 0);
        assert!(b.emit_prob > 0.0 && b.emit_prob <= 1.0);
        assert!(b.arrival_mean > 0 && b.stay_mean > 0);
    }

    #[test]
    fn predictability_knob_is_clamped() {
        assert!(Behaviour::with_predictability(1.5).anchor_prob <= 0.98);
        assert!(Behaviour::with_predictability(-0.3).anchor_prob >= 0.05);
        let b = Behaviour::with_predictability(0.77);
        assert!((b.anchor_prob - 0.77).abs() < 1e-9);
    }

    #[test]
    fn person_builder_chains() {
        let p = Person::new("aa:bb:cc:dd:ee:01", "Employees")
            .with_anchor(RoomId::new(3))
            .with_behaviour(Behaviour::with_predictability(0.9))
            .monitored();
        assert_eq!(p.mac, "aa:bb:cc:dd:ee:01");
        assert_eq!(p.profile, "Employees");
        assert_eq!(p.anchor_room, Some(RoomId::new(3)));
        assert!(p.monitored);
        assert!(p.behaviour.anchor_prob > 0.85);
    }

    #[test]
    fn bands_cover_the_unit_interval() {
        assert_eq!(predictability_band(0.1), "<40");
        assert_eq!(predictability_band(0.4), "[40,55)");
        assert_eq!(predictability_band(0.54), "[40,55)");
        assert_eq!(predictability_band(0.55), "[55,70)");
        assert_eq!(predictability_band(0.72), "[70,85)");
        assert_eq!(predictability_band(0.85), "[85,100)");
        assert_eq!(predictability_band(1.0), "[85,100)");
    }
}
