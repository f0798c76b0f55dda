//! Connectivity-event emission: turning ground-truth trajectories into the sporadic
//! association log LOCATER has to clean.
//!
//! The paper (§2, §6.3) models association events as stochastic: a device in the
//! coverage area of an AP produces an event only occasionally (first association, OS
//! probes, state changes), so the log contains far fewer events than there are
//! "device was here" instants — and gaps in between. The emitter reproduces that:
//! while a person stays in a room, their device gets an *emission opportunity* every
//! `emit_period` seconds (with jitter) and each opportunity produces an event with
//! probability `emit_prob`; the event is attributed to one of the APs covering the
//! room (usually a stable "primary" AP, occasionally another covering AP, which is
//! what makes regions effectively overlap in the data).

use crate::ground_truth::Stay;
use crate::person::Person;
use crate::rng::chance;
use locater_events::SeededRng;
use locater_space::Space;
use locater_store::RawEvent;

/// Probability that an emission is attributed to the room's primary covering AP (as
/// opposed to another AP that also covers the room).
const PRIMARY_AP_PROB: f64 = 0.85;

/// Probability that the very first opportunity of a stay emits an event regardless of
/// `emit_prob` (devices associate when they enter a new coverage area).
const FIRST_EVENT_PROB: f64 = 0.9;

/// Emits the connectivity events of one person for one list of stays.
///
/// Rooms not covered by any AP produce no events (the paper notes APs may not cover
/// every room, which bounds what any log-based method can see).
pub(crate) fn emit_events(
    rng: &mut SeededRng,
    person: &Person,
    stays: &[Stay],
    space: &Space,
    out: &mut Vec<RawEvent>,
) {
    let period = person.behaviour.emit_period.max(30);
    for stay in stays {
        let regions = space.regions_of_room(stay.room);
        if regions.is_empty() {
            continue;
        }
        // A stable primary AP per (person, room): derived from the room id so the same
        // person in the same room keeps connecting to the same AP across days.
        let primary = regions[stay.room.index() % regions.len()];
        let mut t = stay.interval.start + rng.range(0..=period / 2);
        let mut first = true;
        while t < stay.interval.end {
            let fires = if first {
                chance(rng, FIRST_EVENT_PROB)
            } else {
                chance(rng, person.behaviour.emit_prob)
            };
            if fires {
                let region = if regions.len() == 1 || chance(rng, PRIMARY_AP_PROB) {
                    primary
                } else {
                    regions[rng.range(0..regions.len())]
                };
                let ap_name = space.access_point(region.access_point()).name.clone();
                out.push(RawEvent::new(person.mac.clone(), t, ap_name));
            }
            first = false;
            // Jittered period: 75%–125% of the nominal spacing.
            let jitter = rng.range(-(period / 4)..=period / 4);
            t += (period + jitter).max(30);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::person::Behaviour;
    use locater_events::clock;
    use locater_space::SpaceBuilder;

    fn space() -> Space {
        SpaceBuilder::new("emit")
            .add_access_point("wap0", &["office", "lounge"])
            .add_access_point("wap1", &["lounge", "lab"])
            .add_access_point("wap2", &["storage"])
            .build()
            .unwrap()
    }

    fn person(emit_prob: f64) -> Person {
        Person::new("dev", "Employees").with_behaviour(Behaviour {
            emit_period: clock::minutes(5),
            emit_prob,
            ..Behaviour::default()
        })
    }

    #[test]
    fn events_fall_within_their_stay_and_on_covering_aps() {
        let space = space();
        let office = space.room_id("office").unwrap();
        let stays = vec![Stay::new(office, clock::hours(9), clock::hours(11))];
        let mut rng = SeededRng::new(1);
        let mut events = Vec::new();
        emit_events(&mut rng, &person(0.8), &stays, &space, &mut events);
        assert!(!events.is_empty());
        for event in &events {
            assert!(event.t >= clock::hours(9) && event.t < clock::hours(11));
            // The office is only covered by wap0.
            assert_eq!(event.ap, "wap0");
            assert_eq!(event.mac, "dev");
        }
        // Roughly one opportunity per 5 minutes over 2 hours, 80% firing.
        assert!(events.len() >= 10 && events.len() <= 30, "{}", events.len());
    }

    #[test]
    fn overlap_rooms_occasionally_connect_to_the_secondary_ap() {
        let space = space();
        let lounge = space.room_id("lounge").unwrap();
        let stays = vec![Stay::new(lounge, 0, clock::hours(40))];
        let mut rng = SeededRng::new(2);
        let mut events = Vec::new();
        emit_events(&mut rng, &person(0.9), &stays, &space, &mut events);
        let aps: std::collections::HashSet<&str> = events.iter().map(|e| e.ap.as_str()).collect();
        assert!(
            aps.len() >= 2,
            "expected both covering APs to appear: {aps:?}"
        );
    }

    #[test]
    fn sparser_emission_probability_means_fewer_events() {
        let space = space();
        let office = space.room_id("office").unwrap();
        let stays = vec![Stay::new(office, 0, clock::hours(8))];
        let mut rng = SeededRng::new(3);
        let mut dense = Vec::new();
        emit_events(&mut rng, &person(0.95), &stays, &space, &mut dense);
        let mut sparse = Vec::new();
        emit_events(&mut rng, &person(0.2), &stays, &space, &mut sparse);
        assert!(
            dense.len() > sparse.len() * 2,
            "{} vs {}",
            dense.len(),
            sparse.len()
        );
        assert!(!sparse.is_empty());
    }

    #[test]
    fn uncovered_rooms_emit_nothing() {
        let space = SpaceBuilder::new("partial")
            .add_access_point("wap0", &["covered"])
            .add_room("dark", locater_space::RoomType::Private)
            .build()
            .unwrap();
        let dark = space.room_id("dark").unwrap();
        let stays = vec![Stay::new(dark, 0, clock::hours(4))];
        let mut rng = SeededRng::new(4);
        let mut events = Vec::new();
        emit_events(&mut rng, &person(0.9), &stays, &space, &mut events);
        assert!(events.is_empty());
    }

    #[test]
    fn emission_is_deterministic_per_seed() {
        let space = space();
        let office = space.room_id("office").unwrap();
        let stays = vec![Stay::new(office, 0, clock::hours(3))];
        let run = |seed: u64| {
            let mut rng = SeededRng::new(seed);
            let mut events = Vec::new();
            emit_events(&mut rng, &person(0.7), &stays, &space, &mut events);
            events
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100));
    }
}
