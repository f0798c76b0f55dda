//! Day-plan (trajectory) generation.
//!
//! For each person and each simulated day, the generator produces a time-sorted list
//! of [`Stay`]s — the ground-truth trajectory — following the SmartBench-style model
//! of §6.3: people arrive and leave around profile-specific times, spend free segments
//! in their anchor room (with their predictability probability), attend scheduled
//! events their profile is eligible for (subject to per-occurrence capacities), visit
//! other rooms, and occasionally step out of the building.

use crate::ground_truth::Stay;
use crate::person::Person;
use crate::rng::{chance, duration_between, normal_timestamp};
use crate::schedule::{DayAttendance, ScheduledEvent};
use locater_events::clock::{self, Timestamp};
use locater_events::SeededRng;
use locater_space::{RoomId, Space};

/// Minimum / maximum length of a free-segment stay, seconds.
const ANCHOR_STAY_RANGE: (Timestamp, Timestamp) = (clock::minutes(30), clock::minutes(120));
const VISIT_STAY_RANGE: (Timestamp, Timestamp) = (clock::minutes(10), clock::minutes(45));
const EXIT_RANGE: (Timestamp, Timestamp) = (clock::minutes(20), clock::minutes(90));
/// How far ahead a person looks for an upcoming event they could attend.
const EVENT_LOOKAHEAD: Timestamp = clock::minutes(30);

/// Generates the day plan of one person for calendar day `day`.
///
/// `attendance` tracks per-event occupancy for this day so capacities are enforced
/// across people; call sites must iterate people within a day with a shared
/// `DayAttendance`.
pub(crate) fn generate_day(
    rng: &mut SeededRng,
    person: &Person,
    space: &Space,
    events: &[ScheduledEvent],
    day: i64,
    attendance: &mut DayAttendance,
) -> Vec<Stay> {
    let behaviour = &person.behaviour;
    let weekend = clock::day_of_week(day * clock::SECONDS_PER_DAY).is_weekend();
    let presence = if weekend {
        behaviour.weekend_presence
    } else {
        behaviour.weekday_presence
    };
    if !chance(rng, presence) {
        return Vec::new();
    }

    let day_start = day * clock::SECONDS_PER_DAY;
    let arrival = day_start
        + normal_timestamp(
            rng,
            behaviour.arrival_mean,
            behaviour.arrival_std,
            clock::hours(5),
            clock::hours(15),
        );
    let stay_length = normal_timestamp(
        rng,
        behaviour.stay_mean,
        behaviour.stay_std,
        clock::minutes(45),
        clock::hours(15),
    );
    let departure = (arrival + stay_length).min(day_start + clock::hours(23));

    let mut stays: Vec<Stay> = Vec::new();
    let mut t = arrival;
    while t < departure {
        // 1. Upcoming eligible event with free capacity?
        let upcoming = events.iter().enumerate().find(|(idx, event)| {
            event.occurs_on(day)
                && event.admits(&person.profile)
                && attendance.has_room(*idx, event.capacity)
                && event.start_on(day) >= t - EVENT_LOOKAHEAD
                && event.start_on(day) <= t + EVENT_LOOKAHEAD
                && event.end_on(day) <= departure + EVENT_LOOKAHEAD
        });
        if let Some((idx, event)) = upcoming {
            if chance(rng, behaviour.event_prob) {
                let start = event.start_on(day).max(t);
                let end = event.end_on(day).min(departure);
                if end > start {
                    // Fill the time until the event starts with the anchor room.
                    if let (Some(anchor), true) = (person.anchor_room, event.start_on(day) > t) {
                        push_stay(&mut stays, anchor, t, event.start_on(day).min(departure));
                    }
                    push_stay(&mut stays, event.room, start, end);
                    attendance.attend(idx);
                    t = end;
                    continue;
                }
            }
        }

        // 2. Free segment: leave briefly, sit in the anchor room, or visit some room.
        let roll = rng.unit_f64();
        if roll < behaviour.exit_prob {
            t += duration_between(rng, EXIT_RANGE.0, EXIT_RANGE.1);
        } else if roll < behaviour.exit_prob + behaviour.anchor_prob && person.anchor_room.is_some()
        {
            let duration = duration_between(rng, ANCHOR_STAY_RANGE.0, ANCHOR_STAY_RANGE.1);
            let end = (t + duration).min(departure);
            push_stay(&mut stays, person.anchor_room.unwrap(), t, end);
            t = end;
        } else {
            let room = random_room(rng, space, person.anchor_room);
            let duration = duration_between(rng, VISIT_STAY_RANGE.0, VISIT_STAY_RANGE.1);
            let end = (t + duration).min(departure);
            push_stay(&mut stays, room, t, end);
            t = end;
        }
    }
    stays
}

/// Appends a stay, merging it with the previous one when they are contiguous and in
/// the same room (so ground truth does not contain artificial splits).
fn push_stay(stays: &mut Vec<Stay>, room: RoomId, start: Timestamp, end: Timestamp) {
    if end <= start {
        return;
    }
    if let Some(last) = stays.last_mut() {
        if last.room == room && last.interval.end >= start {
            last.interval.end = last.interval.end.max(end);
            return;
        }
    }
    stays.push(Stay::new(room, start, end));
}

/// Picks a room to visit: public rooms with 65% probability (people wander into
/// lounges, kitchens and meeting rooms far more often than into someone else's
/// office), any other room otherwise; the person's own anchor room is excluded so a
/// "visit" always means leaving it.
fn random_room(rng: &mut SeededRng, space: &Space, anchor: Option<RoomId>) -> RoomId {
    let rooms = space.rooms();
    debug_assert!(!rooms.is_empty());
    let publics: Vec<RoomId> = rooms
        .iter()
        .filter(|r| r.is_public() && Some(r.id) != anchor)
        .map(|r| r.id)
        .collect();
    if !publics.is_empty() && chance(rng, 0.65) {
        return publics[rng.range(0..publics.len())];
    }
    for _ in 0..8 {
        let candidate = rooms[rng.range(0..rooms.len())].id;
        if Some(candidate) != anchor {
            return candidate;
        }
    }
    rooms[0].id
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::person::Behaviour;
    use locater_space::{RoomType, SpaceBuilder};

    fn space() -> Space {
        SpaceBuilder::new("traj")
            .add_access_point("wap0", &["office-1", "office-2", "lounge", "meeting"])
            .add_access_point("wap1", &["lab", "kitchen"])
            .room_type("lounge", RoomType::Public)
            .room_type("meeting", RoomType::Public)
            .room_type("kitchen", RoomType::Public)
            .build()
            .unwrap()
    }

    fn worker(space: &Space, predictability: f64) -> Person {
        Person::new("worker", "Employees")
            .with_anchor(space.room_id("office-1").unwrap())
            .with_behaviour(Behaviour::with_predictability(predictability))
    }

    #[test]
    fn stays_are_ordered_disjoint_and_within_the_day() {
        let space = space();
        let person = worker(&space, 0.7);
        let mut rng = SeededRng::new(7);
        for day in 0..10 {
            let mut attendance = DayAttendance::new(0);
            let stays = generate_day(&mut rng, &person, &space, &[], day, &mut attendance);
            for w in stays.windows(2) {
                assert!(
                    w[0].interval.end <= w[1].interval.start,
                    "overlapping stays"
                );
            }
            for stay in &stays {
                assert!(stay.interval.start >= day * clock::SECONDS_PER_DAY);
                assert!(stay.interval.end <= (day + 1) * clock::SECONDS_PER_DAY);
                assert!(stay.duration() > 0);
            }
        }
    }

    #[test]
    fn higher_predictability_means_more_anchor_time() {
        let space = space();
        let anchor = space.room_id("office-1").unwrap();
        let mut rng = SeededRng::new(11);
        let fraction_of = |predictability: f64, rng: &mut SeededRng| -> f64 {
            let person = worker(&space, predictability);
            let mut anchor_time = 0i64;
            let mut total = 0i64;
            for day in 0..20 {
                let mut attendance = DayAttendance::new(0);
                for stay in generate_day(rng, &person, &space, &[], day, &mut attendance) {
                    total += stay.duration();
                    if stay.room == anchor {
                        anchor_time += stay.duration();
                    }
                }
            }
            anchor_time as f64 / total.max(1) as f64
        };
        let low = fraction_of(0.3, &mut rng);
        let high = fraction_of(0.95, &mut rng);
        assert!(high > low + 0.2, "high {high} vs low {low}");
        assert!(high > 0.6);
    }

    #[test]
    fn weekends_are_mostly_absent() {
        let space = space();
        let person = worker(&space, 0.7);
        let mut rng = SeededRng::new(3);
        let mut weekday_days_present = 0;
        let mut weekend_days_present = 0;
        for week in 0..8 {
            for dow in 0..7 {
                let day = week * 7 + dow;
                let mut attendance = DayAttendance::new(0);
                let stays = generate_day(&mut rng, &person, &space, &[], day, &mut attendance);
                if !stays.is_empty() {
                    if dow >= 5 {
                        weekend_days_present += 1;
                    } else {
                        weekday_days_present += 1;
                    }
                }
            }
        }
        assert!(weekday_days_present > 30);
        assert!(weekend_days_present < 8);
    }

    #[test]
    fn scheduled_events_are_attended_and_capacity_is_respected() {
        let space = space();
        let meeting = space.room_id("meeting").unwrap();
        let event = ScheduledEvent::weekdays("standup", meeting, clock::hours(10), clock::hours(1))
            .with_capacity(2)
            .for_profiles(&["Employees"]);
        let events = vec![event];
        let mut rng = SeededRng::new(5);
        // Four eager attendees, capacity two: at most two may attend per day.
        let people: Vec<Person> = (0..4)
            .map(|i| {
                Person::new(format!("p{i}"), "Employees")
                    .with_anchor(space.room_id("office-1").unwrap())
                    .with_behaviour(Behaviour {
                        event_prob: 1.0,
                        exit_prob: 0.0,
                        weekday_presence: 1.0,
                        ..Behaviour::with_predictability(0.6)
                    })
            })
            .collect();
        let mut attended_total = 0usize;
        let mut in_meeting_during_event = 0usize;
        for day in 0..5 {
            let mut attendance = DayAttendance::new(events.len());
            for person in &people {
                let stays = generate_day(&mut rng, person, &space, &events, day, &mut attendance);
                if stays.iter().any(|s| {
                    s.room == meeting
                        && s.interval.overlaps(&locater_events::Interval::new(
                            clock::at(day, 10, 0, 0),
                            clock::at(day, 11, 0, 0),
                        ))
                }) {
                    in_meeting_during_event += 1;
                }
            }
            assert!(
                attendance.counts[0] <= 2,
                "capacity exceeded on day {day}: {}",
                attendance.counts[0]
            );
            attended_total += attendance.counts[0];
        }
        assert!(attended_total > 0, "nobody ever attended the event");
        assert!(in_meeting_during_event >= attended_total);
    }

    #[test]
    fn ineligible_profiles_do_not_attend_events() {
        let space = space();
        let meeting = space.room_id("meeting").unwrap();
        let events = vec![ScheduledEvent::weekdays(
            "faculty-only",
            meeting,
            clock::hours(10),
            clock::hours(1),
        )
        .for_profiles(&["Professor"])];
        let person = Person::new("v", "Visitors").with_behaviour(Behaviour {
            event_prob: 1.0,
            anchor_prob: 0.0,
            exit_prob: 0.0,
            weekday_presence: 1.0,
            ..Behaviour::default()
        });
        let mut rng = SeededRng::new(9);
        // Visitors may still wander into the meeting room randomly, but never via the
        // event path with its exact time window — check the event slot is not always
        // occupied by them.
        let mut hits = 0;
        for day in 0..20 {
            let mut attendance = DayAttendance::new(events.len());
            let _ = generate_day(&mut rng, &person, &space, &events, day, &mut attendance);
            hits += attendance.counts[0];
        }
        assert_eq!(hits, 0, "ineligible profile recorded as attendee");
    }

    #[test]
    fn push_stay_merges_contiguous_same_room_segments() {
        let mut stays = Vec::new();
        push_stay(&mut stays, RoomId::new(1), 0, 100);
        push_stay(&mut stays, RoomId::new(1), 100, 200);
        push_stay(&mut stays, RoomId::new(2), 250, 300);
        push_stay(&mut stays, RoomId::new(2), 290, 280); // empty → ignored
        assert_eq!(stays.len(), 2);
        assert_eq!(stays[0].interval, locater_events::Interval::new(0, 200));
        assert_eq!(stays[1].room, RoomId::new(2));
    }
}
