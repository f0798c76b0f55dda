//! Recurring spatio-temporal events (paper §6.3).
//!
//! The SmartBench-style generator drives people's movement with *events*: a class, a
//! meeting, a security check, a boarding call — each with a room, a recurring time
//! window, a capacity and the set of profiles that may attend. People select events
//! they can attend (in a timely manner) and attend them with their profile's
//! probability; capacity constraints are enforced per occurrence.

use locater_events::clock::{self, Timestamp};
use locater_space::RoomId;

/// A recurring event hosted in one room of the space.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ScheduledEvent {
    /// Human-readable name ("CS101 lecture", "security check", "lunch rush").
    pub name: String,
    /// Room the event takes place in.
    pub room: RoomId,
    /// Days of the week the event occurs on (0 = Monday … 6 = Sunday).
    pub days: Vec<usize>,
    /// Start time, seconds since midnight.
    pub start: Timestamp,
    /// Duration in seconds.
    pub duration: Timestamp,
    /// Maximum number of attendees per occurrence (`usize::MAX` for unbounded).
    pub capacity: usize,
    /// Profiles whose members may attend; an empty list means everyone may.
    pub profiles: Vec<String>,
}

impl ScheduledEvent {
    /// Creates a daily (Monday–Friday) event.
    pub(crate) fn weekdays(
        name: impl Into<String>,
        room: RoomId,
        start: Timestamp,
        duration: Timestamp,
    ) -> Self {
        Self {
            name: name.into(),
            room,
            days: vec![0, 1, 2, 3, 4],
            start,
            duration,
            capacity: usize::MAX,
            profiles: Vec::new(),
        }
    }

    /// Creates an event occurring every day of the week.
    pub(crate) fn daily(
        name: impl Into<String>,
        room: RoomId,
        start: Timestamp,
        duration: Timestamp,
    ) -> Self {
        Self {
            days: vec![0, 1, 2, 3, 4, 5, 6],
            ..Self::weekdays(name, room, start, duration)
        }
    }

    /// Sets the maximum number of attendees per occurrence.
    pub(crate) fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }

    /// Restricts attendance to the listed profiles.
    pub(crate) fn for_profiles(mut self, profiles: &[&str]) -> Self {
        self.profiles = profiles.iter().map(|p| p.to_string()).collect();
        self
    }

    /// `true` if the event occurs on the calendar day with index `day` (days count
    /// from the deployment epoch, which is a Monday).
    pub(crate) fn occurs_on(&self, day: i64) -> bool {
        let dow = clock::day_of_week(day * clock::SECONDS_PER_DAY).index();
        self.days.contains(&dow)
    }

    /// `true` if members of `profile` may attend.
    pub(crate) fn admits(&self, profile: &str) -> bool {
        self.profiles.is_empty() || self.profiles.iter().any(|p| p == profile)
    }

    /// Absolute start timestamp of the occurrence on calendar day `day`.
    pub(crate) fn start_on(&self, day: i64) -> Timestamp {
        day * clock::SECONDS_PER_DAY + self.start
    }

    /// Absolute end timestamp of the occurrence on calendar day `day`.
    pub(crate) fn end_on(&self, day: i64) -> Timestamp {
        self.start_on(day) + self.duration
    }
}

/// Per-day attendance bookkeeping used to enforce event capacities while day plans
/// are being generated.
#[derive(Debug, Clone, Default)]
pub(crate) struct DayAttendance {
    /// Attendees recorded so far, per event index.
    pub(crate) counts: Vec<usize>,
}

impl DayAttendance {
    /// Creates bookkeeping for `num_events` events.
    pub(crate) fn new(num_events: usize) -> Self {
        Self {
            counts: vec![0; num_events],
        }
    }

    /// `true` if event `index` still has room given its `capacity`.
    pub(crate) fn has_room(&self, index: usize, capacity: usize) -> bool {
        self.counts.get(index).is_some_and(|&c| c < capacity)
    }

    /// Records one attendee for event `index`.
    pub(crate) fn attend(&mut self, index: usize) {
        if let Some(count) = self.counts.get_mut(index) {
            *count += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weekday_events_skip_weekends() {
        let event = ScheduledEvent::weekdays(
            "standup",
            RoomId::new(1),
            clock::hours(9),
            clock::minutes(30),
        );
        assert!(event.occurs_on(0)); // Monday
        assert!(event.occurs_on(4)); // Friday
        assert!(!event.occurs_on(5)); // Saturday
        assert!(!event.occurs_on(6)); // Sunday
        assert!(event.occurs_on(7)); // next Monday
    }

    #[test]
    fn daily_events_occur_every_day() {
        let event =
            ScheduledEvent::daily("lunch", RoomId::new(2), clock::hours(12), clock::hours(1));
        for day in 0..14 {
            assert!(event.occurs_on(day));
        }
    }

    #[test]
    fn profile_admission() {
        let open = ScheduledEvent::weekdays("all-hands", RoomId::new(0), 0, 3_600);
        assert!(open.admits("Employees"));
        let restricted = open.clone().for_profiles(&["TSA", "Passenger"]);
        assert!(restricted.admits("TSA"));
        assert!(!restricted.admits("Employees"));
    }

    #[test]
    fn occurrence_timestamps() {
        let event =
            ScheduledEvent::weekdays("class", RoomId::new(0), clock::hours(10), clock::hours(2));
        assert_eq!(event.start_on(3), clock::at(3, 10, 0, 0));
        assert_eq!(event.end_on(3), clock::at(3, 12, 0, 0));
    }

    #[test]
    fn capacity_bookkeeping() {
        let mut attendance = DayAttendance::new(2);
        assert!(attendance.has_room(0, 2));
        attendance.attend(0);
        attendance.attend(0);
        assert!(!attendance.has_room(0, 2));
        assert!(attendance.has_room(1, 2));
        assert_eq!(attendance.counts, [2, 0]);
        // Out-of-range indices are harmless.
        assert!(!attendance.has_room(9, 5));
        attendance.attend(9);
        assert_eq!(attendance.counts, [2, 0]);
    }

    #[test]
    fn capacity_builder_enforces_minimum_of_one() {
        let event = ScheduledEvent::weekdays("tiny", RoomId::new(0), 0, 60).with_capacity(0);
        assert_eq!(event.capacity, 1);
    }
}
