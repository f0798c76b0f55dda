//! Ground-truth trajectories: which room each person was in, and when.
//!
//! In the paper this information comes from participant diaries and camera review
//! (§6.1); in the simulator it is a by-product of trajectory generation. The cleaning
//! experiments only need to answer "where was device `m` at time `t`?", which is what
//! [`GroundTruth::room_at`] provides.

use locater_events::clock::Timestamp;
use locater_events::Interval;
use locater_space::RoomId;
use std::collections::BTreeMap;

/// One contiguous stay of a person in a room.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stay {
    /// The room.
    pub room: RoomId,
    /// The stay interval `[start, end)`.
    pub interval: Interval,
}

impl Stay {
    /// Creates a stay.
    pub fn new(room: RoomId, start: Timestamp, end: Timestamp) -> Self {
        Self {
            room,
            interval: Interval::new(start, end),
        }
    }

    /// Length of the stay in seconds.
    pub fn duration(&self) -> Timestamp {
        self.interval.duration()
    }
}

/// Ground-truth room occupancy per device, time-sorted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroundTruth {
    stays: BTreeMap<String, Vec<Stay>>,
}

impl GroundTruth {
    /// Creates an empty ground truth.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a stay for `mac`. Stays may be recorded out of order; they are kept
    /// sorted by start time.
    pub fn record(&mut self, mac: &str, stay: Stay) {
        if stay.interval.is_empty() {
            return;
        }
        let stays = self.stays.entry(mac.to_string()).or_default();
        match stays.last() {
            Some(last) if last.interval.start > stay.interval.start => {
                let pos = stays.partition_point(|s| s.interval.start <= stay.interval.start);
                stays.insert(pos, stay);
            }
            _ => stays.push(stay),
        }
    }

    /// All device identifiers with recorded stays.
    pub fn macs(&self) -> impl Iterator<Item = &str> {
        self.stays.keys().map(String::as_str)
    }

    /// Number of devices with recorded stays.
    pub fn num_devices(&self) -> usize {
        self.stays.len()
    }

    /// The stays of one device, time-sorted. Empty if the device is unknown.
    pub fn stays_of(&self, mac: &str) -> &[Stay] {
        self.stays.get(mac).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The room `mac` was in at time `t`, or `None` if the person was outside the
    /// building (or unknown).
    pub fn room_at(&self, mac: &str, t: Timestamp) -> Option<RoomId> {
        let stays = self.stays.get(mac)?;
        let pos = stays.partition_point(|s| s.interval.start <= t);
        let candidate = stays.get(pos.checked_sub(1)?)?;
        candidate.interval.contains(t).then_some(candidate.room)
    }

    /// `true` if `mac` was inside the building at time `t`.
    pub fn is_inside(&self, mac: &str, t: Timestamp) -> bool {
        self.room_at(mac, t).is_some()
    }

    /// Total number of seconds `mac` spent inside the building.
    pub(crate) fn inside_seconds(&self, mac: &str) -> Timestamp {
        self.stays_of(mac).iter().map(Stay::duration).sum()
    }

    /// Fraction of `mac`'s inside time spent in `room` (the predictability measure of
    /// §6.2). Returns 0 when the device has no recorded inside time.
    pub(crate) fn room_fraction(&self, mac: &str, room: RoomId) -> f64 {
        let total = self.inside_seconds(mac);
        if total == 0 {
            return 0.0;
        }
        let in_room: Timestamp = self
            .stays_of(mac)
            .iter()
            .filter(|s| s.room == room)
            .map(Stay::duration)
            .sum();
        in_room as f64 / total as f64
    }

    /// The overall time span covered by the recorded stays, if any.
    pub fn span(&self) -> Option<Interval> {
        let mut span: Option<Interval> = None;
        for stays in self.stays.values() {
            for stay in stays {
                span = Some(match span {
                    None => stay.interval,
                    Some(current) => current.hull(&stay.interval),
                });
            }
        }
        span
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_lookup() {
        let mut truth = GroundTruth::new();
        truth.record("d1", Stay::new(RoomId::new(1), 100, 200));
        truth.record("d1", Stay::new(RoomId::new(2), 300, 400));
        assert_eq!(truth.num_devices(), 1);
        assert_eq!(truth.stays_of("d1").len(), 2);
        assert_eq!(truth.room_at("d1", 150), Some(RoomId::new(1)));
        assert_eq!(truth.room_at("d1", 350), Some(RoomId::new(2)));
        assert_eq!(truth.room_at("d1", 250), None); // between stays: outside
        assert_eq!(truth.room_at("d1", 50), None);
        assert_eq!(truth.room_at("d1", 400), None); // half-open end
        assert_eq!(truth.room_at("unknown", 150), None);
        assert!(truth.is_inside("d1", 150));
        assert!(!truth.is_inside("d1", 250));
    }

    #[test]
    fn out_of_order_recording_is_sorted() {
        let mut truth = GroundTruth::new();
        truth.record("d1", Stay::new(RoomId::new(2), 300, 400));
        truth.record("d1", Stay::new(RoomId::new(1), 100, 200));
        let stays = truth.stays_of("d1");
        assert_eq!(stays[0].interval.start, 100);
        assert_eq!(stays[1].interval.start, 300);
    }

    #[test]
    fn empty_stays_are_ignored() {
        let mut truth = GroundTruth::new();
        truth.record("d1", Stay::new(RoomId::new(1), 200, 200));
        truth.record("d1", Stay::new(RoomId::new(1), 300, 250));
        assert_eq!(truth.num_devices(), 0);
        assert_eq!(truth.inside_seconds("d1"), 0);
    }

    #[test]
    fn room_fraction_measures_predictability() {
        let mut truth = GroundTruth::new();
        truth.record("d1", Stay::new(RoomId::new(1), 0, 600));
        truth.record("d1", Stay::new(RoomId::new(2), 600, 800));
        assert_eq!(truth.inside_seconds("d1"), 800);
        assert!((truth.room_fraction("d1", RoomId::new(1)) - 0.75).abs() < 1e-9);
        assert!((truth.room_fraction("d1", RoomId::new(2)) - 0.25).abs() < 1e-9);
        assert_eq!(truth.room_fraction("d1", RoomId::new(9)), 0.0);
        assert_eq!(truth.room_fraction("unknown", RoomId::new(1)), 0.0);
    }

    #[test]
    fn span_covers_all_devices() {
        let mut truth = GroundTruth::new();
        assert_eq!(truth.span(), None);
        truth.record("d1", Stay::new(RoomId::new(1), 100, 200));
        truth.record("d2", Stay::new(RoomId::new(1), 500, 900));
        let span = truth.span().unwrap();
        assert_eq!(span.start, 100);
        assert_eq!(span.end, 900);
        let macs: Vec<&str> = truth.macs().collect();
        assert_eq!(macs, vec!["d1", "d2"]);
    }
}
