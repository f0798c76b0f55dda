//! Gap detection: the "missing values" of the connectivity log.
//!
//! A *gap* (paper §2) is a maximal period during which no connectivity event of a
//! device is valid. Given two consecutive events `e_0` at `t_0` and `e_1` at `t_1`
//! with validity period `δ`, there is a gap between them iff `t_1 − t_0 > 2δ`, and the
//! gap extends over `[t_0 + δ, t_1 − δ]`.

use crate::clock::{self, Timestamp};
use crate::event::{EventSeq, StoredEvent};
use crate::interval::Interval;
use locater_space::{AccessPointId, RegionId};

/// A gap `gap_{t0,t1}(d)` in the connectivity log of one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gap {
    /// Start of the gap: `t_0 + δ`.
    pub start: Timestamp,
    /// End of the gap: `t_1 − δ`.
    pub end: Timestamp,
    /// Timestamp of the event preceding the gap (`t_0`).
    pub prev_t: Timestamp,
    /// Timestamp of the event following the gap (`t_1`).
    pub next_t: Timestamp,
    /// Access point of the event preceding the gap.
    pub start_ap: AccessPointId,
    /// Access point of the event following the gap.
    pub end_ap: AccessPointId,
}

impl Gap {
    /// Duration of the gap in seconds (`δ(gap)` in the paper's feature list).
    #[inline]
    pub fn duration(&self) -> Timestamp {
        self.end - self.start
    }

    /// The gap as a half-open interval `[start, end)`.
    #[inline]
    pub fn interval(&self) -> Interval {
        Interval::new(self.start, self.end)
    }

    /// `true` if `t` falls inside the gap.
    #[inline]
    pub fn contains(&self, t: Timestamp) -> bool {
        self.start <= t && t < self.end
    }

    /// Region associated with the start of the gap (`gap.g_str`).
    #[inline]
    pub fn start_region(&self) -> RegionId {
        self.start_ap.region()
    }

    /// Region associated with the end of the gap (`gap.g_end`).
    #[inline]
    pub fn end_region(&self) -> RegionId {
        self.end_ap.region()
    }

    /// `true` if the device reappears in the same region it disappeared from.
    #[inline]
    pub fn same_region(&self) -> bool {
        self.start_ap.region() == self.end_ap.region()
    }

    /// Day of week in which the gap starts.
    pub fn start_day(&self) -> crate::clock::DayOfWeek {
        clock::day_of_week(self.start)
    }

    /// Day of week in which the gap ends.
    pub fn end_day(&self) -> crate::clock::DayOfWeek {
        clock::day_of_week(self.end)
    }
}

/// The gap between two *consecutive* events of one device, if their spacing exceeds
/// `2δ`.
pub(crate) fn gap_between(prev: &StoredEvent, next: &StoredEvent, delta: Timestamp) -> Option<Gap> {
    if next.t() - prev.t() > 2 * delta {
        Some(Gap {
            start: prev.t() + delta,
            end: next.t() - delta,
            prev_t: prev.t(),
            next_t: next.t(),
            start_ap: prev.ap(),
            end_ap: next.ap(),
        })
    } else {
        None
    }
}

/// Detects all gaps in a device's event sequence, given its validity period `delta`
/// (`GAP(d_i)` in the paper).
pub fn gaps_in(seq: &EventSeq, delta: Timestamp) -> Vec<Gap> {
    seq.consecutive_pairs()
        .filter_map(|(prev, next)| gap_between(prev, next, delta))
        .collect()
}

/// Gaps whose interval overlaps `window`. Only the consecutive event pairs
/// that can bound such a gap are visited: a gap `[prev.t + δ, next.t − δ)`
/// overlaps `window` only if `next.t > window.start + δ` and
/// `prev.t < window.end − δ`, and both conditions are monotone in the pair
/// index, so the qualifying pairs form one contiguous, binary-searchable run.
pub fn gaps_in_window(seq: &EventSeq, window: Interval, delta: Timestamp) -> Vec<Gap> {
    let events = seq.events();
    if events.len() < 2 {
        return Vec::new();
    }
    let lo = seq
        .partition_le(window.start.saturating_add(delta))
        .saturating_sub(1);
    let hi = seq
        .partition_lt(window.end.saturating_sub(delta))
        .min(events.len() - 1);
    if lo >= hi {
        return Vec::new();
    }
    events[lo..=hi]
        .windows(2)
        .filter_map(|pair| gap_between(&pair[0], &pair[1], delta))
        .filter(|gap| gap.interval().overlaps(&window))
        .collect()
}

/// Finds the gap containing `at`, if `at` falls in one. Returns `None` both when `at`
/// is covered by an event's validity interval and when it lies before the first /
/// after the last event of the sequence (those "open" periods are treated by the
/// coarse localizer as outside-the-building rather than as gaps).
pub fn gap_containing(seq: &EventSeq, at: Timestamp, delta: Timestamp) -> Option<Gap> {
    let events = seq.events();
    if events.is_empty() {
        return None;
    }
    // Find the last event with t <= at and pair it with the next event.
    let pos = events.partition_point(|e| e.t() <= at);
    if pos == 0 || pos >= events.len() {
        return None;
    }
    let gap = gap_between(&events[pos - 1], &events[pos], delta)?;
    gap.contains(at).then_some(gap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::at;

    #[test]
    fn no_gap_when_events_are_close() {
        let seq = EventSeq::from_pairs(&[(100, 0), (200, 0), (290, 1)]);
        assert!(gaps_in(&seq, 60).is_empty());
    }

    #[test]
    fn gap_boundaries_follow_definition() {
        let seq = EventSeq::from_pairs(&[(1_000, 2), (5_000, 3)]);
        let gaps = gaps_in(&seq, 300);
        assert_eq!(gaps.len(), 1);
        let g = gaps[0];
        assert_eq!(g.start, 1_300);
        assert_eq!(g.end, 4_700);
        assert_eq!(g.prev_t, 1_000);
        assert_eq!(g.next_t, 5_000);
        assert_eq!(g.duration(), 3_400);
        assert_eq!(g.start_ap, AccessPointId::new(2));
        assert_eq!(g.end_ap, AccessPointId::new(3));
        assert!(!g.same_region());
        assert_eq!(g.interval(), Interval::new(1_300, 4_700));
    }

    #[test]
    fn boundary_case_exactly_two_delta_is_not_a_gap() {
        let seq = EventSeq::from_pairs(&[(0, 0), (600, 0)]);
        assert!(gaps_in(&seq, 300).is_empty());
        let seq2 = EventSeq::from_pairs(&[(0, 0), (601, 0)]);
        assert_eq!(gaps_in(&seq2, 300).len(), 1);
    }

    #[test]
    fn multiple_gaps_in_one_sequence() {
        let seq = EventSeq::from_pairs(&[(0, 0), (10_000, 1), (10_100, 1), (30_000, 0)]);
        let gaps = gaps_in(&seq, 600);
        assert_eq!(gaps.len(), 2);
        assert_eq!(gaps[0].prev_t, 0);
        assert_eq!(gaps[0].next_t, 10_000);
        assert_eq!(gaps[1].prev_t, 10_100);
        assert_eq!(gaps[1].next_t, 30_000);
    }

    #[test]
    fn gap_containing_finds_the_right_gap() {
        let seq = EventSeq::from_pairs(&[(0, 0), (10_000, 1), (20_000, 2)]);
        let delta = 600;
        let g = gap_containing(&seq, 5_000, delta).unwrap();
        assert_eq!(g.prev_t, 0);
        assert_eq!(g.next_t, 10_000);
        let g = gap_containing(&seq, 15_000, delta).unwrap();
        assert_eq!(g.prev_t, 10_000);
        // Covered instants are not in a gap.
        assert!(gap_containing(&seq, 300, delta).is_none());
        assert!(gap_containing(&seq, 10_200, delta).is_none());
        // Outside the observed span: no gap.
        assert!(gap_containing(&seq, -5_000, delta).is_none());
        assert!(gap_containing(&seq, 50_000, delta).is_none());
        // Empty sequence.
        assert!(gap_containing(&EventSeq::new(), 100, delta).is_none());
    }

    #[test]
    fn same_region_gap() {
        let seq = EventSeq::from_pairs(&[(0, 5), (10_000, 5)]);
        let g = gaps_in(&seq, 100)[0];
        assert!(g.same_region());
        assert_eq!(g.start_region(), g.end_region());
    }

    #[test]
    fn calendar_features_of_gaps() {
        // Gap starting Tuesday 23:00 and ending Wednesday 01:00 spans two days.
        let seq = EventSeq::from_pairs(&[(at(1, 22, 50, 0), 0), (at(2, 1, 10, 0), 0)]);
        let g = gaps_in(&seq, clock::minutes(10))[0];
        assert_eq!(g.start_day(), crate::clock::DayOfWeek::Tuesday);
        assert_eq!(g.end_day(), crate::clock::DayOfWeek::Wednesday);
    }

    #[test]
    fn windowed_gaps_match_full_scan() {
        let pairs: Vec<(Timestamp, u32)> = [0, 100, 5_000, 5_050, 12_000, 40_000, 40_100]
            .into_iter()
            .enumerate()
            .map(|(i, t)| (t, (i % 3) as u32))
            .collect();
        let tl = EventSeq::from_pairs(&pairs);
        let delta = 200;
        let all = gaps_in(&tl, delta);
        for window in [
            Interval::new(0, 60_000),
            Interval::new(4_000, 6_000),
            Interval::new(300, 301),
            Interval::new(13_000, 39_000),
            Interval::new(-500, 50),
            Interval::new(60_000, 70_000),
        ] {
            let expect: Vec<Gap> = all
                .iter()
                .filter(|g| g.interval().overlaps(&window))
                .copied()
                .collect();
            assert_eq!(
                gaps_in_window(&tl, window, delta),
                expect,
                "window {window:?}"
            );
        }
    }
}
