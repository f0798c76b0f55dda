//! Per-device timelines.
//!
//! A [`DeviceTimeline`] is one device's connection events (`E(d_i)`) as a
//! single [`EventSeq`] — one array sorted by `(t, id)`. It dereferences to
//! the sequence, so appends ([`EventSeq::push`]), range slices
//! ([`EventSeq::in_range`]), validity lookups ([`EventSeq::covering_event`]),
//! gap detection ([`locater_events::gaps_in`],
//! [`locater_events::gap_containing`]) and compaction's prefix trim
//! ([`EventSeq::trim_before`]) each have exactly one implementation. What
//! the timeline adds are the window helpers the engines read: partition
//! points, windowed counts and the gaps overlapping a window, each a binary
//! search or two over the array.

use locater_events::{gap_between, EventSeq, Gap, Interval, StoredEvent, Timestamp};
use std::ops::{Deref, DerefMut};

/// A device's event history as one array sorted by `(t, id)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceTimeline(EventSeq);

impl Deref for DeviceTimeline {
    type Target = EventSeq;

    fn deref(&self) -> &EventSeq {
        &self.0
    }
}

impl DerefMut for DeviceTimeline {
    fn deref_mut(&mut self) -> &mut EventSeq {
        &mut self.0
    }
}

impl From<EventSeq> for DeviceTimeline {
    fn from(events: EventSeq) -> Self {
        Self(events)
    }
}

impl DeviceTimeline {
    /// The event at index `idx` (0-based, time order).
    pub fn get(&self, idx: usize) -> Option<&StoredEvent> {
        self.events().get(idx)
    }

    /// Number of events with `t <= at`.
    pub fn partition_le(&self, at: Timestamp) -> usize {
        self.events().partition_point(|e| e.t <= at)
    }

    /// Number of events with `t < at`.
    pub fn partition_lt(&self, at: Timestamp) -> usize {
        self.events().partition_point(|e| e.t < at)
    }

    /// Number of events with `t` in `[range.start, range.end)` — two
    /// partition points, no iteration. The affinity engine's windowed event
    /// totals read this.
    pub fn count_in(&self, range: Interval) -> usize {
        self.partition_lt(range.end)
            .saturating_sub(self.partition_lt(range.start))
    }

    /// Iterates over all events in time order.
    pub fn iter(&self) -> std::slice::Iter<'_, StoredEvent> {
        self.events().iter()
    }

    /// Gaps whose interval overlaps `window`. Only the consecutive event pairs
    /// that can bound such a gap are visited: a gap `[prev.t + δ, next.t − δ)`
    /// overlaps `window` only if `next.t > window.start + δ` and
    /// `prev.t < window.end − δ`, and both conditions are monotone in the pair
    /// index, so the qualifying pairs form one contiguous, binary-searchable run.
    pub fn gaps_in_window(&self, window: Interval, delta: Timestamp) -> Vec<Gap> {
        if self.len() < 2 {
            return Vec::new();
        }
        let lo = self
            .partition_le(window.start.saturating_add(delta))
            .saturating_sub(1);
        let hi = self
            .partition_lt(window.end.saturating_sub(delta))
            .min(self.len() - 1);
        if lo >= hi {
            return Vec::new();
        }
        self.events()[lo..=hi]
            .windows(2)
            .filter_map(|pair| gap_between(&pair[0], &pair[1], delta))
            .filter(|gap| gap.interval().overlaps(&window))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locater_events::{gap_containing, gaps_in, EventId};
    use locater_space::AccessPointId;

    fn ev(id: u64, t: Timestamp, ap: u32) -> StoredEvent {
        StoredEvent::new(EventId::new(id), t, AccessPointId::new(ap))
    }

    fn timeline(ts: &[Timestamp]) -> DeviceTimeline {
        let mut tl = DeviceTimeline::default();
        for (i, &t) in ts.iter().enumerate() {
            tl.push(ev(i as u64, t, (i % 3) as u32));
        }
        tl
    }

    #[test]
    fn in_order_appends_seal_completed_buckets() {
        let tl = timeline(&[10, 20, 150, 420]);
        assert_eq!(tl.len(), 4);
        let ts: Vec<Timestamp> = tl.iter().map(|e| e.t).collect();
        assert_eq!(ts, vec![10, 20, 150, 420]);
        assert_eq!(tl.last().map(|e| e.t), Some(420));
    }

    #[test]
    fn out_of_order_events_splice_into_their_bucket() {
        let mut tl = timeline(&[10, 250, 420]);
        tl.push(ev(9, 150, 0));
        tl.push(ev(10, 20, 1));
        // A late event at an existing timestamp sorts after it by id.
        tl.push(ev(11, 250, 2));
        let ts: Vec<(Timestamp, u64)> = tl.iter().map(|e| (e.t, e.id.0)).collect();
        assert_eq!(
            ts,
            vec![(10, 0), (20, 10), (150, 9), (250, 1), (250, 11), (420, 2)]
        );
        for (i, &(t, _)) in ts.iter().enumerate() {
            assert_eq!(tl.get(i).unwrap().t, t);
        }
        assert_eq!(tl.get(6), None);
        assert_eq!(tl.partition_le(250), 5);
        assert_eq!(tl.partition_lt(250), 3);
        assert_eq!(tl.count_in(Interval::new(20, 251)), 4);
        assert_eq!(tl.count_in(Interval::new(400, 10)), 0);
    }

    #[test]
    fn in_range_prunes_but_agrees_with_filter() {
        let tl = timeline(&[10, 20, 150, 420, 421, 999]);
        let window = Interval::new(15, 421);
        let got: Vec<Timestamp> = tl.in_range(window).iter().map(|e| e.t).collect();
        assert_eq!(got, vec![20, 150, 420]);
        assert!(tl.in_range(Interval::new(2_000, 3_000)).is_empty());
        assert_eq!(tl.in_range(Interval::new(0, 10_000)).len(), 6);
        assert_eq!(tl.count_in(window), 3);
    }

    #[test]
    fn covering_and_gap_cross_segment_boundaries() {
        // Events 90 and 410 with δ = 50.
        let tl = timeline(&[90, 410]);
        let (idx, e) = tl.covering_event(100, 50).unwrap();
        assert_eq!((idx, e.t), (0, 90));
        let (idx, e) = tl.covering_event(370, 50).unwrap();
        assert_eq!((idx, e.t), (1, 410));
        assert!(tl.covering_event(250, 50).is_none());
        let gap = gap_containing(&tl, 250, 50).unwrap();
        assert_eq!((gap.prev_t, gap.next_t), (90, 410));
        assert_eq!((gap.start, gap.end), (140, 360));
        assert!(gap_containing(&tl, 100, 50).is_none());
        assert!(gap_containing(&tl, -10, 50).is_none());
        assert!(gap_containing(&tl, 10_000, 50).is_none());
        assert_eq!(gaps_in(&tl, 50).len(), 1);
    }

    #[test]
    fn windowed_gaps_match_full_scan() {
        let tl = timeline(&[0, 100, 5_000, 5_050, 12_000, 40_000, 40_100]);
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
                tl.gaps_in_window(window, delta),
                expect,
                "window {window:?}"
            );
        }
    }

    #[test]
    fn empty_timeline_answers_are_empty() {
        let tl = DeviceTimeline::default();
        assert!(tl.is_empty());
        assert_eq!(tl.len(), 0);
        assert!(tl.first().is_none() && tl.last().is_none());
        assert!(tl.span().is_none());
        assert!(tl.covering_event(5, 10).is_none());
        assert!(gap_containing(&tl, 5, 10).is_none());
        assert!(gaps_in(&tl, 10).is_empty());
        assert!(tl.gaps_in_window(Interval::new(0, 100), 10).is_empty());
        assert_eq!(tl.iter().count(), 0);
        assert_eq!(tl.count_in(Interval::new(0, 100)), 0);
    }

    #[test]
    fn evict_before_bucket_rebases_global_indexes() {
        let mut tl = timeline(&[10, 20, 150, 420, 421, 999]);
        let evicted = tl.trim_before(420);
        let old: Vec<Timestamp> = evicted.iter().map(|e| e.t).collect();
        assert_eq!(old, vec![10, 20, 150]);
        assert_eq!(tl.len(), 3);
        let ts: Vec<Timestamp> = tl.iter().map(|e| e.t).collect();
        assert_eq!(ts, vec![420, 421, 999]);
        // Indexes, partition points and window scans stay consistent.
        assert_eq!(tl.get(0).unwrap().t, 420);
        assert_eq!(tl.get(2).unwrap().t, 999);
        assert_eq!(tl.partition_le(421), 2);
        assert_eq!(tl.partition_lt(999), 2);
        assert_eq!(tl.count_in(Interval::new(421, 1_000)), 2);
        // The cut is exact.
        assert!(tl.trim_before(420).is_empty());
        assert_eq!(tl.trim_before(421).len(), 1);
        // Evicting everything empties the timeline.
        assert_eq!(tl.trim_before(Timestamp::MAX).len(), 2);
        assert!(tl.is_empty());
        assert_eq!(tl.iter().count(), 0);
    }

    #[test]
    fn negative_buckets_are_supported() {
        // Timestamps below zero (snapshot loads may carry synthetic negative
        // probes even though ingestion rejects them) sort like any other.
        let mut tl = timeline(&[70, -50, -250]);
        let ts: Vec<Timestamp> = tl.iter().map(|e| e.t).collect();
        assert_eq!(ts, vec![-250, -50, 70]);
        assert_eq!(tl.partition_lt(0), 2);
        assert_eq!(tl.trim_before(-50).len(), 1);
        assert_eq!(tl.first().map(|e| e.t), Some(-50));
    }
}
