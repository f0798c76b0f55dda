//! Time-partitioned per-device timelines.
//!
//! A [`DeviceTimeline`] holds one device's events split into time-bucketed
//! [`Segment`]s of a fixed span (one week by default): events arriving in
//! timestamp order land in the newest segment — the *head* — and a segment is
//! *sealed* (never touched again on the fast path) as soon as an event for a
//! later bucket arrives. Window queries first prune whole segments by their
//! time bounds and only then binary-search inside the one or two boundary
//! segments, so a query over an 8-week history window on a device with a year
//! of data never looks at the other ten months.
//!
//! The concatenation of the segments is, by construction, exactly the dense
//! time-sorted sequence the pre-segmented store kept: equal timestamps share a
//! bucket, and within a bucket [`EventSeq::push`] preserves insertion order, so
//! every global-index-based algorithm (validity lookups, gap detection) behaves
//! bit-identically to the flat representation.

use locater_events::{gap_between, EventSeq, Gap, Interval, StoredEvent, Timestamp};

/// Default segment span: one week of seconds. Chosen so the paper's 8-week
/// training history touches ~9 segments while a year of data holds ~52.
pub const DEFAULT_SEGMENT_SPAN: Timestamp = locater_events::SECONDS_PER_WEEK;

/// One immutable-once-sealed time bucket of a device's history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    bucket: i64,
    events: EventSeq,
}

impl Segment {
    fn new(bucket: i64, event: StoredEvent) -> Self {
        let mut events = EventSeq::new();
        events.push(event);
        Self { bucket, events }
    }

    /// The bucket index (`t.div_euclid(span)`) all events of this segment share.
    pub fn bucket(&self) -> i64 {
        self.bucket
    }

    /// The events of the segment, time-sorted.
    pub fn events(&self) -> &[StoredEvent] {
        self.events.events()
    }

    /// Number of events in the segment.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if the segment holds no events (never the case inside a timeline).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Timestamp of the first event (segments are never empty inside a timeline).
    pub fn min_t(&self) -> Timestamp {
        self.events.first().map(|e| e.t).unwrap_or(Timestamp::MAX)
    }

    /// Timestamp of the last event.
    pub fn max_t(&self) -> Timestamp {
        self.events.last().map(|e| e.t).unwrap_or(Timestamp::MIN)
    }
}

/// A device's event history as a run of time-bucketed segments.
///
/// The last segment is the mutable *head*; earlier segments are sealed. All
/// read APIs present the concatenated, globally time-sorted view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceTimeline {
    span: Timestamp,
    /// Segments sorted by bucket; the last one is the head.
    segments: Vec<Segment>,
    /// Global index of each segment's first event (`starts[i] = Σ len(segments[..i])`).
    starts: Vec<usize>,
    len: usize,
}

impl Default for DeviceTimeline {
    fn default() -> Self {
        Self::new(DEFAULT_SEGMENT_SPAN)
    }
}

impl DeviceTimeline {
    /// Creates an empty timeline with the given segment span in seconds.
    pub fn new(span: Timestamp) -> Self {
        Self {
            span: span.max(1),
            segments: Vec::new(),
            starts: Vec::new(),
            len: 0,
        }
    }

    /// The segment span in seconds.
    pub fn segment_span(&self) -> Timestamp {
        self.span
    }

    /// Total number of events across all segments.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the device has no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The segments, oldest first. The last one is the mutable head.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of segments.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// The mutable head segment (the newest bucket seen so far), if any.
    pub fn head(&self) -> Option<&Segment> {
        self.segments.last()
    }

    fn bucket_of(&self, t: Timestamp) -> i64 {
        t.div_euclid(self.span)
    }

    /// Index of the first segment with an event after `at` — i.e.
    /// `partition_point(|s| s.max_t() <= at)` — found by bucket-id arithmetic:
    /// the binary search only reads the inline bucket ids (no dereference into
    /// the event vectors), and at most the one segment sharing `at`'s bucket
    /// is inspected.
    fn seg_after(&self, at: Timestamp) -> usize {
        let target = self.bucket_of(at);
        let idx = self.segments.partition_point(|s| s.bucket < target);
        match self.segments.get(idx) {
            Some(s) if s.bucket == target && s.max_t() <= at => idx + 1,
            _ => idx,
        }
    }

    /// Like [`DeviceTimeline::seg_after`] for the strict bound:
    /// `partition_point(|s| s.max_t() < at)`.
    fn seg_from(&self, at: Timestamp) -> usize {
        let target = self.bucket_of(at);
        let idx = self.segments.partition_point(|s| s.bucket < target);
        match self.segments.get(idx) {
            Some(s) if s.bucket == target && s.max_t() < at => idx + 1,
            _ => idx,
        }
    }

    /// Appends an event. Events arriving in timestamp order go to the head
    /// segment in O(1); an event for a later bucket seals the head and opens a
    /// new one; rare out-of-order events are spliced into their owning bucket.
    pub fn push(&mut self, event: StoredEvent) {
        let bucket = self.bucket_of(event.t);
        match self.segments.last_mut() {
            None => {
                self.segments.push(Segment::new(bucket, event));
                self.starts.push(0);
            }
            Some(head) if bucket == head.bucket => head.events.push(event),
            Some(head) if bucket > head.bucket => {
                self.starts.push(self.len);
                self.segments.push(Segment::new(bucket, event));
            }
            Some(_) => {
                // Out-of-order arrival into a sealed bucket.
                let idx = self.segments.partition_point(|s| s.bucket < bucket);
                if idx < self.segments.len() && self.segments[idx].bucket == bucket {
                    self.segments[idx].events.push(event);
                } else {
                    self.segments.insert(idx, Segment::new(bucket, event));
                    self.starts.insert(idx, 0);
                }
                for (i, start) in self.starts.iter_mut().enumerate() {
                    if i > idx {
                        *start += 1;
                    }
                }
                // A freshly inserted segment inherits the start of its successor.
                if self.segments[idx].len() == 1 {
                    self.starts[idx] = if idx == 0 {
                        0
                    } else {
                        self.starts[idx - 1] + self.segments[idx - 1].len()
                    };
                }
            }
        }
        self.len += 1;
    }

    /// The event at global index `idx` (0-based, time order).
    pub fn get(&self, idx: usize) -> Option<&StoredEvent> {
        if idx >= self.len {
            return None;
        }
        let seg = self.starts.partition_point(|&s| s <= idx) - 1;
        self.segments[seg].events().get(idx - self.starts[seg])
    }

    /// Number of events with `t <= at` (a global partition point).
    pub fn partition_le(&self, at: Timestamp) -> usize {
        let seg = self.seg_after(at);
        if seg == self.segments.len() {
            return self.len;
        }
        self.starts[seg] + self.segments[seg].events().partition_point(|e| e.t <= at)
    }

    /// Number of events with `t < at`.
    pub fn partition_lt(&self, at: Timestamp) -> usize {
        let seg = self.seg_from(at);
        if seg == self.segments.len() {
            return self.len;
        }
        self.starts[seg] + self.segments[seg].events().partition_point(|e| e.t < at)
    }

    /// Number of events with `t` in `[range.start, range.end)` — two
    /// partition points, no iteration. The affinity engine's windowed event
    /// totals read this.
    pub fn count_in(&self, range: Interval) -> usize {
        self.partition_lt(range.end)
            .saturating_sub(self.partition_lt(range.start))
    }

    /// First event, if any.
    pub fn first(&self) -> Option<&StoredEvent> {
        self.segments.first().and_then(|s| s.events.first())
    }

    /// Last event, if any.
    pub fn last(&self) -> Option<&StoredEvent> {
        self.segments.last().and_then(|s| s.events.last())
    }

    /// Time span `[first.t, last.t]` covered by the device, if non-empty.
    pub fn span(&self) -> Option<Interval> {
        match (self.first(), self.last()) {
            (Some(f), Some(l)) => Some(Interval::new(f.t, l.t + 1)),
            _ => None,
        }
    }

    /// Iterates over all events in time order, across segments.
    pub fn iter(&self) -> TimelineIter<'_> {
        TimelineIter {
            current: [].iter(),
            rest: self.segments.iter(),
        }
    }

    /// Iterates over the events starting at global index `from` (time order).
    pub fn iter_from(&self, from: usize) -> TimelineIter<'_> {
        if from >= self.len {
            return TimelineIter {
                current: [].iter(),
                rest: [].iter(),
            };
        }
        let seg = self.starts.partition_point(|&s| s <= from) - 1;
        TimelineIter {
            current: self.segments[seg].events()[from - self.starts[seg]..].iter(),
            rest: self.segments[seg + 1..].iter(),
        }
    }

    /// Events with `t` in `[range.start, range.end)` — segments that do not
    /// overlap the range are pruned before any per-event work happens.
    pub fn in_range(&self, range: Interval) -> EventsInRange<'_> {
        let first = self.seg_from(range.start);
        EventsInRange {
            range,
            current: [].iter(),
            rest: self.segments[first..].iter(),
        }
    }

    /// The event whose validity interval covers `at` (with its global index),
    /// mirroring [`EventSeq::covering_event`] — only the segments around `at`
    /// are consulted.
    ///
    /// Only the three events around the partition point can be involved, so
    /// they are fetched with **one** segment lookup (plus at most one step
    /// into each adjacent segment) instead of repeated global-index searches
    /// — this runs once per nearby device on every neighbor scan.
    pub fn covering_event(&self, at: Timestamp, delta: Timestamp) -> Option<(usize, StoredEvent)> {
        if self.len == 0 {
            return None;
        }
        // The partition point `pos` (count of events with `t <= at`) and the
        // events at pos − 1, pos and pos + 1, located with one segment search.
        let seg = self.seg_after(at);
        let (pos, curr, next, prev) = if seg == self.segments.len() {
            (self.len, None, None, self.last())
        } else {
            let events = self.segments[seg].events();
            let off = events.partition_point(|e| e.t <= at);
            debug_assert!(off < events.len(), "segment chosen to contain t > at");
            let next = events
                .get(off + 1)
                .or_else(|| self.segments.get(seg + 1).and_then(|s| s.events().first()));
            let prev = if off > 0 {
                Some(&events[off - 1])
            } else if seg > 0 {
                self.segments[seg - 1].events().last()
            } else {
                None
            };
            (self.starts[seg] + off, Some(&events[off]), next, prev)
        };
        // Validity of an event given its successor: `[t − δ, t + δ)` truncated
        // at the successor (identical to [`DeviceTimeline::validity_interval`]).
        let validity = |event: &StoredEvent, succ: Option<&StoredEvent>| {
            let end = match succ {
                Some(next) => next.t.min(event.t + delta),
                None => event.t + delta,
            };
            Interval::new(event.t - delta, end)
        };
        if let Some(curr) = curr {
            if validity(curr, next).contains(at)
                && prev.is_none_or(|prev| !validity(prev, Some(curr)).contains(at))
            {
                return Some((pos, *curr));
            }
        }
        let prev = prev?;
        if validity(prev, curr).contains(at) {
            Some((pos - 1, *prev))
        } else {
            None
        }
    }

    /// The gap containing `at`, if `at` falls in one — found from the two
    /// events around `at` without scanning history (mirrors
    /// [`locater_events::gap_containing`]).
    pub fn gap_at(&self, at: Timestamp, delta: Timestamp) -> Option<Gap> {
        let pos = self.partition_le(at);
        if pos == 0 || pos >= self.len {
            return None;
        }
        let prev = self.get(pos - 1).expect("pos >= 1");
        let next = self.get(pos).expect("pos < len");
        let gap = gap_between(prev, next, delta)?;
        gap.contains(at).then_some(gap)
    }

    /// All gaps of the device (`GAP(d_i)`), across segment boundaries.
    pub fn gaps(&self, delta: Timestamp) -> Vec<Gap> {
        let mut out = Vec::new();
        let mut prev: Option<&StoredEvent> = None;
        for event in self.iter() {
            if let Some(p) = prev {
                if let Some(gap) = gap_between(p, event, delta) {
                    out.push(gap);
                }
            }
            prev = Some(event);
        }
        out
    }

    /// Gaps whose interval overlaps `window`. Only the consecutive event pairs
    /// that can bound such a gap are visited: a gap `[prev.t + δ, next.t − δ)`
    /// overlaps `window` only if `next.t > window.start + δ` and
    /// `prev.t < window.end − δ`, and both conditions are monotone in the pair
    /// index, so the qualifying pairs form one contiguous, binary-searchable run.
    pub fn gaps_in_window(&self, window: Interval, delta: Timestamp) -> Vec<Gap> {
        if self.len < 2 {
            return Vec::new();
        }
        let lo = self
            .partition_le(window.start.saturating_add(delta))
            .saturating_sub(1);
        let hi = self
            .partition_lt(window.end.saturating_sub(delta))
            .min(self.len - 1);
        if lo >= hi {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut events = self.iter_from(lo);
        let mut prev = events.next().expect("lo < len");
        for next in events.take(hi - lo) {
            if let Some(gap) = gap_between(prev, next, delta) {
                if gap.interval().overlaps(&window) {
                    out.push(gap);
                }
            }
            prev = next;
        }
        out
    }

    /// Evicts every segment whose bucket is `< cut_bucket` (a prefix —
    /// segments are bucket-sorted) and returns them, oldest first. Global
    /// indexes rebase so the surviving events keep consistent positions, and
    /// the freed capacity is released. Buckets partition time uniformly, so
    /// this removes exactly the events with `t < cut_bucket · span`.
    pub fn evict_before_bucket(&mut self, cut_bucket: i64) -> Vec<Segment> {
        let n = self.segments.partition_point(|s| s.bucket < cut_bucket);
        if n == 0 {
            return Vec::new();
        }
        let evicted: Vec<Segment> = self.segments.drain(..n).collect();
        let removed: usize = evicted.iter().map(Segment::len).sum();
        self.starts.drain(..n);
        for start in &mut self.starts {
            *start -= removed;
        }
        self.len -= removed;
        self.segments.shrink_to_fit();
        self.starts.shrink_to_fit();
        evicted
    }

    /// Approximate heap footprint of the timeline in bytes (allocated
    /// capacity across the segment table, the start index and the per-segment
    /// event arrays).
    pub fn approx_bytes(&self) -> usize {
        self.segments.capacity() * std::mem::size_of::<Segment>()
            + self.starts.capacity() * std::mem::size_of::<usize>()
            + self
                .segments
                .iter()
                .map(|s| s.events.approx_bytes())
                .sum::<usize>()
    }
}

impl<'a> IntoIterator for &'a DeviceTimeline {
    type Item = &'a StoredEvent;
    type IntoIter = TimelineIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over all events of a [`DeviceTimeline`], in time order.
#[derive(Debug, Clone)]
pub struct TimelineIter<'a> {
    current: std::slice::Iter<'a, StoredEvent>,
    rest: std::slice::Iter<'a, Segment>,
}

impl<'a> Iterator for TimelineIter<'a> {
    type Item = &'a StoredEvent;

    fn next(&mut self) -> Option<&'a StoredEvent> {
        loop {
            if let Some(event) = self.current.next() {
                return Some(event);
            }
            self.current = self.rest.next()?.events().iter();
        }
    }
}

/// Segment-pruned iterator over the events of a [`DeviceTimeline`] with
/// timestamps in a half-open range. Cheap to construct (no allocation) and
/// [`Clone`], so window scans can be restarted.
#[derive(Debug, Clone)]
pub struct EventsInRange<'a> {
    range: Interval,
    current: std::slice::Iter<'a, StoredEvent>,
    rest: std::slice::Iter<'a, Segment>,
}

impl<'a> Iterator for EventsInRange<'a> {
    type Item = &'a StoredEvent;

    fn next(&mut self) -> Option<&'a StoredEvent> {
        loop {
            if let Some(event) = self.current.next() {
                return Some(event);
            }
            let segment = self.rest.next()?;
            if segment.min_t() >= self.range.end {
                // Segments are time-ordered: nothing later can overlap.
                self.rest = [].iter();
                return None;
            }
            self.current = segment.events.in_range(self.range).iter();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locater_events::{EventId, StoredEvent};
    use locater_space::AccessPointId;

    fn ev(id: u64, t: Timestamp, ap: u32) -> StoredEvent {
        StoredEvent::new(EventId::new(id), t, AccessPointId::new(ap))
    }

    fn timeline(span: Timestamp, ts: &[Timestamp]) -> DeviceTimeline {
        let mut tl = DeviceTimeline::new(span);
        for (i, &t) in ts.iter().enumerate() {
            tl.push(ev(i as u64, t, (i % 3) as u32));
        }
        tl
    }

    #[test]
    fn in_order_appends_seal_completed_buckets() {
        let tl = timeline(100, &[10, 20, 150, 420]);
        assert_eq!(tl.num_segments(), 3);
        assert_eq!(tl.segments()[0].bucket(), 0);
        assert_eq!(tl.segments()[1].bucket(), 1);
        assert_eq!(tl.segments()[2].bucket(), 4);
        assert_eq!(tl.head().unwrap().bucket(), 4);
        assert_eq!(tl.len(), 4);
        let ts: Vec<Timestamp> = tl.iter().map(|e| e.t).collect();
        assert_eq!(ts, vec![10, 20, 150, 420]);
    }

    #[test]
    fn out_of_order_events_splice_into_their_bucket() {
        let mut tl = timeline(100, &[10, 250, 420]);
        tl.push(ev(9, 150, 0)); // sealed-bucket insert (new middle segment)
        tl.push(ev(10, 20, 1)); // sealed-bucket insert (existing segment)
        let ts: Vec<Timestamp> = tl.iter().map(|e| e.t).collect();
        assert_eq!(ts, vec![10, 20, 150, 250, 420]);
        assert_eq!(tl.num_segments(), 4);
        // Global indexing stays consistent after the splices.
        for (i, t) in [10, 20, 150, 250, 420].iter().enumerate() {
            assert_eq!(tl.get(i).unwrap().t, *t);
        }
        assert_eq!(tl.get(5), None);
    }

    #[test]
    fn matches_flat_eventseq_for_any_order() {
        let ts = [500i64, 10, 10, 700, 10, 320, 320, 9_000, 4, 4, 4];
        let mut tl = DeviceTimeline::new(250);
        let mut seq = EventSeq::new();
        for (i, &t) in ts.iter().enumerate() {
            tl.push(ev(i as u64, t, (i % 2) as u32));
            seq.push(ev(i as u64, t, (i % 2) as u32));
        }
        assert!(tl.iter().eq(seq.events()));
        // Global partition points agree with the flat representation.
        for probe in [-5, 0, 4, 10, 11, 320, 5_000, 10_000] {
            assert_eq!(
                tl.partition_le(probe),
                seq.events().partition_point(|e| e.t <= probe)
            );
            assert_eq!(
                tl.partition_lt(probe),
                seq.events().partition_point(|e| e.t < probe)
            );
            let window = Interval::new(probe, probe + 400);
            let expected = seq.events().iter().filter(|e| window.contains(e.t));
            assert_eq!(tl.count_in(window), expected.count());
        }
        assert_eq!(tl.count_in(Interval::new(400, 10)), 0);
    }

    #[test]
    fn in_range_prunes_but_agrees_with_filter() {
        let tl = timeline(100, &[10, 20, 150, 420, 421, 999]);
        let window = Interval::new(15, 421);
        let got: Vec<Timestamp> = tl.in_range(window).map(|e| e.t).collect();
        assert_eq!(got, vec![20, 150, 420]);
        assert!(tl.in_range(Interval::new(2_000, 3_000)).next().is_none());
        assert_eq!(tl.in_range(Interval::new(0, 10_000)).count(), 6);
    }

    #[test]
    fn covering_and_gap_cross_segment_boundaries() {
        // Events in different buckets: 90 and 410 with δ = 50.
        let tl = timeline(100, &[90, 410]);
        let (idx, e) = tl.covering_event(100, 50).unwrap();
        assert_eq!((idx, e.t), (0, 90));
        let (idx, e) = tl.covering_event(370, 50).unwrap();
        assert_eq!((idx, e.t), (1, 410));
        assert!(tl.covering_event(250, 50).is_none());
        let gap = tl.gap_at(250, 50).unwrap();
        assert_eq!((gap.prev_t, gap.next_t), (90, 410));
        assert_eq!((gap.start, gap.end), (140, 360));
        assert!(tl.gap_at(100, 50).is_none());
        assert!(tl.gap_at(-10, 50).is_none());
        assert!(tl.gap_at(10_000, 50).is_none());
        assert_eq!(tl.gaps(50).len(), 1);
    }

    #[test]
    fn windowed_gaps_match_full_scan() {
        let tl = timeline(1_000, &[0, 100, 5_000, 5_050, 12_000, 40_000, 40_100]);
        let delta = 200;
        let all = tl.gaps(delta);
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
        assert!(tl.head().is_none());
        assert!(tl.first().is_none() && tl.last().is_none());
        assert!(tl.span().is_none());
        assert!(tl.covering_event(5, 10).is_none());
        assert!(tl.gap_at(5, 10).is_none());
        assert!(tl.gaps(10).is_empty());
        assert!(tl.gaps_in_window(Interval::new(0, 100), 10).is_empty());
        assert_eq!(tl.iter().count(), 0);
        assert_eq!(tl.segment_span(), DEFAULT_SEGMENT_SPAN);
    }

    #[test]
    fn evict_before_bucket_rebases_global_indexes() {
        let mut tl = timeline(100, &[10, 20, 150, 420, 421, 999]);
        let evicted = tl.evict_before_bucket(4);
        assert_eq!(evicted.len(), 2);
        let old: Vec<Timestamp> = evicted
            .iter()
            .flat_map(|s| s.events().iter().map(|e| e.t))
            .collect();
        assert_eq!(old, vec![10, 20, 150]);
        assert_eq!(tl.len(), 3);
        let ts: Vec<Timestamp> = tl.iter().map(|e| e.t).collect();
        assert_eq!(ts, vec![420, 421, 999]);
        // Global indexing, partition points and window scans stay consistent.
        assert_eq!(tl.get(0).unwrap().t, 420);
        assert_eq!(tl.get(2).unwrap().t, 999);
        assert_eq!(tl.partition_le(421), 2);
        assert_eq!(tl.partition_lt(999), 2);
        let got: Vec<Timestamp> = tl
            .in_range(Interval::new(421, 1_000))
            .map(|e| e.t)
            .collect();
        assert_eq!(got, vec![421, 999]);
        // Nothing below the cut: a second eviction at the same cut is a no-op.
        assert!(tl.evict_before_bucket(4).is_empty());
        // Evicting everything empties the timeline.
        assert_eq!(tl.evict_before_bucket(i64::MAX).len(), 2);
        assert!(tl.is_empty());
        assert_eq!(tl.iter().count(), 0);
    }

    #[test]
    fn negative_buckets_are_supported() {
        // Timestamps below zero bucket via div_euclid (snapshot loads may carry
        // synthetic negative probes even though ingestion rejects them).
        let tl = timeline(100, &[-250, -50, 70]);
        assert_eq!(tl.segments()[0].bucket(), -3);
        let ts: Vec<Timestamp> = tl.iter().map(|e| e.t).collect();
        assert_eq!(ts, vec![-250, -50, 70]);
    }
}
