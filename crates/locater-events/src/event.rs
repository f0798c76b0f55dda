//! Connectivity events and per-device event sequences.

use crate::clock::Timestamp;
use crate::error::EventError;
use crate::interval::Interval;
use locater_space::{AccessPointId, RegionId};
use std::fmt;

/// Identifier of a connectivity event (`eid` in the paper), unique within a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub u64);

impl EventId {
    /// Creates an event id from its raw value.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Exclusive upper bound of event ids: a [`StoredEvent`] keeps its id in 48
/// bits, room for ≈ 2.8 · 10¹⁴ events ever minted.
pub const EVENT_ID_LIMIT: u64 = 1 << 48;

/// Exclusive upper bound of event timestamps: a [`StoredEvent`] keeps its
/// timestamp, in seconds after the deployment epoch, in 32 bits (≈ 136
/// years). Events before the epoch are refused too.
pub const EVENT_TIME_LIMIT: Timestamp = 1 << 32;

/// Compact per-device representation of an event (the device id is implied by the
/// sequence the event is stored in): 12 bytes, holding the timestamp in 32
/// bits, the id in 48 and the access point in 16. [`StoredEvent::try_new`]
/// refuses values outside those ranges, so the accessors return exactly what
/// the event was built from.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct StoredEvent {
    t: u32,
    id_lo: u32,
    id_hi: u16,
    ap: u16,
}

impl StoredEvent {
    /// Creates a stored event.
    ///
    /// # Panics
    /// Panics if a value is out of range (see [`StoredEvent::try_new`]);
    /// callers holding unchecked input use `try_new`.
    pub fn new(id: EventId, t: Timestamp, ap: AccessPointId) -> Self {
        Self::try_new(id, t, ap).unwrap_or_else(|err| panic!("unstorable event {id}: {err}"))
    }

    /// Creates a stored event, refusing a timestamp outside
    /// `[0, EVENT_TIME_LIMIT)`, an id at or above [`EVENT_ID_LIMIT`] and an
    /// access point id above `u16::MAX`.
    pub fn try_new(id: EventId, t: Timestamp, ap: AccessPointId) -> Result<Self, EventError> {
        let t = u32::try_from(t).map_err(|_| EventError::InvalidTimestamp(t))?;
        if id.0 >= EVENT_ID_LIMIT {
            return Err(EventError::InvalidEventId(id.0));
        }
        let ap = u16::try_from(ap.raw()).map_err(|_| EventError::InvalidAccessPoint(ap.raw()))?;
        Ok(Self {
            t,
            id_lo: id.0 as u32,
            id_hi: (id.0 >> 32) as u16,
            ap,
        })
    }

    /// Timestamp of the association event.
    #[inline]
    pub fn t(&self) -> Timestamp {
        Timestamp::from(self.t)
    }

    /// Event identifier.
    #[inline]
    pub fn id(&self) -> EventId {
        EventId((u64::from(self.id_hi) << 32) | u64::from(self.id_lo))
    }

    /// Access point that logged the event.
    #[inline]
    pub fn ap(&self) -> AccessPointId {
        AccessPointId::new(u32::from(self.ap))
    }

    /// The region this event places the device in.
    #[inline]
    pub fn region(&self) -> RegionId {
        self.ap().region()
    }

    /// The `(t, id)` key sequences are sorted by.
    #[inline]
    fn key(&self) -> (Timestamp, EventId) {
        (self.t(), self.id())
    }
}

impl fmt::Debug for StoredEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StoredEvent")
            .field("id", &self.id())
            .field("t", &self.t())
            .field("ap", &self.ap())
            .finish()
    }
}

/// A time-sorted sequence of events of a single device (`E(d_i)` in the paper).
///
/// The sequence is the unit the gap-detection and validity logic operates on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventSeq {
    events: Vec<StoredEvent>,
}

impl EventSeq {
    /// Creates an empty sequence.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty sequence with room for exactly `capacity` events
    /// (what a loader that knows the count allocates, so in-order pushes
    /// never reallocate).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            events: Vec::with_capacity(capacity),
        }
    }

    /// Builds a sequence from `(timestamp, ap raw id)` pairs, sorting them by time.
    /// Event ids are assigned positionally. Intended for tests and examples.
    pub fn from_pairs(pairs: &[(Timestamp, u32)]) -> Self {
        let mut events: Vec<StoredEvent> = pairs
            .iter()
            .enumerate()
            .map(|(i, &(t, ap))| {
                StoredEvent::new(EventId::new(i as u64), t, AccessPointId::new(ap))
            })
            .collect();
        events.sort_by_key(|e| e.t());
        Self { events }
    }

    /// Appends an event, keeping the sequence sorted by `(t, id)`. Appending in
    /// timestamp order is O(1); out-of-order events are inserted at the right
    /// position. The event id breaks timestamp ties, so the sequence is a pure
    /// function of the event *set* — any backfill/splice order yields the same
    /// bytes (normal ingestion assigns monotone ids, for which `(t, id)` order
    /// coincides with the old insertion order).
    pub fn push(&mut self, event: StoredEvent) {
        let key = event.key();
        match self.events.last() {
            Some(last) if last.key() > key => {
                let pos = self.events.partition_point(|e| e.key() <= key);
                self.events.insert(pos, event);
            }
            _ => self.events.push(event),
        }
    }

    /// Number of events in the sequence.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if the device has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All events, sorted by time.
    pub fn events(&self) -> &[StoredEvent] {
        &self.events
    }

    /// The event at index `idx` (0-based, time order).
    pub fn get(&self, idx: usize) -> Option<&StoredEvent> {
        self.events.get(idx)
    }

    /// Iterates over all events in time order.
    pub fn iter(&self) -> std::slice::Iter<'_, StoredEvent> {
        self.events.iter()
    }

    /// First event, if any.
    pub fn first(&self) -> Option<&StoredEvent> {
        self.events.first()
    }

    /// Last event, if any.
    pub fn last(&self) -> Option<&StoredEvent> {
        self.events.last()
    }

    /// Events with `t` in `[range.start, range.end)`, as a sub-slice.
    pub fn in_range(&self, range: Interval) -> &[StoredEvent] {
        let lo = self.events.partition_point(|e| e.t() < range.start);
        let hi = self.events.partition_point(|e| e.t() < range.end);
        &self.events[lo..hi]
    }

    /// Number of events with `t <= at`.
    pub fn partition_le(&self, at: Timestamp) -> usize {
        self.events.partition_point(|e| e.t() <= at)
    }

    /// Number of events with `t < at`.
    pub(crate) fn partition_lt(&self, at: Timestamp) -> usize {
        self.events.partition_point(|e| e.t() < at)
    }

    /// Number of events with `t` in `[range.start, range.end)` — two
    /// partition points, no iteration. The affinity engine's windowed event
    /// totals read this.
    pub fn count_in(&self, range: Interval) -> usize {
        self.partition_lt(range.end)
            .saturating_sub(self.partition_lt(range.start))
    }

    /// The validity interval of the event at `index`, given validity period `delta`:
    /// `(t − δ, t + δ)` truncated at the timestamp of the next event of the device
    /// (paper §2, Fig. 2).
    pub(crate) fn validity_interval(&self, index: usize, delta: Timestamp) -> Interval {
        let t = self.events[index].t();
        let end = match self.events.get(index + 1) {
            Some(next) => next.t().min(t + delta),
            None => t + delta,
        };
        Interval::new(t - delta, end)
    }

    /// The event whose validity interval covers `at` (the latest such event if several
    /// overlap), together with its index.
    pub fn covering_event(&self, at: Timestamp, delta: Timestamp) -> Option<(usize, &StoredEvent)> {
        // Candidate: last event with t <= at, or the next event if `at` falls in its
        // backward validity window.
        if self.events.is_empty() {
            return None;
        }
        let pos = self.events.partition_point(|e| e.t() <= at);
        if pos < self.events.len() {
            let next = &self.events[pos];
            // `at` may be covered by the *next* event's backward validity.
            if self.validity_interval(pos, delta).contains(at) {
                // Prefer the earlier event if it also covers `at`? Paper picks the
                // event whose interval contains t_q; when both do, the later event is
                // the most recent evidence, but its interval starts before the earlier
                // event ends only when events are < δ apart, in which case both APs
                // are equally valid. We prefer the earlier (already-seen) event below
                // and fall back to this one.
                if pos == 0 || !self.validity_interval(pos - 1, delta).contains(at) {
                    return Some((pos, next));
                }
            }
        }
        let idx = pos.checked_sub(1)?;
        if self.validity_interval(idx, delta).contains(at) {
            Some((idx, &self.events[idx]))
        } else {
            None
        }
    }

    /// Makes room for `additional` more events: exactly that many in an
    /// empty sequence (a bulk load that counted them leaves no slack), by
    /// `Vec`'s amortized growth in a non-empty one (so repeated small loads
    /// stay O(1) per event).
    pub fn reserve(&mut self, additional: usize) {
        if self.events.is_empty() {
            self.events.reserve_exact(additional);
        } else {
            self.events.reserve(additional);
        }
    }

    /// Removes and returns every event with `t < cut` (a prefix), in order.
    pub fn trim_before(&mut self, cut: Timestamp) -> Vec<StoredEvent> {
        let n = self.events.partition_point(|e| e.t() < cut);
        if n == 0 {
            return Vec::new();
        }
        let evicted: Vec<StoredEvent> = self.events.drain(..n).collect();
        // A trimmed sequence usually keeps receiving appends: shrinking to
        // the exact length would make the next push double it, so keep room
        // for half the retained length and release the rest.
        let len = self.events.len();
        self.events.shrink_to(len + len / 2);
        evicted
    }

    /// Iterates over consecutive event pairs `(e_k, e_{k+1})`.
    pub(crate) fn consecutive_pairs(&self) -> impl Iterator<Item = (&StoredEvent, &StoredEvent)> {
        self.events.windows(2).map(|w| (&w[0], &w[1]))
    }

    /// Time span `[first.t, last.t]` covered by the sequence, if non-empty.
    pub fn span(&self) -> Option<Interval> {
        match (self.first(), self.last()) {
            (Some(f), Some(l)) => Some(Interval::new(f.t(), l.t() + 1)),
            _ => None,
        }
    }

    /// Approximate heap footprint of the sequence in bytes (allocated
    /// capacity, not just live length — the operator-facing residency gauge).
    pub fn approx_bytes(&self) -> usize {
        self.events.capacity() * std::mem::size_of::<StoredEvent>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gap::{gap_containing, gaps_in, gaps_in_window};

    fn ev(id: u64, t: Timestamp, ap: u32) -> StoredEvent {
        StoredEvent::new(EventId::new(id), t, AccessPointId::new(ap))
    }

    fn timeline(ts: &[Timestamp]) -> EventSeq {
        let mut tl = EventSeq::default();
        for (i, &t) in ts.iter().enumerate() {
            tl.push(ev(i as u64, t, (i % 3) as u32));
        }
        tl
    }

    #[test]
    fn from_pairs_sorts_by_time() {
        let seq = EventSeq::from_pairs(&[(300, 1), (100, 0), (200, 2)]);
        let ts: Vec<Timestamp> = seq.events().iter().map(|e| e.t()).collect();
        assert_eq!(ts, vec![100, 200, 300]);
        assert_eq!(seq.len(), 3);
        assert!(!seq.is_empty());
    }

    #[test]
    fn push_keeps_order_for_out_of_order_events() {
        let mut seq = EventSeq::new();
        seq.push(StoredEvent::new(
            EventId::new(0),
            100,
            AccessPointId::new(0),
        ));
        seq.push(StoredEvent::new(
            EventId::new(1),
            300,
            AccessPointId::new(1),
        ));
        seq.push(StoredEvent::new(
            EventId::new(2),
            200,
            AccessPointId::new(2),
        ));
        let ts: Vec<Timestamp> = seq.events().iter().map(|e| e.t()).collect();
        assert_eq!(ts, vec![100, 200, 300]);
    }

    #[test]
    fn in_range_returns_subslice() {
        let seq = EventSeq::from_pairs(&[(100, 0), (200, 0), (300, 0), (400, 0)]);
        let mid = seq.in_range(Interval::new(150, 350));
        assert_eq!(mid.len(), 2);
        assert_eq!(mid[0].t(), 200);
        assert_eq!(mid[1].t(), 300);
        assert!(seq.in_range(Interval::new(500, 600)).is_empty());
        assert_eq!(seq.in_range(Interval::new(100, 101)).len(), 1);
    }

    #[test]
    fn validity_interval_truncates_at_next_event() {
        // Mirrors Fig. 2: e1's validity ends at t2 because t2 - t1 < δ.
        let seq = EventSeq::from_pairs(&[(1_000, 0), (1_030, 0), (5_000, 1)]);
        let delta = 60;
        assert_eq!(seq.validity_interval(0, delta), Interval::new(940, 1_030));
        assert_eq!(seq.validity_interval(1, delta), Interval::new(970, 1_090));
        assert_eq!(seq.validity_interval(2, delta), Interval::new(4_940, 5_060));
    }

    #[test]
    fn covering_event_finds_valid_event() {
        let seq = EventSeq::from_pairs(&[(1_000, 3), (2_000, 4)]);
        let delta = 100;
        // Covered by first event's forward validity.
        let (i, e) = seq.covering_event(1_050, delta).unwrap();
        assert_eq!(i, 0);
        assert_eq!(e.ap(), AccessPointId::new(3));
        // Covered by second event's backward validity.
        let (i, e) = seq.covering_event(1_950, delta).unwrap();
        assert_eq!(i, 1);
        assert_eq!(e.ap(), AccessPointId::new(4));
        // In the gap: not covered.
        assert!(seq.covering_event(1_500, delta).is_none());
        // Before all events but within backward validity of the first.
        assert!(seq.covering_event(950, delta).is_some());
        // Way before anything.
        assert!(seq.covering_event(0, delta).is_none());
    }

    #[test]
    fn covering_event_prefers_earlier_when_overlapping() {
        let seq = EventSeq::from_pairs(&[(1_000, 3), (1_050, 4)]);
        let delta = 200;
        // 1010 is covered by both; the earlier event wins.
        let (i, _) = seq.covering_event(1_010, delta).unwrap();
        assert_eq!(i, 0);
        // 1060 is after the second event: second event covers it.
        let (i, _) = seq.covering_event(1_060, delta).unwrap();
        assert_eq!(i, 1);
    }

    #[test]
    fn index_at_or_before_and_span() {
        let seq = EventSeq::from_pairs(&[(100, 0), (200, 0)]);
        assert_eq!(seq.span(), Some(Interval::new(100, 201)));
        assert_eq!(EventSeq::new().span(), None);
    }

    #[test]
    fn trim_before_drains_the_prefix_and_keeps_headroom() {
        let mut seq = EventSeq::with_capacity(6);
        for (i, t) in [10, 20, 150, 420, 421, 999].into_iter().enumerate() {
            seq.push(StoredEvent::new(
                EventId::new(i as u64),
                t,
                AccessPointId::new(0),
            ));
        }
        assert_eq!(seq.approx_bytes(), 6 * std::mem::size_of::<StoredEvent>());
        let evicted: Vec<Timestamp> = seq.trim_before(420).iter().map(|e| e.t()).collect();
        assert_eq!(evicted, vec![10, 20, 150]);
        let kept: Vec<Timestamp> = seq.events().iter().map(|e| e.t()).collect();
        assert_eq!(kept, vec![420, 421, 999]);
        // Room for half the retained length stays: 3 + 1.
        assert_eq!(seq.approx_bytes(), 4 * std::mem::size_of::<StoredEvent>());
        // Nothing below the cut: nothing moves, capacity included.
        assert!(seq.trim_before(420).is_empty());
        assert_eq!(seq.approx_bytes(), 4 * std::mem::size_of::<StoredEvent>());
    }

    #[test]
    fn consecutive_pairs_are_adjacent() {
        let seq = EventSeq::from_pairs(&[(1, 0), (2, 0), (3, 0)]);
        let pairs: Vec<(Timestamp, Timestamp)> = seq
            .consecutive_pairs()
            .map(|(a, b)| (a.t(), b.t()))
            .collect();
        assert_eq!(pairs, vec![(1, 2), (2, 3)]);
    }

    #[test]
    fn event_region_is_ap_region() {
        let s = StoredEvent::new(EventId::new(1), 5, AccessPointId::new(7));
        assert_eq!(s.region(), AccessPointId::new(7).region());
        assert_eq!(EventId::new(3).to_string(), "e3");
    }

    #[test]
    fn in_order_pushes_append() {
        let tl = timeline(&[10, 20, 150, 420]);
        assert_eq!(tl.len(), 4);
        let ts: Vec<Timestamp> = tl.iter().map(|e| e.t()).collect();
        assert_eq!(ts, vec![10, 20, 150, 420]);
        assert_eq!(tl.last().map(|e| e.t()), Some(420));
    }

    #[test]
    fn out_of_order_events_splice_by_time_then_id() {
        let mut tl = timeline(&[10, 250, 420]);
        tl.push(ev(9, 150, 0));
        tl.push(ev(10, 20, 1));
        // A late event at an existing timestamp sorts after it by id.
        tl.push(ev(11, 250, 2));
        let ts: Vec<(Timestamp, u64)> = tl.iter().map(|e| (e.t(), e.id().0)).collect();
        assert_eq!(
            ts,
            vec![(10, 0), (20, 10), (150, 9), (250, 1), (250, 11), (420, 2)]
        );
        for (i, &(t, _)) in ts.iter().enumerate() {
            assert_eq!(tl.get(i).unwrap().t(), t);
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
        let got: Vec<Timestamp> = tl.in_range(window).iter().map(|e| e.t()).collect();
        assert_eq!(got, vec![20, 150, 420]);
        assert!(tl.in_range(Interval::new(2_000, 3_000)).is_empty());
        assert_eq!(tl.in_range(Interval::new(0, 10_000)).len(), 6);
        assert_eq!(tl.count_in(window), 3);
    }

    #[test]
    fn covering_event_and_gap_containing_split_the_time_axis() {
        // Events 90 and 410 with δ = 50.
        let tl = timeline(&[90, 410]);
        let (idx, e) = tl.covering_event(100, 50).unwrap();
        assert_eq!((idx, e.t()), (0, 90));
        let (idx, e) = tl.covering_event(370, 50).unwrap();
        assert_eq!((idx, e.t()), (1, 410));
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
    fn empty_sequence_answers_are_empty() {
        let tl = EventSeq::default();
        assert!(tl.is_empty());
        assert_eq!(tl.len(), 0);
        assert!(tl.first().is_none() && tl.last().is_none());
        assert!(tl.span().is_none());
        assert!(tl.covering_event(5, 10).is_none());
        assert!(gap_containing(&tl, 5, 10).is_none());
        assert!(gaps_in(&tl, 10).is_empty());
        assert!(gaps_in_window(&tl, Interval::new(0, 100), 10).is_empty());
        assert_eq!(tl.iter().count(), 0);
        assert_eq!(tl.count_in(Interval::new(0, 100)), 0);
    }

    #[test]
    fn trim_before_rebases_indexes_and_partition_points() {
        let mut tl = timeline(&[10, 20, 150, 420, 421, 999]);
        let evicted = tl.trim_before(420);
        let old: Vec<Timestamp> = evicted.iter().map(|e| e.t()).collect();
        assert_eq!(old, vec![10, 20, 150]);
        assert_eq!(tl.len(), 3);
        let ts: Vec<Timestamp> = tl.iter().map(|e| e.t()).collect();
        assert_eq!(ts, vec![420, 421, 999]);
        // Indexes, partition points and window scans stay consistent.
        assert_eq!(tl.get(0).unwrap().t(), 420);
        assert_eq!(tl.get(2).unwrap().t(), 999);
        assert_eq!(tl.partition_le(421), 2);
        assert_eq!(tl.partition_lt(999), 2);
        assert_eq!(tl.count_in(Interval::new(421, 1_000)), 2);
        // The cut is exact.
        assert!(tl.trim_before(420).is_empty());
        assert_eq!(tl.trim_before(421).len(), 1);
        // Evicting everything empties the sequence.
        assert_eq!(tl.trim_before(Timestamp::MAX).len(), 2);
        assert!(tl.is_empty());
        assert_eq!(tl.iter().count(), 0);
    }

    #[test]
    fn timestamps_sort_across_the_stored_range() {
        // The first and the last second a stored event can carry sort like
        // any other, and read back exactly.
        let last = EVENT_TIME_LIMIT - 1;
        let mut tl = timeline(&[70, last, 0]);
        let ts: Vec<Timestamp> = tl.iter().map(|e| e.t()).collect();
        assert_eq!(ts, vec![0, 70, last]);
        assert_eq!(tl.partition_lt(last), 2);
        assert_eq!(tl.trim_before(70).len(), 1);
        assert_eq!(tl.first().map(|e| e.t()), Some(70));
    }

    #[test]
    fn stored_events_are_twelve_bytes_and_round_trip_their_fields() {
        assert_eq!(std::mem::size_of::<StoredEvent>(), 12);
        let id = EventId::new(EVENT_ID_LIMIT - 1);
        let ap = AccessPointId::new(u32::from(u16::MAX));
        let e = StoredEvent::try_new(id, EVENT_TIME_LIMIT - 1, ap).unwrap();
        assert_eq!((e.id(), e.t(), e.ap()), (id, EVENT_TIME_LIMIT - 1, ap));
        let e = ev((7 << 32) | 5, 3, 2);
        assert_eq!(
            (e.id(), e.t(), e.ap()),
            (EventId::new((7 << 32) | 5), 3, AccessPointId::new(2))
        );
        assert_eq!(
            format!("{e:?}"),
            "StoredEvent { id: EventId(30064771077), t: 3, ap: AccessPointId(2) }"
        );
    }

    #[test]
    fn out_of_range_fields_are_refused() {
        let (id, ap) = (EventId::new(1), AccessPointId::new(0));
        for t in [-1, EVENT_TIME_LIMIT, i64::MAX, i64::MIN] {
            assert_eq!(
                StoredEvent::try_new(id, t, ap),
                Err(EventError::InvalidTimestamp(t))
            );
        }
        assert_eq!(
            StoredEvent::try_new(EventId::new(EVENT_ID_LIMIT), 0, ap),
            Err(EventError::InvalidEventId(EVENT_ID_LIMIT))
        );
        assert_eq!(
            StoredEvent::try_new(id, 0, AccessPointId::new(1 << 16)),
            Err(EventError::InvalidAccessPoint(1 << 16))
        );
    }
}
