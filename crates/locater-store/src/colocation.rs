//! The incremental co-location index: per-AP sorted posting lists.
//!
//! Fine-grained localization (paper §4.1) is dominated by *device affinity*
//! computation: for every candidate neighbor pair the engine counts, over a
//! history window, the events of each device for which the other device has an
//! event on the **same access point** within the event's validity period. Run
//! against raw timelines that is a per-event rescan of the neighbor's history
//! around every event — the bottleneck the paper's caching section (§5) was
//! written to amortize, and one that every *cold* edge still pays.
//!
//! The [`ColocationIndex`] removes the rescan. For every device it keeps one
//! posting list per access point the device ever connected to
//! ([`ApPostings`]), holding the event timestamps as one sorted array. With
//! it, a pair affinity becomes a *sorted-list merge*:
//!
//! * APs only one of the devices ever touched contribute only to the window
//!   event total, which the device's own [`DeviceTimeline::count_in`] answers
//!   with two partition points — no per-event work at all;
//! * APs both devices touched are resolved by merging the two sorted
//!   timestamp slices in place (no copies): covered stretches are counted
//!   run-length-wise, disjoint stretches are skipped by binary search.
//!
//! The index is **part of the store, not a cache**: [`crate::EventStore`]
//! updates it in the same mutation that appends the event to the timeline
//! (O(1) amortized for in-order arrivals — an append to one posting list), so
//! readers can never observe a stale index and the epoch table does not need
//! to stamp it. Answers derived from the index are **bit-identical** to
//! timeline scans by construction: the index holds exactly the multiset of
//! `(t, ap)` pairs of the timeline, and the affinity engine counts the same
//! events in a different order (sums are order-independent).
//!
//! Rebuilding from timelines is deterministic and yields the same structure as incremental
//! maintenance, whatever the ingestion order — posting lists are sorted
//! multisets of timestamps — so snapshot loads rebuild it (see
//! [`crate::snapshot`]) and per-device store partitions
//! ([`crate::EventStore::split`] / `rejoin`) hand the lists over alongside the
//! timelines.

use crate::segment::DeviceTimeline;
use locater_events::{DeviceId, Interval, Timestamp};
use locater_space::AccessPointId;

/// Forward-only cursor over a sorted timestamp slice.
///
/// [`PostingCursor::advance_to`] must be called with non-decreasing bounds;
/// the cursor then amortizes a whole probe sequence to one pass over the list
/// (a two-pointer merge with binary-searched jumps) instead of one standalone
/// binary search per probe.
#[derive(Debug, Clone)]
pub struct PostingCursor<'a> {
    ts: &'a [Timestamp],
    idx: usize,
}

impl PostingCursor<'_> {
    /// The first timestamp `>= lo`, or `None` when the list is exhausted.
    /// Successive `lo` values must be non-decreasing.
    pub fn advance_to(&mut self, lo: Timestamp) -> Option<Timestamp> {
        self.idx += self.ts[self.idx..].partition_point(|&t| t < lo);
        self.ts.get(self.idx).copied()
    }
}

/// Sorted event timestamps of one `(device, access point)` pair: one flat
/// ascending array, duplicates allowed — one entry per event — so range
/// queries are plain binary searches and merge code borrows sub-slices
/// without copying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApPostings {
    ap: AccessPointId,
    ts: Vec<Timestamp>,
}

impl ApPostings {
    fn new(ap: AccessPointId) -> Self {
        Self { ap, ts: Vec::new() }
    }

    /// The access point this list indexes.
    pub fn ap(&self) -> AccessPointId {
        self.ap
    }

    /// Number of events on this access point.
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// `true` if the list holds no events (never the case inside an index).
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// Records one timestamp: O(1) amortized for in-order arrivals;
    /// out-of-order timestamps splice in after any equal ones.
    fn record(&mut self, t: Timestamp) {
        match self.ts.last() {
            Some(&max) if t < max => {
                let pos = self.ts.partition_point(|&x| x <= t);
                self.ts.insert(pos, t);
            }
            _ => self.ts.push(t),
        }
    }

    /// The sub-slice of timestamps in `[range.start, range.end)`, zero copies.
    pub fn slice_in(&self, range: Interval) -> &[Timestamp] {
        let lo = self.ts.partition_point(|&t| t < range.start);
        let hi = lo + self.ts[lo..].partition_point(|&t| t < range.end);
        &self.ts[lo..hi]
    }

    /// The timestamps in `[range.start, range.end)`, ascending.
    pub fn timestamps_in(&self, range: Interval) -> impl Iterator<Item = Timestamp> + '_ {
        self.slice_in(range).iter().copied()
    }

    /// A merge cursor for a sequence of *non-decreasing* lower bounds — the
    /// shape of the device-affinity merge, where the probed validity windows
    /// advance with the other device's event timestamps.
    pub fn cursor(&self) -> PostingCursor<'_> {
        PostingCursor {
            ts: &self.ts,
            idx: 0,
        }
    }

    /// Drops every timestamp `< cut` (a prefix — the list is sorted) and
    /// releases the freed capacity. Returns the number of timestamps removed.
    fn trim_before(&mut self, cut: Timestamp) -> usize {
        let n = self.ts.partition_point(|&t| t < cut);
        if n > 0 {
            self.ts.drain(..n);
            self.ts.shrink_to_fit();
        }
        n
    }
}

/// The co-location postings of one device: one [`ApPostings`] list per access
/// point the device ever connected to (sorted by access-point id). Windowed
/// event *totals* are not kept here: the device's [`DeviceTimeline::count_in`]
/// answers them with two partition points.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DevicePostings {
    lists: Vec<ApPostings>,
}

impl DevicePostings {
    /// Total number of indexed events of the device (summed over its lists).
    pub fn len(&self) -> usize {
        self.lists.iter().map(ApPostings::len).sum()
    }

    /// `true` if the device has no indexed events (lists are never empty).
    pub fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }

    /// The per-AP posting lists, sorted by access-point id.
    pub fn ap_lists(&self) -> &[ApPostings] {
        &self.lists
    }

    fn record(&mut self, t: Timestamp, ap: AccessPointId) {
        let idx = match self.lists.binary_search_by_key(&ap, |list| list.ap) {
            Ok(idx) => idx,
            Err(idx) => {
                self.lists.insert(idx, ApPostings::new(ap));
                idx
            }
        };
        self.lists[idx].record(t);
    }

    /// TTL trim: drops every posting `< cut` from the per-AP lists, removing
    /// lists that become empty. Returns the number of postings removed.
    fn trim_before(&mut self, cut: Timestamp) -> usize {
        let removed: usize = self
            .lists
            .iter_mut()
            .map(|list| list.trim_before(cut))
            .sum();
        if removed > 0 {
            self.lists.retain(|list| !list.is_empty());
            self.lists.shrink_to_fit();
        }
        removed
    }

    /// Approximate heap footprint in bytes (allocated capacity).
    fn approx_bytes(&self) -> usize {
        self.lists.capacity() * std::mem::size_of::<ApPostings>()
            + self
                .lists
                .iter()
                .map(|list| list.ts.capacity() * std::mem::size_of::<Timestamp>())
                .sum::<usize>()
    }
}

/// Size counters of a [`ColocationIndex`] (reported by `locater-cli stats` and
/// the per-shard `serve` stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ColocationIndexStats {
    /// Devices with at least one indexed event.
    pub devices: usize,
    /// `(device, access point)` posting lists.
    pub ap_lists: usize,
    /// Indexed events (equals the store's event count).
    pub events: usize,
}

/// The per-store co-location index: one [`DevicePostings`] per interned
/// device. See the [module docs](self).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColocationIndex {
    devices: Vec<DevicePostings>,
}

impl ColocationIndex {
    pub(crate) fn from_devices(devices: Vec<DevicePostings>) -> Self {
        Self { devices }
    }

    /// Rebuilds the index from per-device timelines — deterministically equal
    /// to the incrementally maintained index over the same events, whatever
    /// order they were ingested in.
    pub(crate) fn rebuild(timelines: &[DeviceTimeline]) -> Self {
        let mut index = Self::default();
        for timeline in timelines {
            let mut postings = DevicePostings::default();
            for event in timeline.iter() {
                postings.record(event.t, event.ap);
            }
            index.devices.push(postings);
        }
        index
    }

    /// Number of devices the index has slots for.
    pub(crate) fn num_devices(&self) -> usize {
        self.devices.len()
    }

    pub(crate) fn add_device(&mut self) {
        self.devices.push(DevicePostings::default());
    }

    pub(crate) fn record(&mut self, device: DeviceId, t: Timestamp, ap: AccessPointId) {
        self.devices[device.index()].record(t, ap);
    }

    /// The postings of one device.
    ///
    /// # Panics
    /// Panics if the device does not belong to this store.
    pub(crate) fn device(&self, device: DeviceId) -> &DevicePostings {
        &self.devices[device.index()]
    }

    /// TTL trim across all devices: drops every posting `< cut`, exactly as
    /// [`crate::Timeline::trim_before`] drops the global entries, so index and
    /// storage can never disagree. Returns the number of postings removed.
    pub(crate) fn trim_before(&mut self, cut: Timestamp) -> usize {
        self.devices
            .iter_mut()
            .map(|postings| postings.trim_before(cut))
            .sum()
    }

    /// Approximate heap footprint of the index in bytes (allocated capacity).
    pub(crate) fn approx_bytes(&self) -> usize {
        self.devices.capacity() * std::mem::size_of::<DevicePostings>()
            + self
                .devices
                .iter()
                .map(DevicePostings::approx_bytes)
                .sum::<usize>()
    }

    /// Aggregate size counters.
    pub(crate) fn stats(&self) -> ColocationIndexStats {
        let mut stats = ColocationIndexStats::default();
        for postings in &self.devices {
            if !postings.is_empty() {
                stats.devices += 1;
            }
            stats.ap_lists += postings.lists.len();
            stats.events += postings.len();
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ap(raw: u32) -> AccessPointId {
        AccessPointId::new(raw)
    }

    /// An index over one device with a scripted event set.
    fn index_with(events: &[(Timestamp, u32)]) -> ColocationIndex {
        let mut index = ColocationIndex::default();
        index.add_device();
        for &(t, a) in events {
            index.record(DeviceId::new(0), t, ap(a));
        }
        index
    }

    /// The device timeline of the same scripted event set (ids in order).
    fn timeline_with(events: &[(Timestamp, u32)]) -> DeviceTimeline {
        let mut timeline = DeviceTimeline::default();
        for (i, &(t, a)) in events.iter().enumerate() {
            timeline.push(locater_events::StoredEvent::new(
                locater_events::EventId::new(i as u64),
                t,
                ap(a),
            ));
        }
        timeline
    }

    /// The posting list of `ap` in one device's postings, if any.
    fn on_ap(postings: &DevicePostings, a: u32) -> Option<&ApPostings> {
        postings.ap_lists().iter().find(|list| list.ap() == ap(a))
    }

    /// Every timestamp a list holds.
    fn all(list: &ApPostings) -> &[Timestamp] {
        list.slice_in(Interval::new(Timestamp::MIN, Timestamp::MAX))
    }

    #[test]
    fn in_order_appends_bucket_by_span() {
        let index = index_with(&[(10, 0), (20, 0), (150, 0), (420, 1)]);
        let postings = index.device(DeviceId::new(0));
        assert_eq!(postings.len(), 4);
        let aps: Vec<AccessPointId> = postings.ap_lists().iter().map(ApPostings::ap).collect();
        assert_eq!(aps, vec![ap(0), ap(1)]);
        let list0 = on_ap(postings, 0).unwrap();
        assert_eq!(list0.len(), 3);
        assert_eq!(all(list0), &[10, 20, 150]);
        assert_eq!(on_ap(postings, 1).unwrap().len(), 1);
        assert!(on_ap(postings, 9).is_none());
        let stats = index.stats();
        assert_eq!(stats.devices, 1);
        assert_eq!(stats.ap_lists, 2);
        assert_eq!(stats.events, 4);
    }

    #[test]
    fn out_of_order_and_tied_timestamps_stay_sorted() {
        let index = index_with(&[(500, 0), (10, 0), (10, 0), (320, 0), (10, 0), (4, 0)]);
        let list = on_ap(index.device(DeviceId::new(0)), 0).unwrap();
        assert_eq!(all(list), &[4, 10, 10, 10, 320, 500]);
        // Ties count once per event.
        assert_eq!(list.slice_in(Interval::new(10, 11)).len(), 3);
    }

    #[test]
    fn range_queries_match_naive_filters() {
        let events: Vec<(Timestamp, u32)> = vec![
            (10, 0),
            (20, 1),
            (150, 0),
            (150, 0),
            (420, 0),
            (421, 1),
            (999, 0),
            (-50, 0),
        ];
        let index = index_with(&events);
        let postings = index.device(DeviceId::new(0));
        let timeline = timeline_with(&events);
        for window in [
            Interval::new(15, 421),
            Interval::new(-100, 0),
            Interval::new(150, 151),
            Interval::new(2_000, 3_000),
            Interval::new(-500, 10_000),
            Interval::new(400, 10),
        ] {
            for a in [0u32, 1, 2] {
                let expected: Vec<Timestamp> = {
                    let mut ts: Vec<Timestamp> = events
                        .iter()
                        .filter(|&&(t, e_ap)| e_ap == a && window.contains(t))
                        .map(|&(t, _)| t)
                        .collect();
                    ts.sort_unstable();
                    ts
                };
                match on_ap(postings, a) {
                    Some(list) => {
                        let got: Vec<Timestamp> = list.timestamps_in(window).collect();
                        assert_eq!(got, expected, "window {window:?} ap {a}");
                        assert_eq!(list.slice_in(window), expected.as_slice());
                        let mut cursor = list.cursor();
                        assert_eq!(cursor.advance_to(window.start), {
                            all(list).iter().copied().find(|&t| t >= window.start)
                        });
                    }
                    None => assert!(expected.is_empty()),
                }
            }
            // Windowed totals come from the device timeline, not the index.
            let total_expected = events.iter().filter(|&&(t, _)| window.contains(t)).count();
            assert_eq!(timeline.count_in(window), total_expected);
        }
    }

    #[test]
    fn rebuild_equals_incremental_for_any_order() {
        let events = [
            (500i64, 1u32),
            (10, 0),
            (700, 1),
            (10, 1),
            (320, 0),
            (9_000, 0),
            (4, 1),
        ];
        let rebuilt = ColocationIndex::rebuild(&[timeline_with(&events)]);
        assert_eq!(rebuilt, index_with(&events));
    }

    #[test]
    fn trim_before_keeps_exactly_the_retained_postings() {
        let events = [
            (10i64, 0u32),
            (20, 1),
            (150, 0),
            (420, 0),
            (421, 1),
            (999, 2),
        ];
        let mut index = index_with(&events);
        assert_eq!(index.trim_before(420), 3);
        let postings = index.device(DeviceId::new(0));
        assert_eq!(postings.len(), 3);
        assert_eq!(all(on_ap(postings, 0).unwrap()), &[420]);
        assert_eq!(all(on_ap(postings, 1).unwrap()), &[421]);
        assert_eq!(all(on_ap(postings, 2).unwrap()), &[999]);
        // Trimmed index equals one built from the retained events alone.
        let retained: Vec<(Timestamp, u32)> =
            events.iter().copied().filter(|&(t, _)| t >= 420).collect();
        assert_eq!(index, index_with(&retained));
        // Lists that lose all postings disappear.
        assert_eq!(index.trim_before(500), 2);
        let postings = index.device(DeviceId::new(0));
        assert!(on_ap(postings, 0).is_none());
        assert!(on_ap(postings, 1).is_none());
        assert_eq!(postings.len(), 1);
        assert_eq!(index.trim_before(500), 0);
    }

    #[test]
    fn empty_index_answers_are_empty() {
        let index = ColocationIndex::default();
        assert_eq!(index.num_devices(), 0);
        assert_eq!(index.stats(), ColocationIndexStats::default());
        assert_eq!(index.approx_bytes(), 0);
        let postings = DevicePostings::default();
        assert!(postings.is_empty());
        assert_eq!(postings.len(), 0);
        assert_eq!(DeviceTimeline::default().count_in(Interval::new(0, 100)), 0);
        assert!(on_ap(&postings, 0).is_none());
        let list = ApPostings::new(ap(0));
        assert!(list.is_empty());
        assert_eq!(list.timestamps_in(Interval::new(0, 100)).count(), 0);
        assert!(list.slice_in(Interval::new(0, 100)).is_empty());
        assert_eq!(list.cursor().advance_to(0), None);
    }
}
