//! The incremental co-location index: per-AP, time-bucketed posting lists.
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
//! ([`ApPostings`]), holding the sorted event timestamps as one flat array
//! with a time-bucket offset table at the store's segment span
//! ([`DeviceTimeline`] uses the same span, so index buckets and storage
//! segments prune identically). With it, a pair affinity becomes a
//! *bucket-intersection merge*:
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
//! (O(1) amortized for in-order arrivals — an append to one posting list and
//! its bucket table), so readers can never observe a stale index and the
//! epoch table does not need to stamp it. Answers derived from the index are
//! **bit-identical** to timeline scans by construction: the index holds
//! exactly the multiset of `(t, ap)` pairs of the timeline, and the affinity
//! engine counts the same events in a different order (sums are
//! order-independent).
//!
//! Rebuilding from timelines is deterministic
//! and yields the same structure as incremental maintenance, whatever the
//! ingestion order — posting lists are sorted multisets of timestamps — so
//! snapshot loads may either rebuild or decode an embedded copy (see
//! [`crate::snapshot`]) and per-device store partitions ([`crate::EventStore::split`] /
//! `rejoin`) round-trip the index alongside the timelines.

use crate::segment::DeviceTimeline;
use locater_events::{DeviceId, Interval, Timestamp};
use locater_space::AccessPointId;

/// One entry of the bucket offset table: the events of bucket `bucket`
/// (timestamps in `[bucket·span, (bucket+1)·span)`) start at `start` in the
/// flat timestamp array and run until the next entry's `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BucketRef {
    pub(crate) bucket: i64,
    pub(crate) start: usize,
}

/// A sorted multiset of event timestamps with a time-bucket offset table —
/// the storage of one per-AP posting list.
///
/// Timestamps are one flat ascending array (duplicates allowed — one entry
/// per event), so range queries are plain binary searches and merge code
/// borrows sub-slices without copying. The bucket table records where each
/// span-sized time bucket starts; it makes out-of-order splices local and is
/// the unit the snapshot format and the operator-facing stats count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketedTimestamps {
    span: Timestamp,
    ts: Vec<Timestamp>,
    buckets: Vec<BucketRef>,
}

impl BucketedTimestamps {
    pub(crate) fn new(span: Timestamp) -> Self {
        Self {
            span: span.max(1),
            ts: Vec::new(),
            buckets: Vec::new(),
        }
    }

    /// Number of timestamps held.
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// `true` if no timestamps are held.
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// Number of time buckets.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// The full sorted timestamp array.
    pub fn timestamps(&self) -> &[Timestamp] {
        &self.ts
    }

    /// Records one timestamp (O(1) amortized for in-order arrivals;
    /// out-of-order timestamps splice into place).
    pub(crate) fn record(&mut self, t: Timestamp) {
        let bucket = t.div_euclid(self.span);
        match self.buckets.last() {
            None => {
                self.buckets.push(BucketRef { bucket, start: 0 });
                self.ts.push(t);
            }
            Some(last) if bucket == last.bucket => match self.ts.last() {
                Some(&max) if t < max => {
                    // In-bucket out-of-order arrival: splice within the tail
                    // bucket (the table is untouched — no later buckets).
                    let start = last.start;
                    let pos = start + self.ts[start..].partition_point(|&x| x <= t);
                    self.ts.insert(pos, t);
                }
                _ => self.ts.push(t),
            },
            Some(last) if bucket > last.bucket => {
                self.buckets.push(BucketRef {
                    bucket,
                    start: self.ts.len(),
                });
                self.ts.push(t);
            }
            Some(_) => {
                // Out-of-order arrival into an earlier bucket.
                let idx = self.buckets.partition_point(|b| b.bucket < bucket);
                let pos = if idx < self.buckets.len() && self.buckets[idx].bucket == bucket {
                    let start = self.buckets[idx].start;
                    let end = self
                        .buckets
                        .get(idx + 1)
                        .map(|next| next.start)
                        .unwrap_or(self.ts.len());
                    start + self.ts[start..end].partition_point(|&x| x <= t)
                } else {
                    let pos = self.buckets[idx].start;
                    self.buckets.insert(idx, BucketRef { bucket, start: pos });
                    pos
                };
                self.ts.insert(pos, t);
                for bucket_ref in &mut self.buckets {
                    if bucket_ref.start > pos
                        || (bucket_ref.start == pos && bucket_ref.bucket > bucket)
                    {
                        bucket_ref.start += 1;
                    }
                }
            }
        }
    }

    /// The sub-slice of timestamps in `[range.start, range.end)`, zero
    /// copies. The coarse bounds come from the compact bucket table (cheap,
    /// contiguous binary searches); only the two boundary buckets are probed
    /// in the timestamp array itself.
    pub fn slice_in(&self, range: Interval) -> &[Timestamp] {
        if range.end <= range.start {
            return &[];
        }
        let lo_bucket = range.start.div_euclid(self.span);
        let hi_bucket = (range.end - 1).div_euclid(self.span);
        let bi_lo = self.buckets.partition_point(|b| b.bucket < lo_bucket);
        let bi_hi = self.buckets.partition_point(|b| b.bucket <= hi_bucket);
        if bi_lo >= bi_hi {
            return &[];
        }
        let coarse_lo = self.buckets[bi_lo].start;
        let coarse_hi = self
            .buckets
            .get(bi_hi)
            .map(|b| b.start)
            .unwrap_or(self.ts.len());
        // Precise bounds inside the two boundary buckets.
        let first_end = self
            .buckets
            .get(bi_lo + 1)
            .map(|b| b.start)
            .unwrap_or(self.ts.len())
            .min(coarse_hi);
        let lo = coarse_lo + self.ts[coarse_lo..first_end].partition_point(|&t| t < range.start);
        let last_start = self.buckets[bi_hi - 1].start.max(lo);
        let hi = last_start + self.ts[last_start..coarse_hi].partition_point(|&t| t < range.end);
        &self.ts[lo..hi]
    }

    /// Number of timestamps in `[range.start, range.end)`.
    pub fn count_in(&self, range: Interval) -> usize {
        self.slice_in(range).len()
    }

    /// `true` if any timestamp lies in `[range.start, range.end)`.
    pub fn any_in(&self, range: Interval) -> bool {
        let lo = self.ts.partition_point(|&t| t < range.start);
        lo < self.ts.len() && self.ts[lo] < range.end
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

    /// Drops every bucket with id `< cut_bucket` (and with it exactly the
    /// timestamps `< cut_bucket · span` — buckets partition time) and releases
    /// the freed capacity. Returns the number of timestamps removed.
    pub(crate) fn trim_before_bucket(&mut self, cut_bucket: i64) -> usize {
        let n = self.buckets.partition_point(|b| b.bucket < cut_bucket);
        if n == 0 {
            return 0;
        }
        let removed = self
            .buckets
            .get(n)
            .map(|b| b.start)
            .unwrap_or(self.ts.len());
        self.ts.drain(..removed);
        self.buckets.drain(..n);
        for bucket in &mut self.buckets {
            bucket.start -= removed;
        }
        self.ts.shrink_to_fit();
        self.buckets.shrink_to_fit();
        removed
    }

    /// Approximate heap footprint in bytes (allocated capacity).
    pub fn approx_bytes(&self) -> usize {
        self.ts.capacity() * std::mem::size_of::<Timestamp>()
            + self.buckets.capacity() * std::mem::size_of::<BucketRef>()
    }
}

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

/// Sorted event timestamps of one `(device, access point)` pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApPostings {
    ap: AccessPointId,
    ts: BucketedTimestamps,
}

impl ApPostings {
    pub(crate) fn new(ap: AccessPointId, span: Timestamp) -> Self {
        Self {
            ap,
            ts: BucketedTimestamps::new(span),
        }
    }

    /// The access point this list indexes.
    pub fn ap(&self) -> AccessPointId {
        self.ap
    }

    /// The bucketed timestamps on this access point.
    pub fn timestamps(&self) -> &BucketedTimestamps {
        &self.ts
    }

    /// Number of events on this access point.
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// `true` if the list holds no events (never the case inside an index).
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// Number of time buckets.
    pub fn num_buckets(&self) -> usize {
        self.ts.num_buckets()
    }

    pub(crate) fn record(&mut self, t: Timestamp) {
        self.ts.record(t)
    }

    /// See [`BucketedTimestamps::slice_in`].
    pub fn slice_in(&self, range: Interval) -> &[Timestamp] {
        self.ts.slice_in(range)
    }

    /// See [`BucketedTimestamps::count_in`].
    pub fn count_in(&self, range: Interval) -> usize {
        self.ts.count_in(range)
    }

    /// See [`BucketedTimestamps::any_in`].
    pub fn any_in(&self, range: Interval) -> bool {
        self.ts.any_in(range)
    }

    /// See [`BucketedTimestamps::timestamps_in`].
    pub fn timestamps_in(&self, range: Interval) -> impl Iterator<Item = Timestamp> + '_ {
        self.ts.timestamps_in(range)
    }

    /// See [`BucketedTimestamps::cursor`].
    pub fn cursor(&self) -> PostingCursor<'_> {
        self.ts.cursor()
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

    /// The posting list of one access point, if the device ever connected to it.
    pub fn on_ap(&self, ap: AccessPointId) -> Option<&ApPostings> {
        self.lists
            .binary_search_by_key(&ap, |list| list.ap)
            .ok()
            .map(|idx| &self.lists[idx])
    }

    fn record(&mut self, t: Timestamp, ap: AccessPointId, span: Timestamp) {
        let idx = match self.lists.binary_search_by_key(&ap, |list| list.ap) {
            Ok(idx) => idx,
            Err(idx) => {
                self.lists.insert(idx, ApPostings::new(ap, span));
                idx
            }
        };
        self.lists[idx].record(t);
    }

    /// TTL trim: drops every posting bucket below `cut_bucket` from the
    /// per-AP lists, removing lists that become empty. Returns the number of
    /// postings removed.
    fn trim_before_bucket(&mut self, cut_bucket: i64) -> usize {
        let removed: usize = self
            .lists
            .iter_mut()
            .map(|list| list.ts.trim_before_bucket(cut_bucket))
            .sum();
        if removed > 0 {
            self.lists.retain(|list| !list.is_empty());
            self.lists.shrink_to_fit();
        }
        removed
    }

    /// Approximate heap footprint in bytes (allocated capacity).
    pub fn approx_bytes(&self) -> usize {
        self.lists.capacity() * std::mem::size_of::<ApPostings>()
            + self
                .lists
                .iter()
                .map(|list| list.ts.approx_bytes())
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
    /// Time buckets across all posting lists.
    pub buckets: usize,
    /// Indexed events (equals the store's event count).
    pub events: usize,
}

/// The per-store co-location index: one [`DevicePostings`] per interned
/// device, bucketed at the store's segment span. See the [module docs](self).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColocationIndex {
    span: Timestamp,
    devices: Vec<DevicePostings>,
}

impl ColocationIndex {
    /// Creates an empty index with the given bucket span in seconds (clamped
    /// to ≥ 1).
    pub fn new(span: Timestamp) -> Self {
        Self {
            span: span.max(1),
            devices: Vec::new(),
        }
    }

    pub(crate) fn from_devices(span: Timestamp, devices: Vec<DevicePostings>) -> Self {
        Self {
            span: span.max(1),
            devices,
        }
    }

    /// Rebuilds the index from per-device timelines — deterministically equal
    /// to the incrementally maintained index over the same events, whatever
    /// order they were ingested in.
    pub(crate) fn rebuild(span: Timestamp, timelines: &[DeviceTimeline]) -> Self {
        let mut index = Self::new(span);
        for timeline in timelines {
            index.add_device();
            let device = DeviceId::new((index.devices.len() - 1) as u32);
            for event in timeline.iter() {
                index.record(device, event.t, event.ap);
            }
        }
        index
    }

    /// The bucket span in seconds.
    pub fn span(&self) -> Timestamp {
        self.span
    }

    /// Number of devices the index has slots for.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    pub(crate) fn add_device(&mut self) {
        self.devices.push(DevicePostings::default());
    }

    pub(crate) fn record(&mut self, device: DeviceId, t: Timestamp, ap: AccessPointId) {
        let span = self.span;
        self.devices[device.index()].record(t, ap, span);
    }

    /// The postings of one device.
    ///
    /// # Panics
    /// Panics if the device does not belong to this store.
    pub fn device(&self, device: DeviceId) -> &DevicePostings {
        &self.devices[device.index()]
    }

    /// TTL trim across all devices: drops every posting bucket below
    /// `cut_bucket`. Returns the number of indexed events removed. Because
    /// buckets partition time at the store's segment span, this removes
    /// exactly the postings of the timeline events a same-cut segment
    /// eviction removes — index and storage can never disagree.
    pub(crate) fn trim_before_bucket(&mut self, cut_bucket: i64) -> usize {
        self.devices
            .iter_mut()
            .map(|postings| postings.trim_before_bucket(cut_bucket))
            .sum()
    }

    /// Approximate heap footprint of the index in bytes (allocated capacity).
    pub fn approx_bytes(&self) -> usize {
        self.devices.capacity() * std::mem::size_of::<DevicePostings>()
            + self
                .devices
                .iter()
                .map(DevicePostings::approx_bytes)
                .sum::<usize>()
    }

    /// Aggregate size counters.
    pub fn stats(&self) -> ColocationIndexStats {
        let mut stats = ColocationIndexStats::default();
        for postings in &self.devices {
            if !postings.is_empty() {
                stats.devices += 1;
            }
            stats.ap_lists += postings.lists.len();
            for list in &postings.lists {
                stats.buckets += list.num_buckets();
                stats.events += list.len();
            }
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

    /// The bucket table read back as `(bucket id, timestamps)` runs.
    fn bucket_runs(ts: &BucketedTimestamps) -> Vec<(i64, Vec<Timestamp>)> {
        let starts = ts.buckets.iter().map(|bucket| bucket.start);
        let ends = starts.clone().skip(1).chain([ts.ts.len()]);
        let ids = ts.buckets.iter().map(|bucket| bucket.bucket);
        ids.zip(starts.zip(ends))
            .map(|(id, (start, end))| (id, ts.ts[start..end].to_vec()))
            .collect()
    }

    /// An index over one device with a scripted event set.
    fn index_with(events: &[(Timestamp, u32)], span: Timestamp) -> ColocationIndex {
        let mut index = ColocationIndex::new(span);
        index.add_device();
        for &(t, a) in events {
            index.record(DeviceId::new(0), t, ap(a));
        }
        index
    }

    /// The device timeline of the same scripted event set (ids in order).
    fn timeline_with(events: &[(Timestamp, u32)], span: Timestamp) -> DeviceTimeline {
        let mut timeline = DeviceTimeline::new(span);
        for (i, &(t, a)) in events.iter().enumerate() {
            timeline.push(locater_events::StoredEvent::new(
                locater_events::EventId::new(i as u64),
                t,
                ap(a),
            ));
        }
        timeline
    }

    #[test]
    fn in_order_appends_bucket_by_span() {
        let index = index_with(&[(10, 0), (20, 0), (150, 0), (420, 1)], 100);
        let postings = index.device(DeviceId::new(0));
        assert_eq!(postings.len(), 4);
        let list0 = postings.on_ap(ap(0)).unwrap();
        assert_eq!(list0.len(), 3);
        assert_eq!(list0.num_buckets(), 2);
        assert_eq!(postings.on_ap(ap(1)).unwrap().len(), 1);
        assert!(postings.on_ap(ap(9)).is_none());
        let stats = index.stats();
        assert_eq!(stats.devices, 1);
        assert_eq!(stats.ap_lists, 2);
        assert_eq!(stats.buckets, 3);
        assert_eq!(stats.events, 4);
        assert_eq!(
            bucket_runs(list0.timestamps()),
            vec![(0, vec![10, 20]), (1, vec![150])]
        );
    }

    #[test]
    fn out_of_order_and_tied_timestamps_stay_sorted() {
        let index = index_with(
            &[(500, 0), (10, 0), (10, 0), (320, 0), (10, 0), (4, 0)],
            250,
        );
        let list = index.device(DeviceId::new(0)).on_ap(ap(0)).unwrap();
        assert_eq!(list.timestamps().timestamps(), &[4, 10, 10, 10, 320, 500]);
        // Ties count once per event.
        assert_eq!(list.count_in(Interval::new(10, 11)), 3);
        // Bucket table stays consistent after splices.
        assert_eq!(
            bucket_runs(list.timestamps()),
            vec![(0, vec![4, 10, 10, 10]), (1, vec![320]), (2, vec![500])]
        );
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
        let index = index_with(&events, 100);
        let postings = index.device(DeviceId::new(0));
        let timeline = timeline_with(&events, 100);
        for window in [
            Interval::new(15, 421),
            Interval::new(-100, 0),
            Interval::new(150, 151),
            Interval::new(2_000, 3_000),
            Interval::new(-500, 10_000),
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
                match postings.on_ap(ap(a)) {
                    Some(list) => {
                        let got: Vec<Timestamp> = list.timestamps_in(window).collect();
                        assert_eq!(got, expected, "window {window:?} ap {a}");
                        assert_eq!(list.slice_in(window), expected.as_slice());
                        assert_eq!(list.count_in(window), expected.len());
                        assert_eq!(list.any_in(window), !expected.is_empty());
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
        let incremental = index_with(&events, 250);
        let rebuilt = ColocationIndex::rebuild(250, &[timeline_with(&events, 250)]);
        assert_eq!(rebuilt, incremental);
    }

    #[test]
    fn trim_before_bucket_keeps_exactly_the_retained_postings() {
        let events = [
            (10i64, 0u32),
            (20, 1),
            (150, 0),
            (420, 0),
            (421, 1),
            (999, 2),
        ];
        let mut index = index_with(&events, 100);
        // Cut at bucket 4 → drops timestamps < 400.
        assert_eq!(index.trim_before_bucket(4), 3);
        let postings = index.device(DeviceId::new(0));
        assert_eq!(postings.len(), 3);
        assert_eq!(
            postings.on_ap(ap(0)).unwrap().timestamps().timestamps(),
            &[420]
        );
        assert_eq!(
            postings.on_ap(ap(1)).unwrap().timestamps().timestamps(),
            &[421]
        );
        assert_eq!(
            postings.on_ap(ap(2)).unwrap().timestamps().timestamps(),
            &[999]
        );
        // Trimmed index equals one built from the retained events alone.
        let retained: Vec<(Timestamp, u32)> =
            events.iter().copied().filter(|&(t, _)| t >= 400).collect();
        assert_eq!(index, index_with(&retained, 100));
        // Lists that lose all postings disappear.
        assert_eq!(index.trim_before_bucket(5), 2);
        let postings = index.device(DeviceId::new(0));
        assert!(postings.on_ap(ap(0)).is_none());
        assert!(postings.on_ap(ap(1)).is_none());
        assert_eq!(postings.len(), 1);
        assert_eq!(index.trim_before_bucket(5), 0);
    }

    #[test]
    fn empty_index_answers_are_empty() {
        let index = ColocationIndex::new(0); // span clamps to 1
        assert_eq!(index.span(), 1);
        assert_eq!(index.num_devices(), 0);
        assert_eq!(index.stats(), ColocationIndexStats::default());
        let postings = DevicePostings::default();
        assert!(postings.is_empty());
        assert_eq!(postings.len(), 0);
        assert_eq!(DeviceTimeline::new(100).count_in(Interval::new(0, 100)), 0);
        assert!(postings.on_ap(ap(0)).is_none());
        let list = ApPostings::new(ap(0), 100);
        assert!(list.is_empty());
        assert!(!list.any_in(Interval::new(0, 100)));
        assert_eq!(list.timestamps_in(Interval::new(0, 100)).count(), 0);
        assert!(list.slice_in(Interval::new(0, 100)).is_empty());
    }
}
