//! Global timeline index over all connectivity events.
//!
//! The fine-grained localization algorithm needs, for a query `(d_i, t_q)`, the set of
//! *neighbor devices*: devices that are online around `t_q` in regions overlapping the
//! queried device's region (paper §4.2). The [`Timeline`] answers "which devices were
//! connected in `[t_q − slack, t_q + slack]`, and to which AP?" with one binary search
//! plus a short range scan.

use locater_events::{Device, DeviceId, EventSeq, StoredEvent, Timestamp, EVENT_TIME_LIMIT};
use locater_space::{AccessPointId, RegionId};

/// Each bucket spans `2^BUCKET_BITS` seconds; an entry stores its offset
/// into its bucket in 16 bits.
const BUCKET_BITS: u32 = 16;

/// The bucket of a stored timestamp (below 2³²) and its offset into it.
#[inline]
fn split_time(t: Timestamp) -> (u32, u16) {
    let t = t as u32;
    (t >> BUCKET_BITS, t as u16)
}

/// One entry of the global timeline, decoded: a device connected to an AP
/// at a time. It carries no event id: entries of one device at one
/// timestamp keep the order of the device's own timeline, which is by id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineEntry {
    t: u32,
    device: DeviceId,
    ap: u16,
}

impl TimelineEntry {
    /// Event timestamp.
    #[inline]
    pub fn t(&self) -> Timestamp {
        Timestamp::from(self.t)
    }

    /// Device that produced the event.
    #[inline]
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// Access point that logged it.
    #[inline]
    pub fn ap(&self) -> AccessPointId {
        AccessPointId::new(u32::from(self.ap))
    }
}

/// A timeline entry as stored: 8 bytes, the timestamp's offset into its
/// bucket beside the access point and the device. Exact: a stored event's
/// timestamp fits 32 bits and its access point 16.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PackedEntry {
    offset: u16,
    ap: u16,
    device: DeviceId,
}

impl PackedEntry {
    /// The entry of one of `device`'s events, with its bucket.
    #[inline]
    fn of(device: DeviceId, event: &StoredEvent) -> (u32, Self) {
        let (bucket, offset) = split_time(event.t());
        let ap = event.ap().raw() as u16;
        (bucket, Self { offset, ap, device })
    }

    /// The canonical ordering key within one bucket.
    #[inline]
    fn key(&self) -> (u16, DeviceId) {
        (self.offset, self.device)
    }

    /// The entry with its timestamp restored from the bucket's first second.
    #[inline]
    fn decode(&self, base: u32) -> TimelineEntry {
        TimelineEntry {
            t: base | u32::from(self.offset),
            device: self.device,
            ap: self.ap,
        }
    }
}

/// Where the entries of one non-empty bucket start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Bucket {
    /// The timestamps' high 16 bits.
    high: u32,
    /// Index of the bucket's first entry.
    start: usize,
}

impl Bucket {
    /// The bucket's first second.
    #[inline]
    fn base(&self) -> u32 {
        self.high << BUCKET_BITS
    }
}

/// A device observed near a probe time, with its closest event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NearbyDevice {
    /// The device.
    pub device: DeviceId,
    /// Access point of the event closest to the probe time.
    pub ap: AccessPointId,
    /// Timestamp of that closest event.
    pub t: Timestamp,
}

/// Time-sorted index of all events of all devices.
///
/// Entries are kept in **canonical `(t, device, id)` order**: ties at the same
/// timestamp are ordered by device id, and ties of the *same* device at the
/// same timestamp by event id. The id is not stored: an entry sits after the
/// entries with a smaller `(t, device)`, at the rank its event has among the
/// device's events at `t` — the device's own
/// [`EventSeq`](locater_events::EventSeq) orders those by id. This makes the index — and everything derived from
/// it, most importantly the neighbor order of [`Timeline::devices_near`] — a
/// pure function of the event *set*, independent of the interleaving the
/// events arrived in (backfill included). Because one device's entries all
/// live in one store, each shard's scan reports every device with the
/// `(t, device)` key of its first entry, and merging those per-shard results
/// by key restores the combined order.
/// That representation transparency is what lets a sharded deployment
/// (per-device partitioned stores, see [`crate::ShardedRead`]) reproduce the
/// answers of a single store bit for bit, and what makes late/out-of-order
/// ingest safe.
///
/// The entries sit in one flat array of 8-byte packed entries, each holding
/// its timestamp's offset into a 65,536-second bucket; a small table records
/// where each non-empty bucket starts and supplies the high 16 bits. Thirteen
/// weeks of events span about 120 buckets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timeline {
    entries: Vec<PackedEntry>,
    /// The non-empty buckets, ascending.
    buckets: Vec<Bucket>,
}

/// What a window scan reports: each device once, in the `(t, device)` order
/// of its first entry in the window, beside that key — what the per-shard
/// results of a sharded view merge on.
pub(crate) struct FirstSeen<T> {
    keys: Vec<(Timestamp, DeviceId)>,
    items: Vec<T>,
}

impl<T> FirstSeen<T> {
    fn with_capacity(capacity: usize) -> Self {
        Self {
            keys: Vec::with_capacity(capacity),
            items: Vec::with_capacity(capacity),
        }
    }

    fn push(&mut self, key: (Timestamp, DeviceId), item: T) {
        self.keys.push(key);
        self.items.push(item);
    }

    /// The items of one store's scan, in its order.
    pub(crate) fn into_items(self) -> Vec<T> {
        self.items
    }
}

/// Merges per-shard scan results into the order one scan of the combined
/// timeline reports. A device's entries never span shards, so the keys are
/// distinct, and each shard's list is already sorted by them.
pub(crate) fn merge_first_seen<T: Copy>(per_shard: Vec<FirstSeen<T>>) -> Vec<T> {
    let mut merged = Vec::with_capacity(per_shard.iter().map(|found| found.items.len()).sum());
    let mut cursors = vec![0usize; per_shard.len()];
    loop {
        let mut next: Option<(usize, (Timestamp, DeviceId))> = None;
        for (shard, found) in per_shard.iter().enumerate() {
            if let Some(&key) = found.keys.get(cursors[shard]) {
                if next.is_none_or(|(_, best)| key < best) {
                    next = Some((shard, key));
                }
            }
        }
        let Some((shard, _)) = next else {
            return merged;
        };
        merged.push(per_shard[shard].items[cursors[shard]]);
        cursors[shard] += 1;
    }
}

/// Scans canonically ordered timeline entries and reports each device once with
/// its event closest to `around` (earlier event wins exact-distance ties).
/// Shared by [`Timeline::devices_near`] and the multi-shard view so the
/// two can never diverge.
pub(crate) fn devices_near_in(
    window: impl IntoIterator<Item = TimelineEntry>,
    around: Timestamp,
    exclude: Option<DeviceId>,
) -> FirstSeen<NearbyDevice> {
    let mut found = FirstSeen::with_capacity(64);
    // Slot of each device in `found` (dense device ids index directly), so the
    // dedup/closest pass stays O(1) per entry instead of rescanning `found` —
    // the window of a busy building holds thousands of entries, and the old
    // linear probe made this scan quadratic. Insertion order is the canonical
    // first-event order.
    const NO_SLOT: u32 = u32::MAX;
    let mut slot_of: Vec<u32> = Vec::new();
    window.into_iter().for_each(|entry| {
        if Some(entry.device()) == exclude {
            return;
        }
        let idx = entry.device().index();
        if idx >= slot_of.len() {
            slot_of.resize(idx + 1, NO_SLOT);
        }
        match slot_of[idx] {
            NO_SLOT => {
                slot_of[idx] = found.items.len() as u32;
                let nearby = NearbyDevice {
                    device: entry.device(),
                    ap: entry.ap(),
                    t: entry.t(),
                };
                found.push((entry.t(), entry.device()), nearby);
            }
            slot => {
                let existing = &mut found.items[slot as usize];
                if (entry.t() - around).abs() < (existing.t - around).abs() {
                    existing.ap = entry.ap();
                    existing.t = entry.t();
                }
            }
        }
    });
    found
}

/// Scans canonically ordered timeline entries (a window of `[at − slack,
/// at + slack]` with `slack` the global max δ) and reports every device with a
/// *covering* event at `at`, paired with that event's region — the shared fast
/// path behind [`crate::EventRead::devices_online_at`] for the store and the
/// multi-shard view.
///
/// Correctness relies on two facts, both property-tested against the
/// reference `devices_near` + `covering_event` composition:
///
/// * a covering event lies within δ ≤ slack of `at`, so only the device's
///   nearest past and nearest future events **inside the window** can cover;
/// * validity truncation by a successor event can never exclude `at` itself:
///   the successor of the nearest past event is the nearest future event (or
///   lies beyond the window), and both are strictly after `at`.
///
/// The covering event is the nearest past event when it covers (`at − t < δ`),
/// else the nearest future event when that covers (`t − at ≤ δ` — the validity
/// interval is closed on the left) — exactly the preference order of
/// [`EventSeq::covering_event`](locater_events::EventSeq::covering_event).
/// Devices are reported in the canonical first-event order of the window,
/// matching the reference.
pub(crate) fn devices_online_in(
    window: impl IntoIterator<Item = TimelineEntry>,
    at: Timestamp,
    exclude: Option<DeviceId>,
    devices: &[Device],
) -> FirstSeen<(DeviceId, RegionId)> {
    struct Candidate {
        /// Timestamp of the device's first window entry.
        first_t: Timestamp,
        device: DeviceId,
        /// Last window entry with `t <= at` (timestamp, AP).
        past: Option<(Timestamp, AccessPointId)>,
        /// First window entry with `t > at`.
        future: Option<(Timestamp, AccessPointId)>,
    }
    let mut candidates: Vec<Candidate> = Vec::with_capacity(64);
    const NO_SLOT: u32 = u32::MAX;
    // One flat slot per device, sized once up front: the entries' device ids
    // are dense indices into the replicated device table.
    let mut slot_of: Vec<u32> = vec![NO_SLOT; devices.len()];
    window.into_iter().for_each(|entry| {
        if Some(entry.device()) == exclude {
            return;
        }
        let idx = entry.device().index();
        if idx >= slot_of.len() {
            slot_of.resize(idx + 1, NO_SLOT);
        }
        let slot = match slot_of[idx] {
            NO_SLOT => {
                slot_of[idx] = candidates.len() as u32;
                candidates.push(Candidate {
                    first_t: entry.t(),
                    device: entry.device(),
                    past: None,
                    future: None,
                });
                candidates.len() - 1
            }
            slot => slot as usize,
        };
        let candidate = &mut candidates[slot];
        if entry.t() <= at {
            // Scan order is canonical, so the last such entry wins — the
            // event `partition_le` would find.
            candidate.past = Some((entry.t(), entry.ap()));
        } else if candidate.future.is_none() {
            candidate.future = Some((entry.t(), entry.ap()));
        }
    });
    let mut online = FirstSeen::with_capacity(candidates.len());
    for candidate in candidates {
        let delta = devices[candidate.device.index()].delta;
        // The past entry covers iff `at < min(successor.t, t + δ)`; the
        // successor is after `at`, so only `t + δ` can exclude it. The
        // future entry's validity starts at `t − δ` inclusive.
        let covering = candidate
            .past
            .filter(|&(t, _)| at - t < delta)
            .or(candidate.future.filter(|&(t, _)| t - at <= delta));
        if let Some((_, ap)) = covering {
            let key = (candidate.first_t, candidate.device);
            online.push(key, (candidate.device, ap.region()));
        }
    }
    online
}

/// The entries of a [`Timeline`] with `t` in a half-open range, decoded, in
/// canonical order ([`Timeline::range`]).
#[derive(Debug, Clone)]
pub struct TimelineRange<'a> {
    entries: &'a [PackedEntry],
    buckets: &'a [Bucket],
    /// First second of the bucket `current` walks.
    base: u32,
    /// The rest of the current bucket's entries inside the range.
    current: std::slice::Iter<'a, PackedEntry>,
    /// Index of the bucket after the current one.
    next_bucket: usize,
    /// One past the range's last entry.
    end: usize,
}

impl TimelineRange<'_> {
    /// Index of the first entry after the current bucket's part of the range.
    #[inline]
    fn rest_start(&self) -> usize {
        self.buckets
            .get(self.next_bucket)
            .map_or(self.end, |bucket| bucket.start.min(self.end))
    }

    /// `true` if the range holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Iterator for TimelineRange<'_> {
    type Item = TimelineEntry;

    #[inline]
    fn next(&mut self) -> Option<TimelineEntry> {
        loop {
            if let Some(entry) = self.current.next() {
                return Some(entry.decode(self.base));
            }
            let bucket = self.buckets.get(self.next_bucket)?;
            if bucket.start >= self.end {
                return None;
            }
            self.next_bucket += 1;
            let stop = self.rest_start();
            self.base = bucket.base();
            self.current = self.entries[bucket.start..stop].iter();
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.current.len() + (self.end - self.rest_start());
        (len, Some(len))
    }

    /// Walks the range bucket by bucket, each in one tight loop over its
    /// slice.
    fn fold<B, F>(self, init: B, mut f: F) -> B
    where
        F: FnMut(B, TimelineEntry) -> B,
    {
        let base = self.base;
        let mut acc = self
            .current
            .fold(init, |acc, entry| f(acc, entry.decode(base)));
        for (b, bucket) in self.buckets.iter().enumerate().skip(self.next_bucket) {
            if bucket.start >= self.end {
                break;
            }
            let stop = self
                .buckets
                .get(b + 1)
                .map_or(self.end, |next| next.start.min(self.end));
            let base = bucket.base();
            acc = self.entries[bucket.start..stop]
                .iter()
                .fold(acc, |acc, entry| f(acc, entry.decode(base)));
        }
        acc
    }

    /// The range's last entry, found without walking the range.
    fn last(self) -> Option<TimelineEntry> {
        if self.is_empty() {
            return None;
        }
        let last = self.end - 1;
        let bucket = self.buckets[self.buckets.partition_point(|b| b.start <= last) - 1];
        Some(self.entries[last].decode(bucket.base()))
    }
}

impl ExactSizeIterator for TimelineRange<'_> {}

impl Timeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Builds the index of the device timelines (`timelines[i]` holds the
    /// events of device `i`) at exact capacity. A counting pass sizes each
    /// bucket, a second pass places every entry in its bucket — device by
    /// device, each device's entries in `(t, id)` order — and a stable sort
    /// of each bucket by offset then yields the canonical `(t, device, id)`
    /// order.
    pub(crate) fn from_device_timelines(timelines: &[EventSeq]) -> Self {
        let span = timelines
            .iter()
            .filter_map(|timeline| Some((timeline.first()?.t(), timeline.last()?.t())))
            .reduce(|(lo, hi), (first, last)| (lo.min(first), hi.max(last)));
        let Some((lo, hi)) = span else {
            return Self::new();
        };
        let first = split_time(lo).0;
        let mut cursors = vec![0usize; (split_time(hi).0 - first) as usize + 1];
        for event in timelines.iter().flat_map(EventSeq::iter) {
            cursors[(split_time(event.t()).0 - first) as usize] += 1;
        }
        let mut buckets = Vec::with_capacity(cursors.iter().filter(|&&n| n > 0).count());
        let mut len = 0;
        for (high, cursor) in (first..).zip(cursors.iter_mut()) {
            if *cursor > 0 {
                buckets.push(Bucket { high, start: len });
                len += std::mem::replace(cursor, len);
            }
        }
        let unset = PackedEntry {
            offset: 0,
            ap: 0,
            device: DeviceId::new(0),
        };
        let mut entries = vec![unset; len];
        for (idx, timeline) in timelines.iter().enumerate() {
            let device = DeviceId::new(idx as u32);
            for event in timeline.iter() {
                let (high, entry) = PackedEntry::of(device, event);
                let cursor = &mut cursors[(high - first) as usize];
                entries[*cursor] = entry;
                *cursor += 1;
            }
        }
        let mut timeline = Self { entries, buckets };
        for b in 0..timeline.buckets.len() {
            let bucket = timeline.buckets[b].start..timeline.bucket_end(b);
            timeline.entries[bucket].sort_by_key(|entry| entry.offset);
        }
        timeline
    }

    /// One past the last entry of bucket `b`.
    #[inline]
    fn bucket_end(&self, b: usize) -> usize {
        self.buckets
            .get(b + 1)
            .map_or(self.entries.len(), |next| next.start)
    }

    /// Index of bucket `high` in the table, or where it would be inserted.
    #[inline]
    fn find_bucket(&self, high: u32) -> Result<usize, usize> {
        let b = self.buckets.partition_point(|bucket| bucket.high < high);
        match self.buckets.get(b) {
            Some(bucket) if bucket.high == high => Ok(b),
            _ => Err(b),
        }
    }

    /// Index of the first entry with a timestamp at or after `t`.
    fn lower_bound(&self, t: Timestamp) -> usize {
        if t <= 0 {
            return 0;
        }
        if t >= EVENT_TIME_LIMIT {
            return self.entries.len();
        }
        let (high, offset) = split_time(t);
        match self.find_bucket(high) {
            Ok(b) => {
                let start = self.buckets[b].start;
                let bucket = &self.entries[start..self.bucket_end(b)];
                start + bucket.partition_point(|entry| entry.offset < offset)
            }
            Err(b) => self
                .buckets
                .get(b)
                .map_or(self.entries.len(), |bucket| bucket.start),
        }
    }

    /// Records one of `device`'s events, keeping the index in canonical
    /// `(t, device, id)` order: `rank` is the number of the device's events
    /// at `t` with a smaller id. Appends are O(1) when events arrive in
    /// canonical order; out-of-order backfill splices into place and moves
    /// the starts of the later buckets.
    pub(crate) fn record(&mut self, device: DeviceId, event: &StoredEvent, rank: usize) {
        let (high, entry) = PackedEntry::of(device, event);
        let appends = match (self.buckets.last(), self.entries.last()) {
            (Some(bucket), Some(last)) => {
                bucket.high < high || (bucket.high == high && last.key() < entry.key())
            }
            _ => true,
        };
        if appends {
            if self.buckets.last().is_none_or(|bucket| bucket.high < high) {
                self.buckets.push(Bucket {
                    high,
                    start: self.entries.len(),
                });
            }
            self.entries.push(entry);
            return;
        }
        let (b, pos) = match self.find_bucket(high) {
            Ok(b) => {
                let start = self.buckets[b].start;
                let bucket = &self.entries[start..self.bucket_end(b)];
                let pos = start + bucket.partition_point(|e| e.key() < entry.key());
                (b, pos + rank)
            }
            Err(b) => {
                // A bucket after `high` exists, or the entry would append.
                let start = self.buckets[b].start;
                self.buckets.insert(b, Bucket { high, start });
                (b, start)
            }
        };
        self.entries.insert(pos, entry);
        for bucket in &mut self.buckets[b + 1..] {
            bucket.start += 1;
        }
    }

    /// Drops every entry with `t < cut` (a prefix — entries are time-sorted)
    /// and releases most of the freed capacity. Returns the number of entries
    /// removed.
    pub fn trim_before(&mut self, cut: Timestamp) -> usize {
        let n = self.lower_bound(cut);
        if n > 0 {
            // The bucket holding the first kept entry becomes the first.
            let kept = self.buckets.partition_point(|bucket| bucket.start <= n) - 1;
            self.entries.drain(..n);
            if self.entries.is_empty() {
                self.buckets.clear();
            } else {
                self.buckets.drain(..kept);
                for bucket in &mut self.buckets {
                    bucket.start = bucket.start.saturating_sub(n);
                }
            }
            // A trimmed index usually keeps receiving appends: shrinking to
            // the exact length would make the next push double it, so keep
            // room for half the retained length and release the rest.
            let len = self.entries.len();
            self.entries.shrink_to(len + len / 2);
        }
        n
    }

    /// Releases the capacity beyond the current length.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.entries.shrink_to_fit();
        self.buckets.shrink_to_fit();
    }

    /// Approximate heap footprint of the index in bytes (allocated capacity
    /// of the entries and the bucket table).
    pub fn approx_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<PackedEntry>()
            + self.buckets.capacity() * std::mem::size_of::<Bucket>()
    }

    /// All entries with `t` in `[from, to)`, decoded, in canonical order.
    pub fn range(&self, from: Timestamp, to: Timestamp) -> TimelineRange<'_> {
        let lo = self.lower_bound(from);
        let end = self.lower_bound(to).max(lo);
        // The bucket holding entry `lo`; the walk starts in it.
        let next_bucket = self.buckets.partition_point(|bucket| bucket.start <= lo);
        let (base, current) = match next_bucket.checked_sub(1) {
            Some(b) if lo < end => {
                let stop = self.bucket_end(b).min(end);
                (self.buckets[b].base(), self.entries[lo..stop].iter())
            }
            _ => (0, [].iter()),
        };
        TimelineRange {
            entries: &self.entries,
            buckets: &self.buckets,
            base,
            current,
            next_bucket,
            end,
        }
    }

    /// Devices observed in `[around − slack, around + slack]`, excluding `exclude`,
    /// each reported once with the event closest in time to `around`. Devices
    /// are listed in the canonical `(t, device)` order of their first event in
    /// the window.
    pub fn devices_near(
        &self,
        around: Timestamp,
        slack: Timestamp,
        exclude: Option<DeviceId>,
    ) -> Vec<NearbyDevice> {
        devices_near_in(
            self.range(around - slack, around + slack + 1),
            around,
            exclude,
        )
        .into_items()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locater_events::EventId;

    fn event(id: u64, t: Timestamp, ap: u32) -> StoredEvent {
        StoredEvent::new(EventId::new(id), t, AccessPointId::new(ap))
    }

    fn entry(t: Timestamp, d: u32, ap: u32) -> (Timestamp, DeviceId, AccessPointId) {
        (t, DeviceId::new(d), AccessPointId::new(ap))
    }

    /// Records `(t, device, id, ap)` events in the given order, ranking each
    /// by id among the already-recorded events of its device at `t` — what
    /// the store reads off the device timeline.
    fn record_all(tl: &mut Timeline, events: &[(Timestamp, u32, u64, u32)]) {
        for (i, &(t, d, id, ap)) in events.iter().enumerate() {
            let rank = events[..i]
                .iter()
                .filter(|&&(pt, pd, pid, _)| (pt, pd) == (t, d) && pid < id)
                .count();
            tl.record(DeviceId::new(d), &event(id, t, ap), rank);
        }
    }

    fn timeline(entries: &[(Timestamp, DeviceId, AccessPointId)]) -> Timeline {
        let events: Vec<(Timestamp, u32, u64, u32)> = entries
            .iter()
            .enumerate()
            .map(|(i, &(t, d, ap))| (t, d.0, i as u64, ap.raw()))
            .collect();
        let mut tl = Timeline::new();
        record_all(&mut tl, &events);
        tl
    }

    #[test]
    fn record_keeps_sorted_order() {
        let tl = timeline(&[entry(300, 0, 0), entry(100, 1, 1), entry(200, 2, 0)]);
        let ts: Vec<Timestamp> = tl.range(0, 1_000).map(|e| e.t()).collect();
        assert_eq!(ts, vec![100, 200, 300]);
        assert_eq!(tl.len(), 3);
        assert!(!tl.is_empty());
    }

    #[test]
    fn range_is_half_open() {
        let tl = timeline(&[entry(100, 0, 0), entry(200, 1, 0), entry(300, 2, 0)]);
        assert_eq!(tl.range(100, 300).len(), 2);
        assert_eq!(tl.range(101, 300).len(), 1);
        assert_eq!(tl.range(400, 500).len(), 0);
    }

    #[test]
    fn devices_near_reports_closest_event_per_device() {
        let tl = timeline(&[
            entry(90, 1, 0),
            entry(110, 1, 2), // closer to 100 than 90? |110-100|=10 < |90-100|=10 → tie, keeps first
            entry(95, 2, 1),
            entry(500, 3, 0),
        ]);
        let near = tl.devices_near(100, 50, None);
        assert_eq!(near.len(), 2);
        let d1 = near.iter().find(|d| d.device == DeviceId::new(1)).unwrap();
        assert_eq!(d1.t, 90); // tie resolved in favour of the first seen
        let d2 = near.iter().find(|d| d.device == DeviceId::new(2)).unwrap();
        assert_eq!(d2.ap, AccessPointId::new(1));
    }

    #[test]
    fn devices_near_excludes_requested_device() {
        let tl = timeline(&[entry(100, 1, 0), entry(100, 2, 1)]);
        let near = tl.devices_near(100, 10, Some(DeviceId::new(1)));
        assert_eq!(near.len(), 1);
        assert_eq!(near[0].device, DeviceId::new(2));
    }

    #[test]
    fn devices_near_picks_nearest_of_multiple_events() {
        let tl = timeline(&[entry(50, 1, 0), entry(98, 1, 3), entry(140, 1, 5)]);
        let near = tl.devices_near(100, 60, None);
        assert_eq!(near.len(), 1);
        assert_eq!(near[0].ap, AccessPointId::new(3));
        assert_eq!(near[0].t, 98);
    }

    #[test]
    fn record_is_order_independent_with_ids() {
        // Same event set, opposite arrival orders → identical indexes.
        let mut forward = Timeline::new();
        let mut backward = Timeline::new();
        let events = [
            (100, 0u32, 0u64, 0u32),
            (100, 0, 1, 2),
            (100, 1, 2, 1),
            (50, 0, 3, 0),
            (100, 0, 4, 1),
        ];
        record_all(&mut forward, &events);
        let reversed: Vec<_> = events.iter().rev().copied().collect();
        record_all(&mut backward, &reversed);
        assert_eq!(forward, backward);
        // Device 0's three events at t = 100 keep their id order (APs 0, 2, 1).
        let aps: Vec<u32> = forward.range(0, 1_000).map(|e| e.ap().raw()).collect();
        assert_eq!(aps, vec![0, 0, 2, 1, 1]);
    }

    #[test]
    fn trim_before_drops_exact_prefix() {
        let entry_bytes = std::mem::size_of::<PackedEntry>();
        let mut tl = timeline(&[entry(100, 0, 0), entry(200, 1, 0), entry(300, 2, 0)]);
        tl.entries.reserve_exact(200);
        for k in 0..60 {
            tl.record(DeviceId::new(3), &event(100 + k as u64, 400 + k, 0), 0);
        }
        let table_bytes = |tl: &Timeline| tl.buckets.capacity() * std::mem::size_of::<Bucket>();
        assert_eq!(tl.len(), 63);
        assert_eq!(tl.trim_before(200), 1);
        assert_eq!(tl.len(), 62);
        assert_eq!(tl.range(0, 1_000).next().unwrap().t(), 200);
        // A partial trim keeps room for half the retained length, so the
        // next append does not double the array.
        assert_eq!(
            tl.approx_bytes(),
            (62 + 62 / 2) * entry_bytes + table_bytes(&tl)
        );
        // A trim that removes nothing leaves the capacity alone.
        assert_eq!(tl.trim_before(200), 0);
        assert_eq!(
            tl.approx_bytes(),
            (62 + 62 / 2) * entry_bytes + table_bytes(&tl)
        );
        assert_eq!(tl.trim_before(460), 2 + 60);
        assert!(tl.is_empty() && tl.buckets.is_empty());
        assert_eq!(tl.trim_before(1_000), 0);
        assert!(tl.entries.capacity() < 4);
    }

    #[test]
    fn entries_pack_into_eight_bytes() {
        assert_eq!(std::mem::size_of::<PackedEntry>(), 8);
    }

    #[test]
    fn buckets_split_time_at_65536_seconds() {
        const B: Timestamp = 1 << 16;
        let last = EVENT_TIME_LIMIT - 1;
        // Arrival order splices into earlier buckets and opens new ones
        // between existing buckets.
        let tl = timeline(&[
            entry(last, 0, 1),
            entry(B, 1, 0),
            entry(0, 2, 2),
            entry(3 * B - 1, 0, 0),
            entry(B - 1, 1, 1),
            entry(3 * B + 1, 2, 0),
            entry(B, 0, 2),
        ]);
        let all: Vec<(Timestamp, u32, u32)> = tl
            .range(0, EVENT_TIME_LIMIT)
            .map(|e| (e.t(), e.device().0, e.ap().raw()))
            .collect();
        assert_eq!(
            all,
            vec![
                (0, 2, 2),
                (B - 1, 1, 1),
                (B, 0, 2),
                (B, 1, 0),
                (3 * B - 1, 0, 0),
                (3 * B + 1, 2, 0),
                (last, 0, 1),
            ]
        );
        let highs: Vec<u32> = tl.buckets.iter().map(|b| b.high).collect();
        assert_eq!(highs, vec![0, 1, 2, 3, (1 << 16) - 1]);
        // Ranges that start, end or fall inside a bucket boundary.
        assert_eq!(tl.range(B - 1, B + 1).len(), 3);
        assert_eq!(tl.range(B, 3 * B).len(), 3);
        assert_eq!(tl.range(B + 1, 3 * B - 1).len(), 0);
        assert!(tl.range(B + 1, 3 * B - 1).is_empty());
        assert_eq!(tl.range(3 * B, EVENT_TIME_LIMIT).last().unwrap().t(), last);
        assert_eq!(tl.range(-5, B).last().unwrap().t(), B - 1);
        assert_eq!(tl.range(EVENT_TIME_LIMIT, i64::MAX).next(), None);
        // The builder reproduces the incremental index exactly.
        let mut runs = vec![EventSeq::default(); 3];
        for (id, e) in tl.range(0, EVENT_TIME_LIMIT).enumerate() {
            runs[e.device().index()].push(event(id as u64, e.t(), e.ap().raw()));
        }
        assert_eq!(Timeline::from_device_timelines(&runs), tl);
    }
}
