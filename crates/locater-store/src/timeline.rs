//! Global timeline index over all connectivity events.
//!
//! The fine-grained localization algorithm needs, for a query `(d_i, t_q)`, the set of
//! *neighbor devices*: devices that are online around `t_q` in regions overlapping the
//! queried device's region (paper §4.2). The [`Timeline`] answers "which devices were
//! connected in `[t_q − slack, t_q + slack]`, and to which AP?" with one binary search
//! plus a short range scan.

use locater_events::{Device, DeviceId, StoredEvent, Timestamp};
use locater_space::{AccessPointId, RegionId};

/// One entry of the global timeline: a device connected to an AP at a time
/// (12 bytes, with the widths of a [`StoredEvent`]). It carries no event id:
/// entries of one device at one timestamp keep the order of the device's own
/// timeline, which is by id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineEntry {
    t: u32,
    device: DeviceId,
    ap: u16,
}

impl TimelineEntry {
    /// The entry of one of `device`'s events.
    #[inline]
    pub(crate) fn of(device: DeviceId, event: &StoredEvent) -> Self {
        // Exact: a stored event's timestamp fits 32 bits and its access
        // point 16.
        Self {
            t: event.t() as u32,
            device,
            ap: event.ap().raw() as u16,
        }
    }

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
/// live in one store, merging per-shard timelines needs only `(t, device)`.
/// That representation transparency is what lets a sharded deployment
/// (per-device partitioned stores, see [`crate::ShardedRead`]) reproduce the
/// answers of a single store bit for bit, and what makes late/out-of-order
/// ingest safe.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timeline {
    entries: Vec<TimelineEntry>,
}

/// The stored part of the canonical ordering key: time, then device id.
#[inline]
pub(crate) fn entry_key(entry: &TimelineEntry) -> (u32, DeviceId) {
    (entry.t, entry.device)
}

/// Scans canonically ordered timeline entries and reports each device once with
/// its event closest to `around` (earlier event wins exact-distance ties).
/// Shared by [`Timeline::devices_near`] and the multi-shard merged view so the
/// two can never diverge.
pub(crate) fn devices_near_in<'a>(
    window: impl IntoIterator<Item = &'a TimelineEntry>,
    around: Timestamp,
    exclude: Option<DeviceId>,
) -> Vec<NearbyDevice> {
    let mut best: Vec<NearbyDevice> = Vec::new();
    // Slot of each device in `best` (dense device ids index directly), so the
    // dedup/closest pass stays O(1) per entry instead of rescanning `best` —
    // the window of a busy building holds thousands of entries, and the old
    // linear probe made this scan quadratic. Insertion order — the canonical
    // first-event order — is unchanged.
    const NO_SLOT: u32 = u32::MAX;
    let mut slot_of: Vec<u32> = Vec::new();
    for entry in window {
        if Some(entry.device()) == exclude {
            continue;
        }
        let idx = entry.device().index();
        if idx >= slot_of.len() {
            slot_of.resize(idx + 1, NO_SLOT);
        }
        match slot_of[idx] {
            NO_SLOT => {
                slot_of[idx] = best.len() as u32;
                best.push(NearbyDevice {
                    device: entry.device(),
                    ap: entry.ap(),
                    t: entry.t(),
                });
            }
            slot => {
                let existing = &mut best[slot as usize];
                if (entry.t() - around).abs() < (existing.t - around).abs() {
                    existing.ap = entry.ap();
                    existing.t = entry.t();
                }
            }
        }
    }
    best
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
pub(crate) fn devices_online_in<'a>(
    window: impl IntoIterator<Item = &'a TimelineEntry>,
    at: Timestamp,
    exclude: Option<DeviceId>,
    devices: &[Device],
) -> Vec<(DeviceId, RegionId)> {
    struct Candidate {
        device: DeviceId,
        /// Last window entry with `t <= at` (timestamp, AP).
        past: Option<(Timestamp, AccessPointId)>,
        /// First window entry with `t > at`.
        future: Option<(Timestamp, AccessPointId)>,
    }
    let mut candidates: Vec<Candidate> = Vec::with_capacity(64);
    const NO_SLOT: u32 = u32::MAX;
    // Sized once up front: the entries' device ids are dense indices into the
    // replicated device table.
    let mut slot_of: Vec<u32> = vec![NO_SLOT; devices.len()];
    for entry in window {
        if Some(entry.device()) == exclude {
            continue;
        }
        let idx = entry.device().index();
        if idx >= slot_of.len() {
            slot_of.resize(idx + 1, NO_SLOT);
        }
        let slot = match slot_of[idx] {
            NO_SLOT => {
                slot_of[idx] = candidates.len() as u32;
                candidates.push(Candidate {
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
    }
    candidates
        .into_iter()
        .filter_map(|candidate| {
            let delta = devices[candidate.device.index()].delta;
            if let Some((t, ap)) = candidate.past {
                // Covers iff `at < min(successor.t, t + δ)`; the successor is
                // after `at`, so only `t + δ` can exclude it.
                if at - t < delta {
                    return Some((candidate.device, ap.region()));
                }
            }
            if let Some((t, ap)) = candidate.future {
                // Validity starts at `t − δ` inclusive.
                if t - at <= delta {
                    return Some((candidate.device, ap.region()));
                }
            }
            None
        })
        .collect()
}

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

    /// Adopts entries already in canonical order (exact capacity kept).
    pub(crate) fn from_canonical(entries: Vec<TimelineEntry>) -> Self {
        debug_assert!(entries.is_sorted_by_key(entry_key));
        Self { entries }
    }

    /// Records one of `device`'s events, keeping the index in canonical
    /// `(t, device, id)` order: `rank` is the number of the device's events
    /// at `t` with a smaller id. Appends are O(1) when events arrive in
    /// canonical order; out-of-order backfill splices into place.
    pub(crate) fn record(&mut self, device: DeviceId, event: &StoredEvent, rank: usize) {
        let entry = TimelineEntry::of(device, event);
        let key = entry_key(&entry);
        match self.entries.last() {
            Some(last) if entry_key(last) >= key => {
                let pos = self.entries.partition_point(|e| entry_key(e) < key) + rank;
                self.entries.insert(pos, entry);
            }
            _ => self.entries.push(entry),
        }
    }

    /// Drops every entry with `t < cut` (a prefix — entries are time-sorted)
    /// and releases most of the freed capacity. Returns the number of entries
    /// removed.
    pub fn trim_before(&mut self, cut: Timestamp) -> usize {
        let n = self.entries.partition_point(|e| e.t() < cut);
        if n > 0 {
            self.entries.drain(..n);
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
    }

    /// Approximate heap footprint of the index in bytes (allocated capacity).
    pub fn approx_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<TimelineEntry>()
    }

    /// All entries with `t` in `[from, to)`.
    pub fn range(&self, from: Timestamp, to: Timestamp) -> &[TimelineEntry] {
        let lo = self.entries.partition_point(|e| e.t() < from);
        let hi = self.entries.partition_point(|e| e.t() < to);
        &self.entries[lo..hi]
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
        let ts: Vec<Timestamp> = tl.range(0, 1_000).iter().map(|e| e.t()).collect();
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
        let aps: Vec<u32> = forward
            .range(0, 1_000)
            .iter()
            .map(|e| e.ap().raw())
            .collect();
        assert_eq!(aps, vec![0, 0, 2, 1, 1]);
    }

    #[test]
    fn trim_before_drops_exact_prefix() {
        let entry_bytes = std::mem::size_of::<TimelineEntry>();
        let mut tl = timeline(&[entry(100, 0, 0), entry(200, 1, 0), entry(300, 2, 0)]);
        tl.entries.reserve_exact(200);
        for k in 0..60 {
            tl.record(DeviceId::new(3), &event(100 + k as u64, 400 + k, 0), 0);
        }
        assert_eq!(tl.len(), 63);
        assert_eq!(tl.trim_before(200), 1);
        assert_eq!(tl.len(), 62);
        assert_eq!(tl.range(0, 1_000).first().unwrap().t(), 200);
        // A partial trim keeps room for half the retained length, so the
        // next append does not double the array.
        assert_eq!(tl.approx_bytes(), (62 + 62 / 2) * entry_bytes);
        // A trim that removes nothing leaves the capacity alone.
        assert_eq!(tl.trim_before(200), 0);
        assert_eq!(tl.approx_bytes(), (62 + 62 / 2) * entry_bytes);
        assert_eq!(tl.trim_before(460), 2 + 60);
        assert!(tl.is_empty());
        assert_eq!(tl.trim_before(1_000), 0);
        assert!(tl.approx_bytes() < std::mem::size_of::<TimelineEntry>() * 4);
    }
}
