//! Global timeline index over all connectivity events, keyed by access point.
//!
//! The fine-grained localization algorithm needs, for a query `(d_i, t_q)`, the set of
//! *neighbor devices*: devices online at `t_q` in regions overlapping the queried
//! device's region (paper §4.2). Each region is the coverage of one access point
//! (§2), so the [`Timeline`] keeps one time-sorted posting list per access point:
//! the devices the APs of a region saw in `[t_q − slack, t_q + slack]` are one binary
//! search plus a short scan of each of those lists. Whether such a device is online
//! at `t_q`, and where, its own [`EventSeq`] answers
//! ([`EventRead::devices_online_near`](crate::EventRead::devices_online_near)).

use locater_events::{DeviceId, EventSeq, Interval, StoredEvent, Timestamp};
use locater_space::AccessPointId;

/// One entry of an access point's posting list: a device the AP logged at a
/// time. Eight bytes: a stored event's timestamp fits 32 bits, and the AP is
/// the list's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Posting {
    t: u32,
    device: DeviceId,
}

impl Posting {
    /// The posting of one of `device`'s events.
    #[inline]
    fn of(device: DeviceId, event: &StoredEvent) -> Self {
        Self {
            t: event.t() as u32,
            device,
        }
    }

    #[inline]
    fn t(&self) -> Timestamp {
        Timestamp::from(self.t)
    }

    /// The `(t, device)` order as one integer: a sort on it compares each
    /// pair once, not field by field.
    #[inline]
    fn key(&self) -> u64 {
        u64::from(self.t) << 32 | u64::from(self.device.0)
    }
}

/// One time-sorted posting list per access point over all events of all
/// devices.
///
/// Each list is kept in **`(t, device)` order**. Entries of one device at one
/// timestamp on one AP are equal, so the order needs no event id: every list
/// — and so the index — is a pure function of the event *set*, independent of
/// the order the events arrived in (backfill included). Readers that need the
/// canonical `(t, device)` order across lists sort what they collect by it, so
/// a sharded deployment (per-device partitioned stores, see
/// [`crate::ShardedRead`]) reads each shard's lists the same way and answers
/// exactly like a single store.
///
/// The lists are indexed by access point id and sized to the space, so the
/// index of a store equals the one a load rebuilds from the same events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline {
    /// The posting list of access point `i` at index `i`.
    lists: Vec<Vec<Posting>>,
}

impl Timeline {
    /// An empty index over `access_points` access points.
    pub(crate) fn new(access_points: usize) -> Self {
        Self {
            lists: vec![Vec::new(); access_points],
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.lists.iter().map(Vec::len).sum()
    }

    /// `true` if no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.lists.iter().all(Vec::is_empty)
    }

    /// Builds the index of the device timelines (`timelines[i]` holds the
    /// events of device `i`, each on an AP below `access_points`): a counting
    /// pass sizes every list exactly, a second pass fills them device by
    /// device, and a sort puts each in `(t, device)` order.
    pub(crate) fn from_device_timelines(access_points: usize, timelines: &[EventSeq]) -> Self {
        let mut counts = vec![0usize; access_points];
        for event in timelines.iter().flat_map(EventSeq::iter) {
            counts[event.ap().index()] += 1;
        }
        let mut lists: Vec<Vec<Posting>> = counts.into_iter().map(Vec::with_capacity).collect();
        for (idx, timeline) in timelines.iter().enumerate() {
            let device = DeviceId::new(idx as u32);
            for event in timeline.iter() {
                lists[event.ap().index()].push(Posting::of(device, event));
            }
        }
        for list in &mut lists {
            list.sort_unstable_by_key(Posting::key);
        }
        Self { lists }
    }

    /// Records one of `device`'s events in its access point's list, keeping
    /// `(t, device)` order: an append when events arrive in order, a splice
    /// into that one list otherwise.
    pub(crate) fn record(&mut self, device: DeviceId, event: &StoredEvent) {
        let posting = Posting::of(device, event);
        let list = &mut self.lists[event.ap().index()];
        if list.last().is_none_or(|last| *last <= posting) {
            list.push(posting);
        } else {
            let pos = list.partition_point(|entry| *entry <= posting);
            list.insert(pos, posting);
        }
    }

    /// Drops every entry with `t < cut` (a prefix of each list) and releases
    /// most of the freed capacity. Returns the number of entries removed.
    pub(crate) fn trim_before(&mut self, cut: Timestamp) -> usize {
        let mut removed = 0;
        for list in &mut self.lists {
            let n = list.partition_point(|entry| entry.t() < cut);
            if n > 0 {
                list.drain(..n);
                // A trimmed list usually keeps receiving appends: shrinking
                // to the exact length would make the next push double it, so
                // keep room for half the retained length and release the rest.
                let len = list.len();
                list.shrink_to(len + len / 2);
                removed += n;
            }
        }
        removed
    }

    /// Makes room for `counts[i]` more entries in access point `i`'s list:
    /// exactly that many in an empty list, by `Vec`'s amortized growth in a
    /// non-empty one (as [`EventSeq::reserve`]).
    pub(crate) fn reserve(&mut self, counts: &[usize]) {
        for (list, &additional) in self.lists.iter_mut().zip(counts) {
            if list.is_empty() {
                list.reserve_exact(additional);
            } else {
                list.reserve(additional);
            }
        }
    }

    /// Approximate heap footprint of the index in bytes: the allocated
    /// capacity of the lists. The table of lists, one header per access
    /// point of the space, does not grow with history and is not counted.
    pub fn approx_bytes(&self) -> usize {
        self.lists
            .iter()
            .map(|list| list.capacity() * std::mem::size_of::<Posting>())
            .sum()
    }

    /// The first and the last timestamp held, if any.
    pub(crate) fn span(&self) -> Option<(Timestamp, Timestamp)> {
        let first = self.lists.iter().filter_map(|list| list.first()).min()?;
        let last = self.lists.iter().filter_map(|list| list.last()).max()?;
        Some((first.t(), last.t()))
    }

    /// The entries of `ap`'s list as `(t, device)`, in that order.
    pub fn entries(&self, ap: AccessPointId) -> impl Iterator<Item = (Timestamp, DeviceId)> + '_ {
        self.lists[ap.index()]
            .iter()
            .map(|entry| (entry.t(), entry.device))
    }

    /// The posting lists of `aps`.
    pub(crate) fn lists<'a>(
        &'a self,
        aps: &'a [AccessPointId],
    ) -> impl Iterator<Item = &'a [Posting]> + 'a {
        aps.iter().map(|ap| self.lists[ap.index()].as_slice())
    }
}

/// Appends the device of every entry of `lists` with `t` in `window`, list
/// by list: a device repeats once per entry.
pub(crate) fn devices_seen_in<'a>(
    lists: impl Iterator<Item = &'a [Posting]>,
    window: Interval,
    out: &mut Vec<DeviceId>,
) {
    for list in skip_below(lists, |entry| entry.t() < window.start) {
        out.extend(
            list.iter()
                .take_while(|entry| entry.t() < window.end)
                .map(|entry| entry.device),
        );
    }
}

/// Each of `lists` from its first item that is not `below` on (`below` holds
/// for a prefix of each). One binary search per list, run in lockstep: each
/// round halves every open search, so the cache misses of different lists
/// overlap instead of queueing one search behind the next.
pub(crate) fn skip_below<'a, T>(
    lists: impl Iterator<Item = &'a [T]>,
    below: impl Fn(&T) -> bool,
) -> Vec<&'a [T]> {
    // The answer of each search lies in `lo..=lo + size`.
    let mut searches: Vec<(&[T], usize, usize)> = lists.map(|list| (list, 0, list.len())).collect();
    let mut open = true;
    while open {
        open = false;
        for (list, lo, size) in &mut searches {
            if *size > 0 {
                let half = *size / 2;
                if below(&list[*lo + half]) {
                    *lo += half + 1;
                    *size -= half + 1;
                } else {
                    *size = half;
                }
                open |= *size > 0;
            }
        }
    }
    searches
        .into_iter()
        .map(|(list, lo, _)| &list[lo..])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventStore;
    use locater_events::{EventId, EVENT_TIME_LIMIT};
    use locater_space::{Space, SpaceBuilder};

    fn event(id: u64, t: Timestamp, ap: u32) -> StoredEvent {
        StoredEvent::new(EventId::new(id), t, AccessPointId::new(ap))
    }

    /// Records `(t, device, ap)` events in the given order.
    fn timeline(events: &[(Timestamp, u32, u32)]) -> Timeline {
        let mut tl = Timeline::new(6);
        for (id, &(t, d, ap)) in events.iter().enumerate() {
            tl.record(DeviceId::new(d), &event(id as u64, t, ap));
        }
        tl
    }

    /// `(t, device)` of every entry of `ap`'s list.
    fn list(tl: &Timeline, ap: u32) -> Vec<(Timestamp, u32)> {
        tl.entries(AccessPointId::new(ap))
            .map(|(t, d)| (t, d.0))
            .collect()
    }

    /// The devices `ap`'s list saw in `[from, to)`.
    fn seen(tl: &Timeline, ap: u32, from: Timestamp, to: Timestamp) -> Vec<u32> {
        let mut out = Vec::new();
        let aps = [AccessPointId::new(ap)];
        devices_seen_in(tl.lists(&aps), Interval::new(from, to), &mut out);
        out.into_iter().map(|d| d.0).collect()
    }

    fn space() -> Space {
        SpaceBuilder::new("timeline-test")
            .add_access_point("wap0", &["a"])
            .add_access_point("wap1", &["a", "b"])
            .add_access_point("wap2", &["b"])
            .add_access_point("wap3", &["c"])
            .add_access_point("wap4", &["c"])
            .add_access_point("wap5", &["d"])
            .build()
            .unwrap()
    }

    /// A store of `(t, device, ap)` events, device `d` named `d{d}`.
    fn store(events: &[(Timestamp, u32, u32)]) -> EventStore {
        let mut store = EventStore::new(space());
        for d in 0..=events.iter().map(|e| e.1).max().unwrap_or(0) {
            store.intern_device(&format!("d{d}")).unwrap();
        }
        for &(t, d, ap) in events {
            store
                .ingest_raw(&format!("d{d}"), t, &format!("wap{ap}"))
                .unwrap();
        }
        store
    }

    #[test]
    fn record_keeps_sorted_order() {
        let tl = timeline(&[(300, 0, 0), (100, 1, 0), (200, 2, 0), (150, 0, 1)]);
        assert_eq!(list(&tl, 0), vec![(100, 1), (200, 2), (300, 0)]);
        assert_eq!(list(&tl, 1), vec![(150, 0)]);
        assert_eq!(tl.len(), 4);
        assert!(!tl.is_empty());
        assert!(Timeline::new(3).is_empty());
    }

    #[test]
    fn range_is_half_open() {
        let tl = timeline(&[(100, 0, 0), (200, 1, 0), (300, 2, 0), (200, 3, 1)]);
        assert_eq!(seen(&tl, 0, 100, 300), vec![0, 1]);
        assert_eq!(seen(&tl, 0, 101, 300), vec![1]);
        assert_eq!(seen(&tl, 0, 400, 500), Vec::<u32>::new());
        assert_eq!(seen(&tl, 1, i64::MIN / 2, i64::MAX / 2), vec![3]);
    }

    #[test]
    fn late_entries_splice_into_their_own_list_only() {
        let mut tl = timeline(&[
            (100, 0, 0),
            (300, 1, 0),
            (500, 2, 0),
            (200, 0, 1),
            (400, 1, 1),
        ]);
        let before: Vec<_> = (0..6).map(|ap| list(&tl, ap)).collect();
        // Late: below an AP's last entry, and a tie at an existing time
        // that sorts by device.
        tl.record(DeviceId::new(3), &event(9, 250, 0));
        tl.record(DeviceId::new(0), &event(10, 300, 0));
        assert_eq!(
            list(&tl, 0),
            vec![(100, 0), (250, 3), (300, 0), (300, 1), (500, 2)]
        );
        for (ap, unchanged) in (0..).zip(&before).skip(1) {
            assert_eq!(&list(&tl, ap), unchanged, "list of AP {ap}");
        }
    }

    #[test]
    fn devices_near_reports_closest_event_per_device() {
        let store = store(&[
            (90, 1, 0),
            (110, 1, 2), // |110-100| = |90-100|: a tie, the earlier event wins
            (95, 2, 1),
            (500, 3, 0),
        ]);
        let near = store.devices_near(100, 50, None);
        assert_eq!(near.len(), 2);
        let d1 = near.iter().find(|d| d.device == DeviceId::new(1)).unwrap();
        assert_eq!((d1.t, d1.ap), (90, AccessPointId::new(0)));
        let d2 = near.iter().find(|d| d.device == DeviceId::new(2)).unwrap();
        assert_eq!(d2.ap, AccessPointId::new(1));
    }

    #[test]
    fn devices_near_excludes_requested_device() {
        let store = store(&[(100, 1, 0), (100, 2, 1)]);
        let near = store.devices_near(100, 10, Some(DeviceId::new(1)));
        assert_eq!(near.len(), 1);
        assert_eq!(near[0].device, DeviceId::new(2));
    }

    #[test]
    fn devices_near_picks_nearest_of_multiple_events() {
        let store = store(&[(50, 1, 0), (98, 1, 3), (140, 1, 5)]);
        let near = store.devices_near(100, 60, None);
        assert_eq!(near.len(), 1);
        assert_eq!(near[0].ap, AccessPointId::new(3));
        assert_eq!(near[0].t, 98);
    }

    #[test]
    fn record_is_order_independent_with_ids() {
        // Same event set, opposite arrival orders → identical indexes.
        let events = [
            (100, 0, 0),
            (100, 0, 2),
            (100, 1, 1),
            (50, 0, 0),
            (100, 0, 1),
        ];
        let forward = timeline(&events);
        let reversed: Vec<_> = events.iter().rev().copied().collect();
        assert_eq!(forward, timeline(&reversed));
        assert_eq!(list(&forward, 1), vec![(100, 0), (100, 1)]);
    }

    #[test]
    fn trim_before_drops_exact_prefix() {
        let entry_bytes = std::mem::size_of::<Posting>();
        let mut tl = timeline(&[(100, 0, 0), (200, 1, 0), (300, 2, 0)]);
        tl.lists[0].reserve_exact(200);
        for k in 0..60 {
            tl.record(DeviceId::new(3), &event(100 + k as u64, 400 + k, 0));
        }
        assert_eq!(tl.len(), 63);
        assert_eq!(tl.trim_before(200), 1);
        assert_eq!(tl.len(), 62);
        assert_eq!(tl.span(), Some((200, 459)));
        // A partial trim keeps room for half the retained length, so the
        // next append does not double the list.
        assert_eq!(tl.approx_bytes(), (62 + 62 / 2) * entry_bytes);
        // A trim that removes nothing leaves the capacity alone.
        assert_eq!(tl.trim_before(200), 0);
        assert_eq!(tl.approx_bytes(), (62 + 62 / 2) * entry_bytes);
        assert_eq!(tl.trim_before(460), 2 + 60);
        assert!(tl.is_empty() && tl.span().is_none());
        assert_eq!(tl.trim_before(1_000), 0);
        assert!(tl.lists[0].capacity() < 4);
    }

    #[test]
    fn entries_pack_into_eight_bytes() {
        assert_eq!(std::mem::size_of::<Posting>(), 8);
    }

    #[test]
    fn lists_hold_the_whole_storable_time_range() {
        let last = EVENT_TIME_LIMIT - 1;
        let tl = timeline(&[
            (last, 0, 1),
            (1 << 16, 1, 1),
            (0, 2, 1),
            (last, 2, 1),
            ((1 << 16) - 1, 1, 2),
        ]);
        assert_eq!(
            list(&tl, 1),
            vec![(0, 2), (1 << 16, 1), (last, 0), (last, 2)]
        );
        assert_eq!(tl.span(), Some((0, last)));
        assert_eq!(seen(&tl, 1, last, EVENT_TIME_LIMIT), vec![0, 2]);
        assert_eq!(seen(&tl, 1, -5, 1), vec![2]);
        assert_eq!(seen(&tl, 1, EVENT_TIME_LIMIT, i64::MAX), Vec::<u32>::new());
        // The builder reproduces the incremental index exactly.
        let mut runs = vec![EventSeq::default(); 3];
        for (id, &(t, d, ap)) in [
            (0, 2, 1),
            ((1 << 16) - 1, 1, 2),
            (1 << 16, 1, 1),
            (last, 0, 1),
            (last, 2, 1),
        ]
        .iter()
        .enumerate()
        {
            runs[d as usize].push(event(id as u64, t, ap));
        }
        assert_eq!(Timeline::from_device_timelines(6, &runs), tl);
    }
}
