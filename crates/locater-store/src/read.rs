//! The read-side interface of the event store.
//!
//! The cleaning engines never mutate the store while answering a query — they
//! only read per-device timelines, the device table, and the global index of
//! which devices each access point logged when. [`EventRead`] captures exactly
//! that surface, so an engine can run against either a single
//! [`EventStore`](crate::EventStore) or a read-only view assembled from
//! several per-device-partitioned stores ([`ShardedRead`](crate::ShardedRead))
//! without knowing the difference.
//!
//! Most accessors are *provided* in terms of five primitives —
//! [`EventRead::timeline_of`], [`EventRead::devices`],
//! [`EventRead::devices_seen_by`], [`EventRead::max_delta`] and
//! [`EventRead::space`] — with the same definitions the store itself uses, so
//! every implementation answers identically by construction.

use crate::timeline::{devices_seen_in, skip_below};
use locater_events::{
    gap_containing, gaps_in, gaps_in_window, Device, DeviceId, EventSeq, Gap, Interval,
    StoredEvent, Timestamp,
};
use locater_space::{AccessPointId, RegionId, Space};
use std::sync::Arc;

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

/// The devices the index lists of `aps` saw in `window`, each once and in id
/// order, without `exclude`.
fn devices_seen<R: EventRead + ?Sized>(
    read: &R,
    aps: &[AccessPointId],
    window: Interval,
    exclude: Option<DeviceId>,
) -> Vec<DeviceId> {
    let mut seen = Vec::new();
    read.devices_seen_by(aps, window, &mut seen);
    seen.sort_unstable();
    seen.dedup();
    seen.retain(|&device| Some(device) != exclude);
    seen
}

/// Each device's timeline from its first event at or after `start` on.
fn timelines_from<'r, R: EventRead + ?Sized>(
    read: &'r R,
    devices: &[DeviceId],
    start: Timestamp,
) -> Vec<&'r [StoredEvent]> {
    let timelines = devices
        .iter()
        .map(|&device| read.timeline_of(device).events());
    skip_below(timelines, |event| event.t() < start)
}

/// The items of `found` in the canonical `(t, device)` order of their keys:
/// each device's first event in the probe window.
fn in_first_event_order<T>(mut found: Vec<((Timestamp, DeviceId), T)>) -> Vec<T> {
    found.sort_unstable_by_key(|&(key, _)| key);
    found.into_iter().map(|(_, item)| item).collect()
}

/// Read access to one logical event store (a single [`EventStore`](crate::EventStore)
/// or a sharded view over several).
///
/// Implementations must agree on the invariants the store maintains: device ids
/// are dense indices into [`EventRead::devices`], each device's timeline is
/// time-sorted, and the index behind [`EventRead::devices_seen_by`] holds one
/// entry per event.
pub trait EventRead: Sync {
    /// The space metadata the events refer to.
    fn space(&self) -> &Arc<Space>;

    /// All devices, indexable by [`DeviceId::index`].
    fn devices(&self) -> &[Device];

    /// Looks up a device id by MAC address / log identifier.
    fn device_id(&self, mac: &str) -> Option<DeviceId>;

    /// Total number of events.
    fn num_events(&self) -> usize;

    /// The largest validity period δ across all devices.
    fn max_delta(&self) -> Timestamp;

    /// The time-sorted event timeline of a device.
    fn timeline_of(&self, device: DeviceId) -> &EventSeq;

    /// Appends the device of every global-index entry of the access points
    /// `aps` with a timestamp in `window`: a device repeats once per entry,
    /// and the order is unspecified.
    fn devices_seen_by(&self, aps: &[AccessPointId], window: Interval, out: &mut Vec<DeviceId>);

    // ------------------------------------------------------------------
    // Provided accessors (definitionally identical for every implementation)
    // ------------------------------------------------------------------

    /// Number of distinct devices observed.
    fn num_devices(&self) -> usize {
        self.devices().len()
    }

    /// Returns the device with the given id.
    ///
    /// # Panics
    /// Panics if the id does not belong to this store.
    fn device(&self, id: DeviceId) -> &Device {
        &self.devices()[id.index()]
    }

    /// The validity period δ of a device, in seconds.
    fn delta(&self, device: DeviceId) -> Timestamp {
        self.device(device).delta
    }

    /// Events of a device with timestamps in `[range.start, range.end)`, in
    /// time order.
    fn events_of_in(&self, device: DeviceId, range: Interval) -> std::slice::Iter<'_, StoredEvent> {
        self.timeline_of(device).in_range(range).iter()
    }

    /// The event (and its index in the device timeline) whose validity interval
    /// covers `t`, if any.
    fn covering_event(&self, device: DeviceId, t: Timestamp) -> Option<(usize, StoredEvent)> {
        self.timeline_of(device)
            .covering_event(t, self.delta(device))
            .map(|(idx, event)| (idx, *event))
    }

    /// The region a covering event (if any) places the device in at time `t`.
    fn covering_region(&self, device: DeviceId, t: Timestamp) -> Option<RegionId> {
        self.covering_event(device, t).map(|(_, e)| e.region())
    }

    /// All gaps of a device (`GAP(d_i)`).
    fn gaps_of(&self, device: DeviceId) -> Vec<Gap> {
        gaps_in(self.timeline_of(device), self.delta(device))
    }

    /// Gaps of a device whose interval intersects `window`, computed from the
    /// events around the window only.
    fn gaps_of_in(&self, device: DeviceId, window: Interval) -> Vec<Gap> {
        gaps_in_window(self.timeline_of(device), window, self.delta(device))
    }

    /// The gap containing `t` for this device, if `t` falls in one.
    fn gap_at(&self, device: DeviceId, t: Timestamp) -> Option<Gap> {
        gap_containing(self.timeline_of(device), t, self.delta(device))
    }

    /// Devices with at least one event in `[t − slack, t + slack]`, excluding
    /// `exclude`, each with its event closest to `t` (the earlier one in
    /// timeline order on a tie), in the canonical `(t, device)` order of
    /// their first event in the window.
    ///
    /// The reference behind [`devices_online_at`](Self::devices_online_at) and
    /// the benchmark's `store.devices_near_us` probe, on no locate path (those
    /// read only their region's APs, in [`Self::devices_online_near`]): not
    /// scoped to a region, it reads every AP's list by definition.
    fn devices_near(
        &self,
        t: Timestamp,
        slack: Timestamp,
        exclude: Option<DeviceId>,
    ) -> Vec<NearbyDevice> {
        let window = Interval::new(t - slack, t + slack + 1);
        let aps: Vec<AccessPointId> = (0..self.space().num_access_points() as u32)
            .map(AccessPointId::new)
            .collect();
        let devices = devices_seen(self, &aps, window, exclude);
        let found = timelines_from(self, &devices, window.start)
            .into_iter()
            .zip(devices)
            .map(|(events, device)| {
                // The index saw the device in the window.
                let first = events[0];
                let in_window = events.iter().take_while(|event| event.t() < window.end);
                let nearest = in_window.fold(first, |best, &event| {
                    if (event.t() - t).abs() < (best.t() - t).abs() {
                        event
                    } else {
                        best
                    }
                });
                let near = NearbyDevice {
                    device,
                    ap: nearest.ap(),
                    t: nearest.t(),
                };
                ((first.t(), device), near)
            })
            .collect();
        in_first_event_order(found)
    }

    /// Devices *online* at time `t` (a covering event exists at `t`), reported
    /// with the region that event places them in; `exclude` is omitted. The
    /// reference definition: a covering-event lookup per device near `t`.
    fn devices_online_at(
        &self,
        t: Timestamp,
        exclude: Option<DeviceId>,
    ) -> Vec<(DeviceId, RegionId)> {
        let slack = self.max_delta();
        self.devices_near(t, slack, exclude)
            .into_iter()
            .filter_map(|near| {
                self.covering_region(near.device, t)
                    .map(|region| (near.device, region))
            })
            .collect()
    }

    /// The devices of [`EventRead::devices_online_at`] whose covering region
    /// overlaps `region`, in the same order — the neighbor candidates of the
    /// fine step (paper §4.2), read from the index lists of the access points
    /// whose regions overlap `region` only.
    ///
    /// A covering event lies within δ ≤ max δ of `t`, and its region is its
    /// AP's, so every such device shows in those lists within `t ± max δ`.
    /// Each one is then checked once against its own timeline: its first
    /// event in the window is its `(t, device)` key; its last event at or
    /// before `t` covers when `t − e.t < δ`, else its first event after `t`
    /// when `e.t − t ≤ δ` (the validity interval is closed on the left) —
    /// the preference order of
    /// [`EventSeq::covering_event`](locater_events::EventSeq::covering_event).
    /// A successor can never cut the earlier event's validity short of `t`:
    /// it lies after `t`.
    fn devices_online_near(
        &self,
        t: Timestamp,
        region: RegionId,
        exclude: Option<DeviceId>,
    ) -> Vec<(DeviceId, RegionId)> {
        let space = self.space();
        let slack = self.max_delta();
        let window = Interval::new(t - slack, t + slack + 1);
        let aps: Vec<AccessPointId> = (0..space.num_regions() as u32)
            .map(RegionId::new)
            .filter(|&other| space.regions_overlap(region, other))
            .map(RegionId::access_point)
            .collect();
        let devices = devices_seen(self, &aps, window, exclude);
        let found = timelines_from(self, &devices, window.start)
            .into_iter()
            .zip(devices)
            .filter_map(|(events, device)| {
                let mut past = None;
                let mut future = None;
                for event in events {
                    if event.t() <= t {
                        past = Some(event);
                    } else {
                        future = Some(event);
                        break;
                    }
                }
                let delta = self.delta(device);
                let covering = past
                    .filter(|event| t - event.t() < delta)
                    .or(future.filter(|event| event.t() - t <= delta))?;
                let other = covering.region();
                space
                    .regions_overlap(region, other)
                    .then_some(((events[0].t(), device), (device, other)))
            })
            .collect();
        in_first_event_order(found)
    }
}

impl EventRead for crate::EventStore {
    fn space(&self) -> &Arc<Space> {
        crate::EventStore::space(self)
    }

    fn devices(&self) -> &[Device] {
        crate::EventStore::devices(self)
    }

    fn device_id(&self, mac: &str) -> Option<DeviceId> {
        crate::EventStore::device_id(self, mac)
    }

    fn num_events(&self) -> usize {
        crate::EventStore::num_events(self)
    }

    fn max_delta(&self) -> Timestamp {
        crate::EventStore::max_delta(self)
    }

    fn timeline_of(&self, device: DeviceId) -> &EventSeq {
        crate::EventStore::timeline_of(self, device)
    }

    fn devices_seen_by(&self, aps: &[AccessPointId], window: Interval, out: &mut Vec<DeviceId>) {
        devices_seen_in(self.timeline().lists(aps), window, out);
    }
}
