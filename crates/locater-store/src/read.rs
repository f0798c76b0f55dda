//! The read-side interface of the event store.
//!
//! The cleaning engines never mutate the store while answering a query — they
//! only read per-device timelines, the device table, and the global "who was
//! online near `t`?" index (device affinity, too, reads only timelines: the
//! store has no per-access-point index). [`EventRead`] captures exactly that
//! surface, so an engine can run against either a single
//! [`EventStore`](crate::EventStore) or a read-only view assembled from
//! several per-device-partitioned stores ([`ShardedRead`](crate::ShardedRead))
//! without knowing the difference.
//!
//! Most accessors are *provided* in terms of four primitives —
//! [`EventRead::timeline_of`], [`EventRead::devices`],
//! [`EventRead::devices_near`] and [`EventRead::space`] — with the same
//! definitions the store itself uses, so every implementation answers
//! identically by construction.

use crate::timeline::NearbyDevice;
use locater_events::{
    gap_containing, gaps_in, gaps_in_window, Device, DeviceId, EventSeq, Gap, Interval,
    StoredEvent, Timestamp,
};
use locater_space::{RegionId, Space};
use std::sync::Arc;

/// Read access to one logical event store (a single [`EventStore`](crate::EventStore)
/// or a sharded view over several).
///
/// Implementations must agree on the invariants the store maintains: device ids
/// are dense indices into [`EventRead::devices`], each device's timeline is
/// time-sorted, and [`EventRead::devices_near`] lists devices in the canonical
/// `(t, device)` order of their first event in the probe window.
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

    /// Devices with at least one event in `[t − slack, t + slack]`, excluding
    /// `exclude`, each with its event closest to `t`, in canonical
    /// `(t, device)` first-event order.
    fn devices_near(
        &self,
        t: Timestamp,
        slack: Timestamp,
        exclude: Option<DeviceId>,
    ) -> Vec<NearbyDevice>;

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

    /// Devices *online* at time `t` (a covering event exists at `t`), reported
    /// with the region that event places them in; `exclude` is omitted.
    fn devices_online_at(
        &self,
        t: Timestamp,
        exclude: Option<DeviceId>,
    ) -> Vec<(DeviceId, RegionId)> {
        let slack = self.max_delta();
        self.devices_near(t, slack, exclude)
            .into_iter()
            .filter_map(|near| {
                // A validity interval spans at most [e.t − δ, e.t + δ), so a
                // device whose *closest* event is more than δ away cannot be
                // covered — skip the covering-event lookup outright (the
                // closed left bound means distance exactly δ can still
                // cover). `devices_near` probes with the global max δ, so
                // most candidates of a busy window fail this cheap test.
                if (near.t - t).abs() > self.delta(near.device) {
                    return None;
                }
                self.covering_region(near.device, t)
                    .map(|region| (near.device, region))
            })
            .collect()
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

    fn devices_near(
        &self,
        t: Timestamp,
        slack: Timestamp,
        exclude: Option<DeviceId>,
    ) -> Vec<NearbyDevice> {
        crate::EventStore::devices_near(self, t, slack, exclude)
    }

    fn devices_online_at(
        &self,
        t: Timestamp,
        exclude: Option<DeviceId>,
    ) -> Vec<(DeviceId, RegionId)> {
        // One-scan fast path over the global timeline window; identical to
        // the provided reference definition (property-tested).
        crate::EventStore::devices_online_at(self, t, exclude)
    }
}
