//! The in-memory event store.

use crate::compaction::CompactionReport;
use crate::csv::{format_csv, is_csv_header, parse_csv_line, CsvRow, RawEvent};
use crate::error::{IngestError, StoreError};
use crate::read::{EventRead, NearbyDevice};
use crate::snapshot::{Fnv1aBuild, SnapshotParts};
use crate::stats::DatasetStatistics;
use crate::timeline::Timeline;
use locater_events::validity::{estimate_delta_events, DEFAULT_DELTA};
use locater_events::{
    Device, DeviceId, EventId, EventSeq, Gap, Interval, MacAddress, StoredEvent, Timestamp,
    EVENT_ID_LIMIT, EVENT_TIME_LIMIT,
};
use locater_space::{AccessPointId, RegionId, Space};
use std::collections::HashMap;
use std::sync::Arc;

/// The per-line parser the CSV loaders share (skips a first-line header).
fn csv_line_parser(line: &str, line_no: usize) -> Result<Option<CsvRow<'_>>, IngestError> {
    if line_no == 1 && is_csv_header(line) {
        return Ok(None);
    }
    parse_csv_line(line, line_no)
}

/// Refuses a timestamp a stored event cannot hold: before the deployment
/// epoch, or 2³² s or more after it.
fn check_timestamp(t: Timestamp) -> Result<(), IngestError> {
    if (0..EVENT_TIME_LIMIT).contains(&t) {
        Ok(())
    } else {
        Err(IngestError::InvalidTimestamp(t))
    }
}

/// The largest δ of a device table, or [`DEFAULT_DELTA`] for an empty one.
fn max_delta_of(devices: &[Device]) -> Timestamp {
    devices
        .iter()
        .map(|device| device.delta)
        .max()
        .unwrap_or(DEFAULT_DELTA)
}

/// In-memory store of WiFi connectivity events for one building, organised as
/// one **time-sorted timeline per device**.
///
/// See the [crate-level documentation](crate) for the design rationale. The store owns
/// the [`Space`] (shared behind an `Arc` so cleaning engines can hold cheap clones) and
/// keeps, per device, an [`EventSeq`] — one array sorted by `(t, id)` —
/// alongside a global [`Timeline`] index. Window queries
/// ([`EventStore::events_of_in`], [`EventStore::gaps_of_in`]) binary-search the
/// device's array for the window's ends, and the whole store round-trips
/// through a compact binary snapshot ([`EventStore::save_snapshot`] /
/// [`EventStore::load_snapshot`]) so a service restart does not replay the CSV log.
#[derive(Debug, Clone, PartialEq)]
pub struct EventStore {
    space: Arc<Space>,
    devices: Vec<Device>,
    /// Every key is a parse's output, so a raw id equal to one (no ASCII
    /// uppercase, no surrounding whitespace) is that key's own parse:
    /// lookups probe with the raw id first and parse only on a miss.
    mac_index: HashMap<MacAddress, DeviceId>,
    timelines: Vec<EventSeq>,
    timeline: Timeline,
    /// The largest δ of the device table ([`DEFAULT_DELTA`] while it is
    /// empty), kept current by every change of a δ.
    max_delta: Timestamp,
    next_event_id: u64,
}

impl EventStore {
    /// Creates an empty store over `space`.
    pub fn new(space: Space) -> Self {
        Self {
            timeline: Timeline::new(space.num_access_points()),
            space: Arc::new(space),
            devices: Vec::new(),
            mac_index: HashMap::new(),
            timelines: Vec::new(),
            max_delta: DEFAULT_DELTA,
            next_event_id: 0,
        }
    }

    /// The space metadata this store is attached to.
    pub fn space(&self) -> &Arc<Space> {
        &self.space
    }

    // ------------------------------------------------------------------
    // Devices
    // ------------------------------------------------------------------

    /// Number of distinct devices observed.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// All devices, indexable by [`DeviceId::index`].
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Returns the device with the given id.
    ///
    /// # Panics
    /// Panics if the id does not belong to this store.
    pub fn device(&self, id: DeviceId) -> &Device {
        &self.devices[id.index()]
    }

    /// Looks up a device id by MAC address / log identifier.
    pub fn device_id(&self, mac: &str) -> Option<DeviceId> {
        self.mac_index.get(mac).copied().or_else(|| {
            let mac = MacAddress::parse(mac).ok()?;
            self.mac_index.get(&mac).copied()
        })
    }

    /// Interns a device, creating it with the default validity period if unseen.
    pub fn intern_device(&mut self, mac: &str) -> Result<DeviceId, IngestError> {
        if let Some(&id) = self.mac_index.get(mac) {
            return Ok(id);
        }
        let mac = MacAddress::parse(mac)?;
        if let Some(&id) = self.mac_index.get(&mac) {
            return Ok(id);
        }
        let id = DeviceId::new(self.devices.len() as u32);
        self.devices
            .push(Device::new(id, mac.clone(), DEFAULT_DELTA));
        self.timelines.push(EventSeq::default());
        self.mac_index.insert(mac, id);
        self.max_delta = self.max_delta.max(DEFAULT_DELTA);
        Ok(id)
    }

    /// The validity period δ of a device, in seconds.
    pub fn delta(&self, device: DeviceId) -> Timestamp {
        self.devices[device.index()].delta
    }

    /// Overrides the validity period of a device, clamped into `[1, 2³²)`
    /// seconds: the range a snapshot accepts.
    pub fn set_delta(&mut self, device: DeviceId, delta: Timestamp) {
        let delta = delta.clamp(1, EVENT_TIME_LIMIT - 1);
        let old = std::mem::replace(&mut self.devices[device.index()].delta, delta);
        if delta >= self.max_delta {
            self.max_delta = delta;
        } else if old == self.max_delta {
            // The device may have held the only largest δ.
            self.max_delta = max_delta_of(&self.devices);
        }
    }

    /// The largest validity period across all devices (used as the slack when scanning
    /// the global timeline for nearby devices), or [`DEFAULT_DELTA`] for a
    /// store without devices.
    pub fn max_delta(&self) -> Timestamp {
        self.max_delta
    }

    /// Re-estimates every device's validity period from its own history
    /// (paper Appendix 9.1). Devices with too little history keep the default.
    pub fn estimate_deltas(&mut self) {
        for device in &mut self.devices {
            let timeline = &self.timelines[device.id.index()];
            device.delta = estimate_delta_events(timeline.iter());
        }
        self.max_delta = max_delta_of(&self.devices);
    }

    // ------------------------------------------------------------------
    // Ingestion
    // ------------------------------------------------------------------

    /// Validates a raw event without ingesting it, with exactly the checks and
    /// error order of [`EventStore::ingest_raw`] (access point, then
    /// timestamp: seconds in `[0, 2³²)` after the deployment epoch). The
    /// sharded service calls this before drawing a global event id, so a
    /// rejected event never consumes an id — keeping this the single source
    /// of truth is what guarantees sharded and single-shard stores assign
    /// identical id sequences.
    pub fn validate_raw(&self, t: Timestamp, ap_name: &str) -> Result<AccessPointId, IngestError> {
        let ap = self
            .space
            .ap_id(ap_name)
            .ok_or_else(|| IngestError::UnknownAccessPoint(ap_name.to_string()))?;
        check_timestamp(t)?;
        Ok(ap)
    }

    /// Ingests one raw event given the access point *name* (as found in logs).
    pub fn ingest_raw(
        &mut self,
        mac: &str,
        t: Timestamp,
        ap_name: &str,
    ) -> Result<EventId, IngestError> {
        let ap = self.validate_raw(t, ap_name)?;
        self.ingest(mac, t, ap)
    }

    /// Ingests one event with an already-resolved access point id. Appends to the
    /// device's timeline (O(1) for in-timestamp-order arrivals).
    ///
    /// Refuses a timestamp outside `[0, 2³²)`, an access point the space does
    /// not have, and — once [`EVENT_ID_LIMIT`] ids are spent — any further
    /// event, in that order and before the device is interned.
    pub fn ingest(
        &mut self,
        mac: &str,
        t: Timestamp,
        ap: AccessPointId,
    ) -> Result<EventId, IngestError> {
        check_timestamp(t)?;
        if ap.index() >= self.space.num_access_points() {
            return Err(IngestError::UnknownAccessPoint(ap.to_string()));
        }
        if self.next_event_id >= EVENT_ID_LIMIT {
            return Err(IngestError::InvalidEventId(self.next_event_id));
        }
        let device = self.intern_device(mac)?;
        let id = EventId::new(self.next_event_id);
        self.next_event_id += 1;
        let event = StoredEvent::new(id, t, ap);
        self.timelines[device.index()].push(event);
        self.timeline.record(device, &event);
        Ok(id)
    }

    /// The id the next ingested event will receive.
    pub fn next_event_id(&self) -> u64 {
        self.next_event_id
    }

    /// Aligns the event-id counter. Partitioning plumbing: the sharded service
    /// keeps event ids globally sequential across per-shard partitions by
    /// setting the owning shard's counter from one shared sequence before each
    /// append (see [`EventStore::split`]), so a rejoined store is bit-identical
    /// to what one unpartitioned store would have produced. A pinned id at or
    /// above [`EVENT_ID_LIMIT`] is refused by the next ingest
    /// ([`IngestError::InvalidEventId`]), which is how WAL replay reports it.
    pub fn set_next_event_id(&mut self, next: u64) {
        self.next_event_id = next;
    }

    /// Ingests a batch of raw events, stopping at the first error: the
    /// store, the error and the events kept before it are those of one
    /// [`EventStore::ingest_raw`] per event. A bulk load in two passes: each
    /// distinct MAC and access point spelling is resolved once, and each
    /// touched array grows once, to its exact length when it was empty.
    pub fn ingest_batch<'a>(
        &mut self,
        events: impl IntoIterator<Item = &'a RawEvent>,
    ) -> Result<usize, IngestError> {
        let mut events = events.into_iter();
        let mut load = BulkLoad::with_capacity(events.size_hint().0);
        let resolved =
            events.try_for_each(|event| load.resolve(self, &event.mac, event.t, &event.ap));
        let count = load.commit(self);
        resolved.map(|()| count)
    }

    // ------------------------------------------------------------------
    // Event access
    // ------------------------------------------------------------------

    /// Total number of events ingested.
    pub fn num_events(&self) -> usize {
        self.timeline.len()
    }

    /// The time-sorted event timeline of a device (`E(d_i)`).
    pub fn timeline_of(&self, device: DeviceId) -> &EventSeq {
        &self.timelines[device.index()]
    }

    /// Events of a device with timestamps in `[range.start, range.end)`, in
    /// time order (a sub-slice found by two binary searches).
    pub fn events_of_in(
        &self,
        device: DeviceId,
        range: Interval,
    ) -> std::slice::Iter<'_, StoredEvent> {
        EventRead::events_of_in(self, device, range)
    }

    /// The event (and its index in the device timeline) whose validity interval
    /// covers `t`, if any.
    pub fn covering_event(&self, device: DeviceId, t: Timestamp) -> Option<(usize, StoredEvent)> {
        EventRead::covering_event(self, device, t)
    }

    /// The region a covering event (if any) places the device in at time `t`.
    pub fn covering_region(&self, device: DeviceId, t: Timestamp) -> Option<RegionId> {
        EventRead::covering_region(self, device, t)
    }

    /// All gaps of a device (`GAP(d_i)`).
    pub fn gaps_of(&self, device: DeviceId) -> Vec<Gap> {
        EventRead::gaps_of(self, device)
    }

    /// Gaps of a device whose interval intersects `window` — computed from the
    /// events around the window only, never from the full history.
    pub fn gaps_of_in(&self, device: DeviceId, window: Interval) -> Vec<Gap> {
        EventRead::gaps_of_in(self, device, window)
    }

    /// The gap containing `t` for this device, if `t` falls in one.
    pub fn gap_at(&self, device: DeviceId, t: Timestamp) -> Option<Gap> {
        EventRead::gap_at(self, device, t)
    }

    /// Devices with at least one event in `[t − slack, t + slack]`, excluding
    /// `exclude`, each with its closest event.
    pub fn devices_near(
        &self,
        t: Timestamp,
        slack: Timestamp,
        exclude: Option<DeviceId>,
    ) -> Vec<NearbyDevice> {
        EventRead::devices_near(self, t, slack, exclude)
    }

    /// Overall time span `[first event, last event]` of the dataset, if non-empty.
    pub fn time_span(&self) -> Option<Interval> {
        let (first, last) = self.timeline.span()?;
        Some(Interval::new(first, last + 1))
    }

    /// The global timeline index.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    // ------------------------------------------------------------------
    // Compaction / tiered ageing (policy lives in `crate::compaction`)
    // ------------------------------------------------------------------

    /// Compacts the store against a retention horizon `cut`: evicts every
    /// event with `t < cut` from the per-device timelines and the global
    /// timeline index in one coherent mutation, and hands the evicted events
    /// back in the returned [`CompactionReport`] — nothing else is built from
    /// them here.
    ///
    /// Both structures trim the same `t < cut` prefix, so they can
    /// never disagree. The event-id counter, the device table and every
    /// retained event are untouched — answers whose consulted window lies at
    /// or above `cut` are byte-identical with compaction on or off.
    pub fn compact(&mut self, cut: Timestamp) -> CompactionReport {
        let mut evicted = Vec::new();
        let mut evicted_events = 0usize;
        for (idx, timeline) in self.timelines.iter_mut().enumerate() {
            let events = timeline.trim_before(cut);
            if !events.is_empty() {
                evicted_events += events.len();
                evicted.push((DeviceId::new(idx as u32), events));
            }
        }
        if evicted_events > 0 {
            let trimmed_entries = self.timeline.trim_before(cut);
            debug_assert_eq!(trimmed_entries, evicted_events);
        }
        CompactionReport {
            cut,
            evicted_events,
            evicted,
        }
    }

    /// Approximate resident heap bytes of the store (allocated capacity of
    /// the per-device timelines and the global timeline index — the
    /// structures that grow with history).
    /// Compaction releases most of the freed capacity, so this gauge falls
    /// when events are evicted; it is what the soak harness and the `stats`
    /// surfaces report.
    pub fn approx_resident_bytes(&self) -> usize {
        self.timelines
            .iter()
            .map(|timeline| timeline.approx_bytes())
            .sum::<usize>()
            + self.timeline.approx_bytes()
    }

    // ------------------------------------------------------------------
    // Statistics / CSV
    // ------------------------------------------------------------------

    /// Computes dataset statistics (event counts, devices, span, events per day).
    pub fn stats(&self) -> DatasetStatistics {
        DatasetStatistics::compute(self)
    }

    /// Serializes all events as CSV (`mac,timestamp,ap` with a header line).
    pub fn to_csv(&self) -> String {
        let mut rows: Vec<RawEvent> = Vec::with_capacity(self.num_events());
        for device in &self.devices {
            for event in self.timelines[device.id.index()].iter() {
                rows.push(RawEvent {
                    mac: device.mac.as_str().to_string(),
                    t: event.t(),
                    ap: self.space.access_point(event.ap()).name.clone(),
                });
            }
        }
        rows.sort_by_key(|r| r.t);
        format_csv(&rows)
    }

    /// Builds a store by parsing CSV produced by [`EventStore::to_csv`] (or any
    /// `mac,timestamp,ap` file with a header). Streams line by line into the
    /// bulk load [`EventStore::ingest_batch`] runs, fields borrowed from the
    /// input; semantic ingestion errors (unknown AP, bad MAC) are annotated
    /// with the offending line number. The event arrays end at exact
    /// capacity, as a snapshot load leaves them, so both loaders report the
    /// same resident bytes.
    pub fn from_csv(space: Space, csv: &str) -> Result<Self, IngestError> {
        let mut store = Self::new(space);
        let mut load = BulkLoad::with_capacity(0);
        for (idx, line) in csv.lines().enumerate() {
            let line_no = idx + 1;
            if let Some(row) = csv_line_parser(line, line_no)? {
                load.resolve(&mut store, row.mac, row.t, row.ap)
                    .map_err(|err| err.at_line(line_no))?;
            }
        }
        load.commit(&mut store);
        Ok(store)
    }

    // ------------------------------------------------------------------
    // Snapshot plumbing (the format lives in `crate::snapshot`)
    // ------------------------------------------------------------------

    pub(crate) fn snapshot_parts(&self) -> SnapshotParts<'_> {
        SnapshotParts {
            space: &self.space,
            next_event_id: self.next_event_id,
            devices: &self.devices,
        }
    }

    /// Reassembles a store from decoded snapshot parts: rebuilds the MAC index,
    /// the max δ and the global index (each access point's list in the
    /// `(t, device)` order incremental ingestion keeps it in) at exact
    /// capacity. Snapshot load, [`EventStore::split`],
    /// [`EventStore::rejoin`] and recovery all build their stores here.
    pub(crate) fn from_snapshot_parts(
        space: Space,
        next_event_id: u64,
        devices: Vec<Device>,
        timelines: Vec<EventSeq>,
    ) -> Result<Self, StoreError> {
        if devices.len() != timelines.len() {
            return Err(StoreError::Corrupt(format!(
                "{} devices but {} timelines",
                devices.len(),
                timelines.len()
            )));
        }
        let mut mac_index = HashMap::with_capacity(devices.len());
        for (idx, device) in devices.iter().enumerate() {
            if device.id.index() != idx {
                return Err(StoreError::Corrupt(format!(
                    "device table out of order at index {idx}"
                )));
            }
            if mac_index.insert(device.mac.clone(), device.id).is_some() {
                return Err(StoreError::Corrupt(format!(
                    "duplicate device mac {}",
                    device.mac
                )));
            }
        }
        for event in timelines.iter().flat_map(EventSeq::iter) {
            if event.ap().index() >= space.num_access_points() {
                return Err(StoreError::Corrupt(format!(
                    "event {} references unknown access point {}",
                    event.id(),
                    event.ap()
                )));
            }
        }
        let timeline = Timeline::from_device_timelines(space.num_access_points(), &timelines);
        let max_delta = max_delta_of(&devices);
        Ok(Self {
            space: Arc::new(space),
            devices,
            mac_index,
            timelines,
            timeline,
            max_delta,
            next_event_id,
        })
    }
}

/// A bulk load of raw events into one store, in two passes.
///
/// Pass 1 ([`BulkLoad::resolve`]) checks each event in input order exactly as
/// [`EventStore::ingest_raw`] does — access point, timestamp,
/// [`EVENT_ID_LIMIT`], MAC — and interns its device, so the device table and
/// the first error match the per-event path. Each raw MAC and access point
/// spelling is resolved once per load: later sightings are one FNV-1a probe
/// of a memo keyed by the borrowed input string. Pass 2
/// ([`BulkLoad::commit`]) reserves each touched timeline and posting list
/// for its count and appends the resolved events.
struct BulkLoad<'a> {
    macs: HashMap<&'a str, DeviceId, Fnv1aBuild>,
    aps: HashMap<&'a str, AccessPointId, Fnv1aBuild>,
    events: Vec<(DeviceId, StoredEvent)>,
}

impl<'a> BulkLoad<'a> {
    fn with_capacity(events: usize) -> Self {
        Self {
            macs: HashMap::default(),
            aps: HashMap::default(),
            events: Vec::with_capacity(events),
        }
    }

    /// Pass 1 for one event. An event that fails changes neither the load
    /// nor the store.
    fn resolve(
        &mut self,
        store: &mut EventStore,
        mac: &'a str,
        t: Timestamp,
        ap_name: &'a str,
    ) -> Result<(), IngestError> {
        let ap = match self.aps.get(ap_name) {
            Some(&ap) => ap,
            None => {
                let ap = store
                    .space
                    .ap_id(ap_name)
                    .ok_or_else(|| IngestError::UnknownAccessPoint(ap_name.to_string()))?;
                self.aps.insert(ap_name, ap);
                ap
            }
        };
        check_timestamp(t)?;
        // Only a counter below the limit lets an event through, so this
        // cannot overflow.
        let id = store.next_event_id + self.events.len() as u64;
        if id >= EVENT_ID_LIMIT {
            return Err(IngestError::InvalidEventId(id));
        }
        let device = match self.macs.get(mac) {
            Some(&device) => device,
            None => {
                let device = store.intern_device(mac)?;
                self.macs.insert(mac, device);
                device
            }
        };
        self.events
            .push((device, StoredEvent::new(EventId::new(id), t, ap)));
        Ok(())
    }

    /// Pass 2: appends the resolved events and returns how many there were.
    fn commit(self, store: &mut EventStore) -> usize {
        let mut per_device = vec![0usize; store.timelines.len()];
        let mut per_ap = vec![0usize; store.space.num_access_points()];
        for (device, event) in &self.events {
            per_device[device.index()] += 1;
            per_ap[event.ap().index()] += 1;
        }
        for (timeline, &count) in store.timelines.iter_mut().zip(&per_device) {
            timeline.reserve(count);
        }
        store.timeline.reserve(&per_ap);
        for (device, event) in &self.events {
            store.timelines[device.index()].push(*event);
            store.timeline.record(*device, event);
        }
        store.next_event_id += self.events.len() as u64;
        self.events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locater_space::SpaceBuilder;

    fn space() -> Space {
        SpaceBuilder::new("demo")
            .add_access_point("wap1", &["r1", "r2"])
            .add_access_point("wap2", &["r2", "r3"])
            .add_access_point("wap3", &["r3", "r4"])
            .build()
            .unwrap()
    }

    fn store_with_events() -> EventStore {
        let mut store = EventStore::new(space());
        store.ingest_raw("d1", 1_000, "wap1").unwrap();
        store.ingest_raw("d1", 1_200, "wap1").unwrap();
        store.ingest_raw("d1", 10_000, "wap2").unwrap();
        store.ingest_raw("d2", 1_100, "wap2").unwrap();
        store.ingest_raw("d3", 9_800, "wap3").unwrap();
        store
    }

    #[test]
    fn ingestion_interns_devices_and_counts_events() {
        let store = store_with_events();
        assert_eq!(store.num_devices(), 3);
        assert_eq!(store.num_events(), 5);
        let d1 = store.device_id("d1").unwrap();
        assert_eq!(store.timeline_of(d1).len(), 3);
        assert_eq!(store.device(d1).mac.as_str(), "d1");
        assert!(store.device_id("nope").is_none());
        assert_eq!(store.devices().len(), 3);
    }

    #[test]
    fn unknown_access_point_is_rejected() {
        let mut store = EventStore::new(space());
        let err = store.ingest_raw("d1", 100, "wap9").unwrap_err();
        assert_eq!(err, IngestError::UnknownAccessPoint("wap9".into()));
        let err = store.ingest("d1", 100, AccessPointId::new(99)).unwrap_err();
        assert!(matches!(err, IngestError::UnknownAccessPoint(_)));
    }

    #[test]
    fn negative_timestamp_is_rejected() {
        let mut store = EventStore::new(space());
        let err = store.ingest_raw("d1", -5, "wap1").unwrap_err();
        assert_eq!(err, IngestError::InvalidTimestamp(-5));
    }

    #[test]
    fn out_of_range_timestamps_change_nothing() {
        // Seconds before the epoch, or 2³² and more after it, do not fit a
        // stored event: refused before a device is interned or an id drawn.
        let mut store = store_with_events();
        let before = store.clone();
        for t in [
            -1,
            EVENT_TIME_LIMIT,
            EVENT_TIME_LIMIT + 1,
            i64::MAX,
            i64::MIN,
        ] {
            let err = IngestError::InvalidTimestamp(t);
            assert_eq!(store.validate_raw(t, "wap1").unwrap_err(), err);
            assert_eq!(store.ingest_raw("new", t, "wap1").unwrap_err(), err);
            assert_eq!(
                store.ingest("d1", t, AccessPointId::new(0)).unwrap_err(),
                err
            );
            let batch = [RawEvent {
                mac: "new".into(),
                t,
                ap: "wap1".into(),
            }];
            assert_eq!(store.ingest_batch(&batch).unwrap_err(), err);
            let csv = format!("mac,timestamp,ap\nd1,100,wap1\nnew,{t},wap1\n");
            let csv_err = EventStore::from_csv(space(), &csv).unwrap_err();
            assert_eq!(csv_err, err.clone().at_line(3));
        }
        assert_eq!(store, before);
        // The last representable second is an ordinary event, found by a
        // neighbour scan around it.
        let last = EVENT_TIME_LIMIT - 1;
        let id = store.ingest_raw("late", last, "wap2").unwrap();
        assert_eq!(id, EventId::new(before.next_event_id()));
        let late = store.device_id("late").unwrap();
        let near = store.devices_near(last, 60, None);
        assert_eq!(near.len(), 1);
        assert_eq!((near[0].device, near[0].t), (late, last));
        assert_eq!(store.time_span().unwrap().end, EVENT_TIME_LIMIT);
    }

    #[test]
    fn event_ids_stop_at_the_limit() {
        let mut store = store_with_events();
        store.set_next_event_id(EVENT_ID_LIMIT - 1);
        assert_eq!(
            store.ingest_raw("d1", 500, "wap1").unwrap(),
            EventId::new(EVENT_ID_LIMIT - 1)
        );
        // Every 48-bit id is spent: the next ingest is refused and interns
        // nothing, as is one pinned past the limit (how WAL replay meets it).
        for pinned in [EVENT_ID_LIMIT, u64::MAX] {
            store.set_next_event_id(pinned);
            assert_eq!(
                store.ingest_raw("newcomer", 600, "wap1").unwrap_err(),
                IngestError::InvalidEventId(pinned)
            );
            assert_eq!(store.device_id("newcomer"), None);
        }
        let d1 = store.device_id("d1").unwrap();
        let last = store.timeline_of(d1).iter().map(|e| e.id()).max();
        assert_eq!(last, Some(EventId::new(EVENT_ID_LIMIT - 1)));
        // It survives a snapshot round trip at full width.
        store.set_next_event_id(EVENT_ID_LIMIT);
        let back = EventStore::from_snapshot_bytes(&store.to_snapshot_bytes().unwrap()).unwrap();
        assert_eq!(back, store);
    }

    #[test]
    fn invalid_mac_is_rejected() {
        let mut store = EventStore::new(space());
        assert!(store.ingest_raw("", 100, "wap1").is_err());
    }

    #[test]
    fn covering_event_and_gap_lookup() {
        let store = store_with_events();
        let d1 = store.device_id("d1").unwrap();
        // Default delta is 600: 1_000 and 1_200 merge, gap until 10_000.
        assert!(store.covering_event(d1, 1_100).is_some());
        assert_eq!(
            store.covering_region(d1, 1_100),
            Some(AccessPointId::new(0).region())
        );
        let gap = store.gap_at(d1, 5_000).unwrap();
        assert_eq!(gap.prev_t, 1_200);
        assert_eq!(gap.next_t, 10_000);
        assert!(store.gap_at(d1, 1_100).is_none());
        assert_eq!(store.gaps_of(d1).len(), 1);
        // Window queries.
        assert_eq!(store.gaps_of_in(d1, Interval::new(0, 500)).len(), 0);
        assert_eq!(store.gaps_of_in(d1, Interval::new(2_000, 3_000)).len(), 1);
        assert_eq!(
            store.events_of_in(d1, Interval::new(1_000, 1_201)).count(),
            2
        );
    }

    #[test]
    fn devices_online_at_uses_validity() {
        let store = store_with_events();
        let d1 = store.device_id("d1").unwrap();
        let d2 = store.device_id("d2").unwrap();
        let d3 = store.device_id("d3").unwrap();
        let online = store.devices_online_at(1_150, None);
        let ids: Vec<DeviceId> = online.iter().map(|(d, _)| *d).collect();
        assert!(ids.contains(&d1));
        assert!(ids.contains(&d2));
        assert!(!ids.contains(&d3));
        // Excluding the queried device.
        let online = store.devices_online_at(1_150, Some(d1));
        assert!(online.iter().all(|(d, _)| *d != d1));
        // d3 is online later.
        let online = store.devices_online_at(9_900, None);
        assert!(online.iter().any(|(d, _)| *d == d3));
    }

    #[test]
    fn set_delta_changes_gap_detection() {
        let mut store = store_with_events();
        let d1 = store.device_id("d1").unwrap();
        assert_eq!(store.delta(d1), 600);
        store.set_delta(d1, 5_000);
        assert!(store.gap_at(d1, 5_000).is_none());
        assert_eq!(store.max_delta(), 5_000);
        store.set_delta(d1, 0); // clamped to 1
        assert_eq!(store.delta(d1), 1);
    }

    #[test]
    fn estimate_deltas_uses_history() {
        let mut store = EventStore::new(space());
        for i in 0..30 {
            store.ingest_raw("regular", i * 300, "wap1").unwrap();
        }
        store.ingest_raw("sparse", 0, "wap1").unwrap();
        store.estimate_deltas();
        let regular = store.device_id("regular").unwrap();
        let sparse = store.device_id("sparse").unwrap();
        assert_eq!(store.delta(regular), 300);
        assert_eq!(store.delta(sparse), DEFAULT_DELTA);
    }

    #[test]
    fn max_delta_tracks_every_change_of_a_delta() {
        let naive = |store: &EventStore| {
            store
                .devices()
                .iter()
                .map(|device| device.delta)
                .max()
                .unwrap_or(DEFAULT_DELTA)
        };
        let check = |store: &EventStore, after: &str| {
            assert_eq!(store.max_delta(), naive(store), "after {after}");
        };
        let mut store = EventStore::new(space());
        check(&store, "new");
        let a = store.intern_device("a").unwrap();
        check(&store, "interning the first device");
        store.set_delta(a, 50);
        check(&store, "lowering the only δ");
        let b = store.intern_device("b").unwrap();
        check(&store, "interning a device at the default δ");
        store.set_delta(b, 10_000);
        check(&store, "raising a δ");
        store.set_delta(b, 5);
        check(&store, "lowering the largest δ");
        store.set_delta(a, i64::MAX);
        check(&store, "raising a δ to the clamp");
        store.set_delta(a, i64::MIN);
        check(&store, "lowering it to the clamp");
        for i in 0..30 {
            store.ingest_raw("regular", i * 300, "wap1").unwrap();
        }
        store.ingest_raw("sparse", 0, "wap1").unwrap();
        check(&store, "interning on ingest");
        store.estimate_deltas();
        check(&store, "estimate_deltas");
        let regular = store.device_id("regular").unwrap();
        store.set_delta(regular, 7_200);
        let loaded = EventStore::from_snapshot_bytes(&store.to_snapshot_bytes().unwrap()).unwrap();
        check(&loaded, "a snapshot load");
        assert_eq!(loaded.max_delta(), 7_200);
        let shards = store.split(3);
        for shard in &shards {
            check(shard, "split");
        }
        check(&EventStore::rejoin(&shards).unwrap(), "rejoin");
    }

    #[test]
    fn time_span_covers_all_events() {
        let store = store_with_events();
        let span = store.time_span().unwrap();
        assert_eq!(span.start, 1_000);
        assert_eq!(span.end, 10_001);
        assert!(EventStore::new(space()).time_span().is_none());
    }

    #[test]
    fn csv_roundtrip_preserves_events() {
        let store = store_with_events();
        let csv = store.to_csv();
        let back = EventStore::from_csv(space(), &csv).unwrap();
        assert_eq!(back.num_events(), store.num_events());
        assert_eq!(back.num_devices(), store.num_devices());
        let d1 = back.device_id("d1").unwrap();
        assert_eq!(back.timeline_of(d1).len(), 3);
    }

    #[test]
    fn out_of_order_ingestion_is_supported() {
        let mut store = EventStore::new(space());
        store.ingest_raw("d1", 5_000, "wap1").unwrap();
        store.ingest_raw("d1", 1_000, "wap2").unwrap();
        store.ingest_raw("d1", 3_000, "wap3").unwrap();
        let d1 = store.device_id("d1").unwrap();
        let ts: Vec<Timestamp> = store.timeline_of(d1).iter().map(|e| e.t()).collect();
        assert_eq!(ts, vec![1_000, 3_000, 5_000]);
    }

    #[test]
    fn events_land_in_time_bucketed_segments() {
        let week = locater_events::SECONDS_PER_WEEK;
        let mut store = EventStore::new(space());
        store.ingest_raw("d1", 100, "wap1").unwrap();
        store.ingest_raw("d1", 200, "wap1").unwrap();
        store.ingest_raw("d1", week + 50, "wap2").unwrap();
        store.ingest_raw("d1", 3 * week + 10, "wap2").unwrap();
        let d1 = store.device_id("d1").unwrap();
        assert_eq!(store.timeline_of(d1).len(), 4);
        let window = Interval::new(week, 2 * week);
        let in_window: Vec<Timestamp> = store.events_of_in(d1, window).map(|e| e.t()).collect();
        assert_eq!(in_window, vec![week + 50]);
    }

    #[test]
    fn csv_ingest_errors_carry_line_numbers() {
        // Line 3 references an unknown access point: a semantic (not parse)
        // error, which the streaming loader must still locate.
        let csv = "mac,timestamp,ap\nd1,100,wap1\nd1,200,wap9\n";
        let err = EventStore::from_csv(space(), csv).unwrap_err();
        assert_eq!(err.line(), Some(3));
        assert_eq!(
            err.to_string(),
            "line 3: unknown access point in event: wap9"
        );
        // Parse errors keep their own line/column context.
        let err = EventStore::from_csv(space(), "d1,abc,wap1\n").unwrap_err();
        assert!(matches!(
            err,
            IngestError::Malformed {
                line: 1,
                column: 4,
                ..
            }
        ));
    }

    #[test]
    fn memory_layout_is_pinned() {
        use std::mem::size_of;
        // A 12-byte stored event and an 8-byte posting (pinned in the
        // timeline's tests).
        const POSTING: usize = 8;
        assert_eq!(size_of::<StoredEvent>(), 12);
        let exact_bytes = |store: &EventStore| store.num_events() * POSTING;

        // Per-event ingest grows each list by doubling (2 entries in room
        // for 4); every builder behind snapshot load, split and rejoin sizes
        // each list exactly.
        let store = store_with_events();
        assert!(store.timeline().approx_bytes() > exact_bytes(&store));
        let loaded = EventStore::from_snapshot_bytes(&store.to_snapshot_bytes().unwrap()).unwrap();
        assert_eq!(loaded.timeline().approx_bytes(), exact_bytes(&loaded));
        let shards = store.split(2);
        for shard in &shards {
            assert_eq!(shard.timeline().approx_bytes(), exact_bytes(shard));
        }
        let rejoined = EventStore::rejoin(&shards).unwrap();
        assert_eq!(rejoined.timeline().approx_bytes(), exact_bytes(&rejoined));
        // The CSV loader counts before it appends and sizes both copies
        // exactly, so it reports the snapshot loader's resident bytes for
        // the same events.
        let from_csv = EventStore::from_csv(space(), &store.to_csv()).unwrap();
        assert_eq!(
            from_csv.approx_resident_bytes(),
            loaded.approx_resident_bytes()
        );
        assert_eq!(
            from_csv.approx_resident_bytes(),
            store.num_events() * size_of::<StoredEvent>() + exact_bytes(&store)
        );

        // One device, three events on two APs, loaded from a snapshot. The
        // loader sizes both copies of each event exactly: the 12-byte stored
        // event and the 8-byte posting, 20 B/event.
        let mut fixed = EventStore::new(space());
        fixed.ingest_raw("d1", 100, "wap1").unwrap();
        fixed.ingest_raw("d1", 200, "wap1").unwrap();
        fixed.ingest_raw("d1", 300, "wap2").unwrap();
        let fixed = EventStore::from_snapshot_bytes(&fixed.to_snapshot_bytes().unwrap()).unwrap();
        let device_timeline = 3 * size_of::<StoredEvent>();
        let global_timeline = 3 * POSTING;
        assert_eq!(
            (device_timeline, global_timeline),
            (36, 24),
            "part sizes on a 64-bit target"
        );
        assert_eq!(
            fixed.approx_resident_bytes(),
            device_timeline + global_timeline
        );
    }

    #[test]
    fn index_stats_count_every_event() {
        let mut store = store_with_events();
        // Late splices: before earlier events and at an existing timestamp.
        store.ingest_raw("d1", 500, "wap3").unwrap();
        store.ingest_raw("d2", 1_100, "wap1").unwrap();
        let timeline_events =
            |store: &EventStore| -> usize { store.timelines.iter().map(|tl| tl.len()).sum() };
        assert_eq!(timeline_events(&store), store.num_events());
        let report = store.compact(2_000);
        assert_eq!(report.evicted_events, 5);
        assert_eq!(timeline_events(&store), store.num_events());
        assert_eq!(store.num_events(), 2);
    }

    #[test]
    fn compact_cuts_at_the_exact_horizon() {
        let events = [
            ("d1", 10, "wap1"),
            ("d2", 10, "wap2"),
            ("d1", 150, "wap2"),
            ("d2", 150, "wap2"),
            ("d1", 420, "wap3"),
            ("d2", 420, "wap1"),
            ("d1", 999, "wap1"),
            ("d2", 999, "wap3"),
            // Late splice below the horizon.
            ("d1", 390, "wap3"),
        ];
        let build = |keep: &dyn Fn(Timestamp) -> bool| {
            let mut store = EventStore::new(space());
            for &(mac, t, ap) in events.iter().filter(|(_, t, _)| keep(*t)) {
                store.ingest_raw(mac, t, ap).unwrap();
            }
            store
        };
        let mut store = build(&|_| true);
        let report = store.compact(400);
        assert_eq!(report.cut, 400);
        // Exactly the t < 400 events leave, under their original ids.
        let below: Vec<u64> = events
            .iter()
            .enumerate()
            .filter(|(_, (_, t, _))| *t < 400)
            .map(|(id, _)| id as u64)
            .collect();
        let mut evicted: Vec<u64> = report
            .evicted
            .iter()
            .flat_map(|(_, events)| events.iter().map(|e| e.id().0))
            .collect();
        evicted.sort_unstable();
        assert_eq!(evicted, below);
        assert_eq!(report.evicted_events, below.len());
        assert_eq!(store.num_events(), events.len() - below.len());
        let aps = || (0..3).map(AccessPointId::new);
        assert!(aps().all(|ap| store.timeline().entries(ap).all(|(t, _)| t >= 400)));
        // What is left equals a store built from the t ≥ 400 events alone.
        let retained = build(&|t| t >= 400);
        let t_ap = |store: &EventStore, mac: &str| -> Vec<(Timestamp, AccessPointId)> {
            let device = store.device_id(mac).unwrap();
            store
                .timeline_of(device)
                .iter()
                .map(|e| (e.t(), e.ap()))
                .collect()
        };
        for mac in ["d1", "d2"] {
            assert_eq!(t_ap(&store, mac), t_ap(&retained, mac), "{mac}");
        }
        let entries = |store: &EventStore| -> Vec<(AccessPointId, Timestamp, String)> {
            aps()
                .flat_map(|ap| {
                    store
                        .timeline()
                        .entries(ap)
                        .map(move |(t, device)| (ap, t, store.device(device).mac.to_string()))
                })
                .collect()
        };
        assert_eq!(entries(&store), entries(&retained));
        assert_eq!(store.num_events(), retained.num_events());
        // A second run at the same horizon evicts nothing.
        assert_eq!(store.compact(400).evicted_events, 0);
    }

    #[test]
    fn streaming_loader_counts_events() {
        let csv = "mac,timestamp,ap\nd1,100,wap1\n\nd2,200,wap2\n";
        let store = EventStore::from_csv(space(), csv).unwrap();
        assert_eq!(store.num_events(), 2);
    }
}
