//! Per-device partitioning of the event store.
//!
//! LOCATER's cleaning pipeline is partitionable by device: coarse localization,
//! δ estimation and model state are all per-device, and only the fine-grained
//! affinity step reads across devices. This module provides the storage half of
//! that design:
//!
//! * [`shard_of_device`] — the deterministic `DeviceId → shard` assignment every
//!   layer (store splitting, service routing, cache placement) agrees on;
//! * [`EventStore::split`] / [`EventStore::rejoin`] — partition a store into
//!   per-shard stores and reassemble them **bit-identically**;
//! * [`ShardedRead`] — a read-only view over the per-shard stores implementing
//!   [`EventRead`], so the cleaning engines answer over the partitioned data
//!   exactly as they would over the combined store.
//!
//! ## The partitioning invariant
//!
//! Every shard store carries the **full replicated device table** (same dense
//! ids, same MAC index, same validity periods δ) but only the **event timelines
//! of the devices it owns**; all other timelines are empty. Device-table
//! lookups therefore work against any one shard, while timeline reads route to
//! the owner. Neighbor discovery collects the devices each shard's per-AP
//! index lists saw (see [`crate::Timeline`]), checks each against its owner's
//! timeline and sorts the survivors by their `(t, device)` key, so it reads
//! the shards exactly as it reads one store, with no per-shard merge.

use crate::read::EventRead;
use crate::snapshot::{encode_snapshot, SnapshotParts};
use crate::store::EventStore;
use crate::timeline::devices_seen_in;
use crate::StoreError;
use locater_events::{Device, DeviceId, EventSeq, Interval, StoredEvent, Timestamp};
use locater_space::{AccessPointId, Space};
use std::sync::Arc;

/// The deterministic `DeviceId → shard` assignment shared by every layer of a
/// sharded deployment (store splitting, service routing, affinity-cache
/// placement). A [SplitMix64](https://prng.di.unimi.it/splitmix64.c) finalizer
/// scrambles the dense device index so consecutive ids spread evenly; the
/// result depends only on `(device, shards)`, never on process state.
pub fn shard_of_device(device: DeviceId, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut z = (device.index() as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % shards as u64) as usize
}

impl EventStore {
    /// Partitions the store into `shards` per-shard stores assigned by
    /// [`shard_of_device`].
    ///
    /// Each returned store replicates the space and the **whole device
    /// table** (ids, MACs and estimated
    /// δs included), but keeps only the timelines of its owned devices — event
    /// ids are carried over verbatim, so [`EventStore::rejoin`] reassembles the
    /// original store bit for bit.
    pub fn split(&self, shards: usize) -> Vec<EventStore> {
        let shards = shards.max(1);
        let parts = self.snapshot_parts();
        let devices = parts.devices;
        (0..shards)
            .map(|shard| {
                let masked: Vec<EventSeq> = devices
                    .iter()
                    .map(|device| {
                        if shard_of_device(device.id, shards) == shard {
                            self.timeline_of(device.id).clone()
                        } else {
                            EventSeq::default()
                        }
                    })
                    .collect();
                EventStore::from_snapshot_parts(
                    parts.space.clone(),
                    parts.next_event_id,
                    devices.to_vec(),
                    masked,
                )
                .expect("splitting a valid store yields valid shards")
            })
            .collect()
    }

    /// Reassembles the store a [`EventStore::split`] produced: takes each
    /// device's timeline from its owner shard and rebuilds the combined global
    /// index. For a quiescent split (no ingests in between),
    /// `rejoin(&split(&store, n))` equals `store` bit for bit — snapshot bytes
    /// included.
    ///
    /// Returns [`StoreError::Corrupt`] when the shards disagree on the space
    /// or the device table (i.e. they were not produced by splitting one
    /// store, or were mutated inconsistently).
    pub fn rejoin<'a>(
        shards: impl IntoIterator<Item = &'a EventStore>,
    ) -> Result<EventStore, StoreError> {
        let shards: Vec<&EventStore> = shards.into_iter().collect();
        let first = shards
            .first()
            .ok_or_else(|| StoreError::Corrupt("cannot rejoin zero shards".to_string()))?;
        let parts = first.snapshot_parts();
        let (devices, mut next_event_id) = (parts.devices, parts.next_event_id);
        for (idx, shard) in shards.iter().enumerate().skip(1) {
            let other = shard.snapshot_parts();
            if other.space != parts.space || other.devices != devices {
                return Err(StoreError::Corrupt(format!(
                    "shard {idx} disagrees with shard 0 on space/devices"
                )));
            }
            next_event_id = next_event_id.max(other.next_event_id);
        }
        let timelines: Vec<EventSeq> = devices
            .iter()
            .enumerate()
            .map(|(idx, _)| {
                let owner = shard_of_device(DeviceId::new(idx as u32), shards.len());
                shards[owner].timeline_of(DeviceId::new(idx as u32)).clone()
            })
            .collect();
        // The replicated device tables make the consistency check above pass
        // even for shards supplied in the wrong order — but then timelines
        // would be read from non-owner (empty) slots. Catch that as an error
        // instead of silently dropping events.
        let total: usize = shards.iter().map(|shard| shard.num_events()).sum();
        let rejoined_events: usize = timelines.iter().map(|timeline| timeline.len()).sum();
        if rejoined_events != total {
            return Err(StoreError::Corrupt(format!(
                "shards hold {total} events but their owner timelines hold {rejoined_events}; \
                 were the shards reordered since split()?"
            )));
        }
        EventStore::from_snapshot_parts(
            parts.space.clone(),
            next_event_id,
            devices.to_vec(),
            timelines,
        )
    }
}

/// A read-only view over the per-shard stores of one partitioned deployment,
/// presenting them as a single logical store through [`EventRead`].
///
/// Device-table lookups answer from shard 0 (the table is replicated);
/// timeline reads route to the owner shard; index reads collect from every
/// shard's lists, so every accessor returns exactly what the combined store
/// would.
///
/// The view borrows the shard stores — in a live service the borrows come from
/// per-shard read guards acquired in ascending shard order.
pub struct ShardedRead<'a> {
    shards: Vec<&'a EventStore>,
}

impl<'a> ShardedRead<'a> {
    /// Builds the view over per-shard stores, in shard order.
    ///
    /// # Panics
    /// Panics if `shards` is empty.
    pub fn new(shards: Vec<&'a EventStore>) -> Self {
        assert!(
            !shards.is_empty(),
            "a sharded view needs at least one shard"
        );
        Self { shards }
    }

    /// Number of shards behind the view.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The owner shard of a device under this view's shard count.
    pub(crate) fn owner_of(&self, device: DeviceId) -> usize {
        shard_of_device(device, self.shards.len())
    }

    /// The per-shard store at `shard`.
    pub fn shard(&self, shard: usize) -> &'a EventStore {
        self.shards[shard]
    }

    /// The store-wide snapshot parts of the combined store: the replicated
    /// tables of shard 0 and the furthest event-id counter of any shard
    /// (what [`EventStore::rejoin`] gives the store it assembles).
    fn snapshot_parts(&self) -> SnapshotParts<'a> {
        let next_event_id = self.shards.iter().map(|s| s.next_event_id()).max();
        SnapshotParts {
            next_event_id: next_event_id.expect("a view has at least one shard"),
            ..self.shards[0].snapshot_parts()
        }
    }

    /// Encodes the combined store as one snapshot, straight from the timelines
    /// the shards hold — byte-identical to
    /// `EventStore::rejoin(shards)?.to_snapshot_bytes()` without assembling
    /// that store.
    pub fn to_snapshot_bytes(&self) -> Result<Vec<u8>, StoreError> {
        encode_snapshot(&self.snapshot_parts(), |device| {
            self.shards[self.owner_of(device)]
                .timeline_of(device)
                .events()
        })
    }

    /// Encodes the events a compaction evicted from these shards
    /// ([`crate::CompactionReport::evicted`]; per-shard runs are disjoint by
    /// device and concatenate in any order) as a spill: an ordinary snapshot
    /// with this deployment's space, device table and event-id counter,
    /// holding only the evicted events under their original ids. The bytes
    /// are a pure function of the evicted event set and those tables — the
    /// shard count does not show.
    pub fn spill_snapshot_bytes(
        &self,
        evicted: &[(DeviceId, Vec<StoredEvent>)],
    ) -> Result<Vec<u8>, StoreError> {
        let parts = self.snapshot_parts();
        let mut runs: Vec<&[StoredEvent]> = vec![&[]; parts.devices.len()];
        for (device, events) in evicted {
            runs[device.index()] = events;
        }
        encode_snapshot(&parts, |device| runs[device.index()])
    }
}

impl EventRead for ShardedRead<'_> {
    fn space(&self) -> &Arc<Space> {
        self.shards[0].space()
    }

    fn devices(&self) -> &[Device] {
        self.shards[0].devices()
    }

    fn device_id(&self, mac: &str) -> Option<DeviceId> {
        self.shards[0].device_id(mac)
    }

    fn num_events(&self) -> usize {
        self.shards.iter().map(|s| s.num_events()).sum()
    }

    fn max_delta(&self) -> Timestamp {
        // The device table (δs included) is replicated across shards.
        self.shards[0].max_delta()
    }

    fn timeline_of(&self, device: DeviceId) -> &EventSeq {
        self.shards[self.owner_of(device)].timeline_of(device)
    }

    fn devices_seen_by(&self, aps: &[AccessPointId], window: Interval, out: &mut Vec<DeviceId>) {
        let lists = self
            .shards
            .iter()
            .flat_map(|shard| shard.timeline().lists(aps));
        devices_seen_in(lists, window, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locater_events::Interval;
    use locater_space::SpaceBuilder;

    fn space() -> Space {
        SpaceBuilder::new("shard-test")
            .add_access_point("wap0", &["a", "b"])
            .add_access_point("wap1", &["b", "c"])
            .build()
            .unwrap()
    }

    /// Ten devices with interleaved histories, including exact timestamp ties
    /// across devices (the case canonical ordering exists for).
    fn store() -> EventStore {
        let mut store = EventStore::new(space());
        for i in 0..10u32 {
            let mac = format!("device-{i}");
            for k in 0..20i64 {
                let ap = if (i + k as u32).is_multiple_of(2) {
                    "wap0"
                } else {
                    "wap1"
                };
                // Devices in the same pair (2i, 2i+1) share timestamps exactly,
                // so the canonical tie order is exercised.
                let t = 1_000 + 300 * k;
                store.ingest_raw(&mac, t + (i as i64 / 2) * 7, ap).unwrap();
            }
        }
        store.estimate_deltas();
        store
    }

    #[test]
    fn shard_assignment_is_deterministic_and_in_range() {
        for shards in 1..9 {
            for d in 0..64 {
                let a = shard_of_device(DeviceId::new(d), shards);
                let b = shard_of_device(DeviceId::new(d), shards);
                assert_eq!(a, b);
                assert!(a < shards);
            }
        }
        assert_eq!(shard_of_device(DeviceId::new(123), 1), 0);
        // The scramble spreads consecutive ids over more than one shard.
        let spread: std::collections::HashSet<usize> = (0..16)
            .map(|d| shard_of_device(DeviceId::new(d), 4))
            .collect();
        assert!(spread.len() > 1);
    }

    #[test]
    fn split_replicates_devices_and_partitions_events() {
        let store = store();
        for shards in [1usize, 2, 3, 8] {
            let pieces = store.split(shards);
            assert_eq!(pieces.len(), shards);
            let mut events = 0usize;
            for (s, piece) in pieces.iter().enumerate() {
                // Full replicated device table, δs included.
                assert_eq!(piece.devices(), store.devices());
                assert_eq!(piece.max_delta(), store.max_delta());
                for device in store.devices() {
                    let owned = shard_of_device(device.id, shards) == s;
                    let len = piece.timeline_of(device.id).len();
                    if owned {
                        assert_eq!(len, store.timeline_of(device.id).len());
                    } else {
                        assert_eq!(len, 0);
                    }
                }
                events += piece.num_events();
            }
            assert_eq!(events, store.num_events());
        }
    }

    #[test]
    fn rejoin_of_split_is_bit_identical() {
        let store = store();
        for shards in [1usize, 2, 3, 8] {
            let rejoined = EventStore::rejoin(&store.split(shards)).unwrap();
            assert_eq!(rejoined, store, "rejoin(split(store, {shards})) != store");
            assert_eq!(
                rejoined.to_snapshot_bytes().unwrap(),
                store.to_snapshot_bytes().unwrap(),
                "snapshot bytes differ after split/rejoin({shards})"
            );
        }
    }

    #[test]
    fn rejoin_rejects_inconsistent_shards() {
        assert!(EventStore::rejoin(&[]).is_err());
        let store = store();
        let mut pieces = store.split(2);
        pieces[1].set_delta(DeviceId::new(0), 9_999);
        assert!(matches!(
            EventStore::rejoin(&pieces),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn rejoin_rejects_reordered_shards() {
        // Replicated device tables make reordered shards look superficially
        // consistent; the event-count invariant must catch the mismatch
        // instead of silently returning an event-less store.
        let store = store();
        let pieces = store.split(3);
        let reordered: Vec<&EventStore> = pieces.iter().rev().collect();
        assert!(matches!(
            EventStore::rejoin(reordered),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn sharded_read_matches_combined_store() {
        let store = store();
        for shards in [1usize, 2, 3, 8] {
            let pieces = store.split(shards);
            let view = ShardedRead::new(pieces.iter().collect());
            assert_eq!(view.num_shards(), shards);
            assert_eq!(EventRead::num_events(&view), store.num_events());
            assert_eq!(view.num_devices(), store.num_devices());
            assert_eq!(EventRead::max_delta(&view), store.max_delta());
            assert_eq!(view.device_id("device-3"), store.device_id("device-3"));
            for device in store.devices() {
                let d = device.id;
                assert_eq!(view.delta(d), store.delta(d));
                let window = Interval::new(1_500, 4_500);
                let via_view: Vec<_> = view.events_of_in(d, window).copied().collect();
                let via_store: Vec<_> = store.events_of_in(d, window).copied().collect();
                assert_eq!(via_view, via_store);
                assert_eq!(view.gaps_of(d), store.gaps_of(d));
                for probe in [900i64, 1_350, 2_000, 5_600, 9_999] {
                    assert_eq!(
                        view.covering_event(d, probe),
                        store.covering_event(d, probe)
                    );
                    assert_eq!(view.gap_at(d, probe), store.gap_at(d, probe));
                }
            }
            // The order-sensitive merged scans: identical, ties included.
            for probe in [1_000i64, 1_150, 2_405, 4_000, 7_000] {
                assert_eq!(
                    view.devices_near(probe, 600, None),
                    store.devices_near(probe, 600, None)
                );
                assert_eq!(
                    view.devices_online_at(probe, Some(DeviceId::new(1))),
                    store.devices_online_at(probe, Some(DeviceId::new(1)))
                );
            }
        }
    }
}
