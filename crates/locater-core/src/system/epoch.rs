//! Epoch-based cache invalidation for the live service.
//!
//! The caching engine (§5) persists two kinds of derived state across queries:
//! per-device coarse models and the edges of the global affinity graph. Both are
//! pure functions of the event store (plus configuration), so when new events
//! arrive for a device, every cached value derived from that device's history is
//! stale — and *only* those values.
//!
//! The [`EpochTable`] tracks one monotonically increasing counter per device.
//! Every ingested event bumps the counter of the device it belongs to; cached
//! state is stamped with the epochs of the devices it was derived from:
//!
//! * a coarse model for device `d` is stamped with `epoch(d)` when its window
//!   is cached (the model reads only `d`'s own event sequence, whenever its
//!   classifiers come to be fitted — see [`crate::coarse::DeviceCoarseModel`]);
//! * an affinity-graph edge `{a, b}` is stamped with `(epoch(a), epoch(b))` at
//!   record time (its weight and cached pairwise affinity are derived from the
//!   two devices' histories).
//!
//! A cached entry is **live** iff its stamp equals the current epochs; stale
//! entries are skipped on read and evicted when the edge is next written (or in
//! bulk by [`EpochCache::purge_stale`]). This replaces the
//! clear-cache-and-rebuild regime: an ingest batch invalidates exactly the state
//! whose inputs changed, and queries over untouched devices keep their warm
//! cache.
//!
//! A service that never ingests never bumps an epoch, so every stamp stays
//! live forever: offline evaluation over a fixed dataset behaves like a
//! clear-cache-only system.

use crate::cache::{edge_key, rank_by_weight, AffinitySample, GlobalAffinityGraph};
use crate::coarse::DeviceCoarseModel;
use crate::fine::NeighborContribution;
use locater_events::clock::Timestamp;
use locater_events::DeviceId;
use std::collections::HashMap;
use std::sync::Arc;

/// Read access to per-device ingest epochs.
///
/// The caching engine only ever *reads* epochs when checking stamp liveness, so
/// it works against either a single [`EpochTable`] or a sharded view combining
/// the per-shard tables of a [`ShardedLocaterService`](super::ShardedLocaterService)
/// (where the table of a device's home shard is authoritative for it).
pub trait EpochRead: Sync {
    /// The current epoch of a device (0 for devices never bumped).
    fn epoch_of(&self, device: DeviceId) -> u64;
}

impl EpochRead for EpochTable {
    fn epoch_of(&self, device: DeviceId) -> u64 {
        self.of(device)
    }
}

/// Per-device ingest epochs.
///
/// `epoch(d)` starts at 0 and is bumped once per event ingested for `d` (and
/// once per device by bulk invalidations such as
/// [`ShardedLocaterService::invalidate_all`](super::ShardedLocaterService::invalidate_all)).
/// Devices the table has never seen report epoch 0.
#[derive(Debug, Clone, Default)]
pub struct EpochTable {
    counters: Vec<u64>,
}

impl EpochTable {
    /// Creates an empty table (every device at epoch 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// The current epoch of a device.
    pub fn of(&self, device: DeviceId) -> u64 {
        self.counters.get(device.index()).copied().unwrap_or(0)
    }

    /// Bumps the epoch of one device, growing the table as needed.
    pub fn bump(&mut self, device: DeviceId) {
        if device.index() >= self.counters.len() {
            self.counters.resize(device.index() + 1, 0);
        }
        self.counters[device.index()] += 1;
    }

    /// Bumps every device up to `num_devices` (bulk invalidation: delta
    /// re-estimation, explicit cache reset).
    pub fn bump_all(&mut self, num_devices: usize) {
        if num_devices > self.counters.len() {
            self.counters.resize(num_devices, 0);
        }
        for counter in &mut self.counters {
            *counter += 1;
        }
    }

    /// Size of the table's backing storage: one more than the highest device
    /// index ever bumped (slots below it may still hold epoch 0).
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// `true` if no epoch has ever been bumped.
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&c| c == 0)
    }
}

/// A cached per-device coarse model plus the device epoch it was cached at.
/// The model sits behind an `Arc` so a reader can take it out of the map and
/// fit it with no map lock held, and so a batch's seeds share that fit.
#[derive(Debug, Clone)]
pub struct ModelEntry {
    /// The model: a history window, fitted on first ambiguous use.
    pub model: Arc<DeviceCoarseModel>,
    /// `epoch(device)` at caching time; the entry is live while this matches.
    pub epoch: u64,
}

/// The global affinity graph plus per-edge epoch stamps.
///
/// Reads (`weight`, `cached_pair_affinity`, `order_neighbors`, `samples`) treat
/// stale edges as absent; writes through [`EpochCache::merge_local`] evict a
/// stale edge's samples before recording, so the visible cache state is always
/// exactly what a freshly built system would have accumulated from the same
/// post-invalidation query sequence.
#[derive(Debug, Clone, Default)]
pub struct EpochCache {
    graph: GlobalAffinityGraph,
    stamps: HashMap<(DeviceId, DeviceId), (u64, u64)>,
}

impl EpochCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The underlying affinity graph (stale edges included; use the epoch-aware
    /// accessors for answer-relevant reads).
    pub fn graph(&self) -> &GlobalAffinityGraph {
        &self.graph
    }

    /// The stamp the edge `{a, b}` would carry if recorded now.
    fn current_stamp(a: DeviceId, b: DeviceId, epochs: &dyn EpochRead) -> (u64, u64) {
        let (lo, hi) = edge_key(a, b);
        (epochs.epoch_of(lo), epochs.epoch_of(hi))
    }

    /// `true` if the edge `{a, b}` exists and its stamp matches the current
    /// epochs of both endpoints.
    pub fn is_live(&self, a: DeviceId, b: DeviceId, epochs: &dyn EpochRead) -> bool {
        self.stamps
            .get(&edge_key(a, b))
            .is_some_and(|&stamp| stamp == Self::current_stamp(a, b, epochs))
    }

    /// The live samples cached for the pair `{a, b}` (empty when absent or stale).
    pub fn samples(&self, a: DeviceId, b: DeviceId, epochs: &dyn EpochRead) -> &[AffinitySample] {
        if self.is_live(a, b, epochs) {
            self.graph.samples(a, b)
        } else {
            &[]
        }
    }

    /// Epoch-aware [`GlobalAffinityGraph::weight`]: stale edges weigh 0.
    pub fn weight(&self, a: DeviceId, b: DeviceId, t_q: Timestamp, epochs: &dyn EpochRead) -> f64 {
        if self.is_live(a, b, epochs) {
            self.graph.weight(a, b, t_q)
        } else {
            0.0
        }
    }

    /// Epoch-aware [`GlobalAffinityGraph::cached_pair_affinity`]: stale edges miss.
    pub fn cached_pair_affinity(
        &self,
        a: DeviceId,
        b: DeviceId,
        t_q: Timestamp,
        epochs: &dyn EpochRead,
    ) -> Option<f64> {
        if self.is_live(a, b, epochs) {
            self.graph.cached_pair_affinity(a, b, t_q)
        } else {
            None
        }
    }

    /// Epoch-aware [`GlobalAffinityGraph::order_neighbors`]: candidates are
    /// ranked by decreasing live cached affinity; devices without a live edge
    /// rank last, keeping their relative input order.
    pub fn order_neighbors(
        &self,
        center: DeviceId,
        candidates: &[DeviceId],
        t_q: Timestamp,
        epochs: &dyn EpochRead,
    ) -> Vec<DeviceId> {
        rank_by_weight(candidates, |device| {
            self.weight(center, device, t_q, epochs)
        })
    }

    /// Merges the local affinity graph of one answered query, evicting any edge
    /// whose stamp went stale before recording into it (so stale samples never
    /// mix with fresh ones).
    pub fn merge_local(
        &mut self,
        center: DeviceId,
        contributions: &[NeighborContribution],
        t: Timestamp,
        epochs: &dyn EpochRead,
    ) {
        for contribution in contributions {
            let neighbor = contribution.device;
            if neighbor == center {
                continue;
            }
            let key = edge_key(center, neighbor);
            let stamp = Self::current_stamp(center, neighbor, epochs);
            match self.stamps.get_mut(&key) {
                Some(existing) if *existing == stamp => {}
                Some(existing) => {
                    self.graph.evict_edge(center, neighbor);
                    *existing = stamp;
                }
                None => {
                    self.stamps.insert(key, stamp);
                }
            }
            self.graph.record(
                center,
                neighbor,
                contribution.edge_weight,
                contribution.pair_affinity,
                t,
            );
        }
    }

    /// Number of edges and samples physically held (live *and* stale).
    pub fn stats(&self) -> (usize, usize) {
        (self.graph.num_edges(), self.graph.num_samples())
    }

    /// Number of edges and samples that are live under the given epochs.
    pub fn live_stats(&self, epochs: &dyn EpochRead) -> (usize, usize) {
        let mut edges = 0usize;
        let mut samples = 0usize;
        for (&(a, b), &stamp) in &self.stamps {
            if stamp == Self::current_stamp(a, b, epochs) {
                edges += 1;
                samples += self.graph.samples(a, b).len();
            }
        }
        (edges, samples)
    }

    /// Evicts every stale edge, returning the number of edges removed. Reads
    /// already skip stale edges; this is an optional maintenance sweep that
    /// reclaims their memory eagerly.
    pub fn purge_stale(&mut self, epochs: &dyn EpochRead) -> usize {
        let stale: Vec<(DeviceId, DeviceId)> = self
            .stamps
            .iter()
            .filter(|(&(a, b), &stamp)| stamp != Self::current_stamp(a, b, epochs))
            .map(|(&key, _)| key)
            .collect();
        for &(a, b) in &stale {
            self.graph.evict_edge(a, b);
            self.stamps.remove(&(a, b));
        }
        stale.len()
    }

    /// Moves every stamped edge of `other` into this cache. Used to assemble
    /// the frozen union snapshot of a sharded batch from the per-shard caches,
    /// whose edge sets are disjoint (each edge lives in the cache of the shard
    /// owning its lower endpoint).
    pub fn absorb(&mut self, other: EpochCache) {
        self.graph.absorb(other.graph);
        self.stamps.extend(other.stamps);
    }

    /// Drops every cached edge, live or stale.
    pub fn clear(&mut self) {
        self.graph.clear();
        self.stamps.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locater_space::RegionId;

    fn contribution(device: u32, weight: f64) -> NeighborContribution {
        NeighborContribution {
            device: DeviceId::new(device),
            region: RegionId::new(0),
            pair_affinity: weight,
            edge_weight: weight,
        }
    }

    #[test]
    fn epochs_start_at_zero_and_bump_per_device() {
        let mut epochs = EpochTable::new();
        let (a, b) = (DeviceId::new(0), DeviceId::new(5));
        assert!(epochs.is_empty());
        assert_eq!(epochs.of(a), 0);
        assert_eq!(epochs.of(b), 0);
        epochs.bump(b);
        assert_eq!(epochs.of(a), 0);
        assert_eq!(epochs.of(b), 1);
        assert_eq!(epochs.len(), 6);
        epochs.bump_all(8);
        assert_eq!(epochs.of(a), 1);
        assert_eq!(epochs.of(b), 2);
        assert_eq!(epochs.of(DeviceId::new(7)), 1);
        assert!(!epochs.is_empty());
    }

    #[test]
    fn ingest_on_either_endpoint_invalidates_the_edge() {
        let mut epochs = EpochTable::new();
        let mut cache = EpochCache::new();
        let (a, b) = (DeviceId::new(1), DeviceId::new(2));
        cache.merge_local(a, &[contribution(2, 0.6)], 100, &epochs);
        assert!(cache.is_live(a, b, &epochs));
        assert!(cache.weight(a, b, 100, &epochs) > 0.0);
        assert!(cache.cached_pair_affinity(a, b, 100, &epochs).is_some());

        epochs.bump(b);
        assert!(!cache.is_live(a, b, &epochs));
        assert_eq!(cache.weight(a, b, 100, &epochs), 0.0);
        assert!(cache.cached_pair_affinity(a, b, 100, &epochs).is_none());
        assert!(cache.samples(a, b, &epochs).is_empty());
        // Physically still present until purged or rewritten.
        assert_eq!(cache.stats().0, 1);
        assert_eq!(cache.live_stats(&epochs).0, 0);
    }

    #[test]
    fn rewrite_of_a_stale_edge_evicts_old_samples_first() {
        let mut epochs = EpochTable::new();
        let mut cache = EpochCache::new();
        let (a, b) = (DeviceId::new(1), DeviceId::new(2));
        cache.merge_local(a, &[contribution(2, 0.9)], 100, &epochs);
        cache.merge_local(a, &[contribution(2, 0.9)], 200, &epochs);
        assert_eq!(cache.stats().1, 2);

        epochs.bump(a);
        cache.merge_local(a, &[contribution(2, 0.1)], 300, &epochs);
        // Only the fresh sample remains: stale history must not leak into the
        // temporally weighted affinity.
        assert_eq!(cache.samples(a, b, &epochs).len(), 1);
        assert!((cache.weight(a, b, 300, &epochs) - 0.1).abs() < 1e-9);
        assert!(cache.is_live(a, b, &epochs));
    }

    #[test]
    fn untouched_edges_stay_live() {
        let mut epochs = EpochTable::new();
        let mut cache = EpochCache::new();
        let (a, b, c) = (DeviceId::new(1), DeviceId::new(2), DeviceId::new(3));
        cache.merge_local(a, &[contribution(2, 0.5)], 100, &epochs);
        cache.merge_local(b, &[contribution(3, 0.5)], 100, &epochs);
        epochs.bump(a);
        assert!(!cache.is_live(a, b, &epochs));
        assert!(cache.is_live(b, c, &epochs));
        assert_eq!(cache.live_stats(&epochs), (1, 1));
        assert_eq!(cache.purge_stale(&epochs), 1);
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn order_neighbors_ignores_stale_edges() {
        let mut epochs = EpochTable::new();
        let mut cache = EpochCache::new();
        let center = DeviceId::new(0);
        cache.merge_local(
            center,
            &[contribution(5, 0.9), contribution(7, 0.4)],
            10,
            &epochs,
        );
        let candidates = [DeviceId::new(7), DeviceId::new(5), DeviceId::new(9)];
        let order = cache.order_neighbors(center, &candidates, 10, &epochs);
        assert_eq!(order[0], DeviceId::new(5));

        // Staling device 5's edge demotes it to input order (all weights 0 for
        // 5 and 9, 7 still live).
        epochs.bump(DeviceId::new(5));
        let order = cache.order_neighbors(center, &candidates, 10, &epochs);
        assert_eq!(order[0], DeviceId::new(7));
        assert_eq!(order[1], DeviceId::new(5));
        assert_eq!(order[2], DeviceId::new(9));
    }

    #[test]
    fn clear_drops_everything() {
        let epochs = EpochTable::new();
        let mut cache = EpochCache::new();
        cache.merge_local(DeviceId::new(0), &[contribution(1, 0.5)], 10, &epochs);
        cache.clear();
        assert_eq!(cache.stats(), (0, 0));
        assert_eq!(cache.live_stats(&epochs), (0, 0));
    }
}
