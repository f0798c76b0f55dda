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
//! * an affinity-graph edge `{a, b}` carries `(epoch(a), epoch(b))` beside its
//!   samples in the service's one [`GlobalAffinityGraph`] (its weight and
//!   cached pairwise affinity are derived from the two devices' histories).
//!
//! A cached entry is **live** iff its stamp equals the current epochs; stale
//! entries are skipped on read and evicted when the edge is next written (or in
//! bulk by [`GlobalAffinityGraph::purge_stale`]). This replaces the
//! clear-cache-and-rebuild regime: an ingest batch invalidates exactly the state
//! whose inputs changed, and queries over untouched devices keep their warm
//! cache.
//!
//! A service that never ingests never bumps an epoch, so every stamp stays
//! live forever: offline evaluation over a fixed dataset behaves like a
//! clear-cache-only system.
//!
//! [`GlobalAffinityGraph`]: crate::cache::GlobalAffinityGraph
//! [`GlobalAffinityGraph::purge_stale`]: crate::cache::GlobalAffinityGraph::purge_stale

use crate::coarse::DeviceCoarseModel;
use locater_events::DeviceId;
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
/// `epoch(d)` starts at 0 and is bumped once per event ingested for `d`, so
/// it is a function of the acked events alone (a δ override is store
/// configuration, set on the `EventStore` before a service is built over it).
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
/// fit it with no map lock held, and racing readers share that fit.
#[derive(Debug, Clone)]
pub struct ModelEntry {
    /// The model: a history window, fitted on first ambiguous use.
    pub model: Arc<DeviceCoarseModel>,
    /// `epoch(device)` at caching time; the entry is live while this matches.
    pub epoch: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::GlobalAffinityGraph;
    use crate::fine::NeighborContribution;
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
        assert!(!epochs.is_empty());
    }

    /// Whether `{a, b}` has a live edge in `graph` under `epochs`.
    fn live(graph: &GlobalAffinityGraph, a: u32, b: u32, epochs: &EpochTable) -> bool {
        graph
            .lookup(DeviceId::new(a), DeviceId::new(b), 100, epochs)
            .is_some()
    }

    #[test]
    fn ingest_on_either_endpoint_invalidates_the_edge() {
        for bumped in [1, 2] {
            let mut epochs = EpochTable::new();
            let mut graph = GlobalAffinityGraph::new();
            graph.merge_stamped(DeviceId::new(1), &[contribution(2, 0.6)], 100, &epochs);
            assert!(live(&graph, 1, 2, &epochs));

            epochs.bump(DeviceId::new(bumped));
            assert!(!live(&graph, 1, 2, &epochs));
            assert!(!live(&graph, 2, 1, &epochs));
            let plan = graph.plan(DeviceId::new(1), &[DeviceId::new(2)], 100, &epochs);
            assert!(plan.cached.is_empty());
            // Physically still present until purged or rewritten.
            assert_eq!(graph.num_edges(), 1);
            assert_eq!(graph.live_stats(&epochs), (0, 0));
        }
    }

    #[test]
    fn rewrite_of_a_stale_edge_evicts_old_samples_first() {
        let mut epochs = EpochTable::new();
        let mut graph = GlobalAffinityGraph::new();
        let (a, b) = (DeviceId::new(1), DeviceId::new(2));
        graph.merge_stamped(a, &[contribution(2, 0.9)], 100, &epochs);
        graph.merge_stamped(a, &[contribution(2, 0.9)], 200, &epochs);
        assert_eq!(graph.num_samples(), 2);

        epochs.bump(a);
        graph.merge_stamped(a, &[contribution(2, 0.1)], 300, &epochs);
        // Only the fresh sample remains: stale history must not leak into the
        // temporally weighted affinity.
        assert_eq!(graph.live_stats(&epochs), (1, 1));
        let (weight, pair_affinity) = graph.lookup(a, b, 300, &epochs).unwrap();
        assert!((weight - 0.1).abs() < 1e-9);
        assert!((pair_affinity - 0.1).abs() < 1e-9);
    }

    #[test]
    fn untouched_edges_stay_live() {
        let mut epochs = EpochTable::new();
        let mut graph = GlobalAffinityGraph::new();
        graph.merge_stamped(DeviceId::new(1), &[contribution(2, 0.5)], 100, &epochs);
        graph.merge_stamped(DeviceId::new(2), &[contribution(3, 0.5)], 100, &epochs);
        epochs.bump(DeviceId::new(1));
        assert!(!live(&graph, 1, 2, &epochs));
        assert!(live(&graph, 2, 3, &epochs));
        assert_eq!(graph.live_stats(&epochs), (1, 1));
        assert_eq!(graph.purge_stale(&epochs), 1);
        assert_eq!((graph.num_edges(), graph.num_samples()), (1, 1));
        assert!(live(&graph, 2, 3, &epochs));
    }

    #[test]
    fn order_neighbors_ignores_stale_edges() {
        let mut epochs = EpochTable::new();
        let mut graph = GlobalAffinityGraph::new();
        let center = DeviceId::new(0);
        graph.merge_stamped(
            center,
            &[contribution(5, 0.9), contribution(7, 0.4)],
            10,
            &epochs,
        );
        let candidates = [DeviceId::new(7), DeviceId::new(5), DeviceId::new(9)];
        let plan = graph.plan(center, &candidates, 10, &epochs);
        assert_eq!(plan.order[0], DeviceId::new(5));

        // Staling device 5's edge demotes it to input order (all weights 0 for
        // 5 and 9, 7 still live).
        epochs.bump(DeviceId::new(5));
        let plan = graph.plan(center, &candidates, 10, &epochs);
        assert_eq!(plan.order, candidates);
        assert!(!plan.cached.contains_key(&DeviceId::new(5)));
    }

    #[test]
    fn clear_drops_everything() {
        let epochs = EpochTable::new();
        let mut graph = GlobalAffinityGraph::new();
        graph.merge_stamped(DeviceId::new(0), &[contribution(1, 0.5)], 10, &epochs);
        graph.clear();
        assert_eq!((graph.num_edges(), graph.num_samples()), (0, 0));
        assert_eq!(graph.live_stats(&epochs), (0, 0));
    }
}
