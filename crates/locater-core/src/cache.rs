//! The caching engine (paper §5): local and global affinity graphs.
//!
//! Answering a fine-grained query requires computing pairwise device affinities —
//! scans over the devices' recent connectivity history. Those affinities change
//! slowly, so LOCATER caches them: every answered query produces a *local affinity
//! graph* (the queried device, its processed neighbors, and the edge weights
//! `Σ_j α({d_a, d_b}, r_j, t_q) / |R(g_x)|`), which is merged into a *global affinity
//! graph* whose edges carry a vector of `(weight, timestamp)` samples.
//!
//! Later queries use the global graph to decide the **order** in which neighbor
//! devices are processed: devices with a high (temporally weighted) cached affinity
//! are processed first, which makes the early-stop conditions of Algorithm 2 trigger
//! sooner (Fig. 10 / Fig. 12 of the evaluation).
//!
//! ## Invalidation
//!
//! Every edge `{a, b}` carries, beside its samples, the epoch stamp
//! `(epoch(lo), epoch(hi))` of its endpoints (`lo < hi`) when it was last
//! written (see [`crate::system::epoch`]). A read
//! ([`GlobalAffinityGraph::lookup`]) treats an edge whose stamp differs from
//! the current epochs as absent; a stamped write
//! ([`GlobalAffinityGraph::merge_stamped`]) drops such an edge's samples before
//! recording into it, so stale samples never mix with fresh ones. An edge
//! first written by [`GlobalAffinityGraph::merge_local`] is stamped `(0, 0)`:
//! the epochs of devices no service has ingested for.

use crate::fine::NeighborContribution;
use crate::system::EpochRead;
use locater_events::clock::Timestamp;
use locater_events::DeviceId;
use std::collections::HashMap;

/// Canonical (unordered) edge key between two devices.
fn edge_key(a: DeviceId, b: DeviceId) -> (DeviceId, DeviceId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// The stamp the edge `key` carries when written under `epochs`.
fn stamp_of(key: (DeviceId, DeviceId), epochs: &dyn EpochRead) -> (u64, u64) {
    (epochs.epoch_of(key.0), epochs.epoch_of(key.1))
}

/// Upper bound on the number of samples kept per edge (oldest evicted first).
pub(crate) const MAX_SAMPLES_PER_EDGE: usize = 64;

/// Standard deviation, in seconds, of the temporal weighting kernel: one day.
/// The paper uses a unit-variance normal; on our integer-second timeline a
/// day-scale kernel expresses the same intent ("closer query times weigh
/// more") at a meaningful scale.
const TEMPORAL_SIGMA_SECONDS: f64 = 86_400.0;
const TWO_SIGMA_SQ: f64 = 2.0 * TEMPORAL_SIGMA_SECONDS * TEMPORAL_SIGMA_SECONDS;

/// One cached affinity sample on an edge of the global graph.
#[derive(Debug, Clone, Copy)]
struct AffinitySample {
    /// Local-affinity-graph edge weight observed for this pair
    /// (`Σ_j α({d_a, d_b}, r_j, t_q) / |R(g_x)|`, §5).
    weight: f64,
    /// The pairwise device affinity `α({d_a, d_b})` computed for the same query; later
    /// queries reuse it instead of re-scanning the devices' histories.
    pair_affinity: f64,
    /// Query time the weight was observed at.
    t: Timestamp,
}

/// One edge: the epoch stamp it was last written under and its samples.
#[derive(Debug, Default)]
struct Edge {
    stamp: (u64, u64),
    samples: Vec<AffinitySample>,
}

/// What one fine-step execution takes from the global graph for the neighbors
/// of the queried device (see [`GlobalAffinityGraph::plan`]).
#[derive(Debug)]
pub struct FinePlan {
    /// The neighbors in processing order: decreasing live cached weight, ties
    /// — and neighbors without a live edge — in input order.
    pub order: Vec<DeviceId>,
    /// The cached pairwise affinity of every neighbor with a live edge; these
    /// replace the per-pair history scans of cold queries.
    pub cached: HashMap<DeviceId, f64>,
}

/// The global affinity graph `G_g = (V_g, E_g)` of §5.
///
/// Nodes are devices; each edge stores the vector of `(weight, timestamp)` pairs
/// accumulated from the local affinity graphs of past queries, plus the epoch
/// stamp that decides whether they are still live (see the [module
/// docs](self)). Edge weights are combined with a Gaussian kernel centred on
/// the query time, so recent observations dominate
/// (`w(e, t_q) = Σ_j l_j w_j` with normalized Gaussian coefficients `l_j`).
#[derive(Debug, Default)]
pub struct GlobalAffinityGraph {
    edges: HashMap<(DeviceId, DeviceId), Edge>,
}

impl GlobalAffinityGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of edges physically held (live and stale).
    pub(crate) fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of samples physically held across all edges (live and stale).
    pub(crate) fn num_samples(&self) -> usize {
        self.edges.values().map(|edge| edge.samples.len()).sum()
    }

    /// Records one affinity observation between `a` and `b` at time `t`: the local
    /// affinity-graph edge weight plus the pairwise device affinity it was derived
    /// from. The edge keeps its stamp.
    fn record(&mut self, a: DeviceId, b: DeviceId, weight: f64, pair_affinity: f64, t: Timestamp) {
        if a == b {
            return;
        }
        let samples = &mut self.edges.entry(edge_key(a, b)).or_default().samples;
        samples.push(AffinitySample {
            weight: weight.clamp(0.0, 1.0),
            pair_affinity: pair_affinity.clamp(0.0, 1.0),
            t,
        });
        if samples.len() > MAX_SAMPLES_PER_EDGE {
            samples.remove(0);
        }
    }

    /// Merges the local affinity graph of one answered query — the queried device
    /// `center` plus the contribution of every processed neighbor — into the global
    /// graph (§5, "Building global affinity graph"). Touched edges keep their
    /// stamps; use [`Self::merge_stamped`] where epochs move.
    pub fn merge_local(
        &mut self,
        center: DeviceId,
        contributions: &[NeighborContribution],
        t: Timestamp,
    ) {
        for contribution in contributions {
            self.record(
                center,
                contribution.device,
                contribution.edge_weight,
                contribution.pair_affinity,
                t,
            );
        }
    }

    /// [`Self::merge_local`] under the current `epochs`: every touched edge is
    /// stamped with them first, and one whose old stamp went stale loses its
    /// samples before the new ones are recorded.
    pub fn merge_stamped(
        &mut self,
        center: DeviceId,
        contributions: &[NeighborContribution],
        t: Timestamp,
        epochs: &dyn EpochRead,
    ) {
        for contribution in contributions {
            if contribution.device == center {
                continue;
            }
            let key = edge_key(center, contribution.device);
            let stamp = stamp_of(key, epochs);
            let edge = self.edges.entry(key).or_default();
            if edge.stamp != stamp {
                edge.samples.clear();
                edge.stamp = stamp;
            }
        }
        self.merge_local(center, contributions, t);
    }

    /// The live cached affinity of the pair `{a, b}` around `t_q`, as
    /// `(weight, pair_affinity)`, or `None` when the edge is absent or stale.
    ///
    /// Each value is `Σ_j l_j v_j` over the edge's samples, where
    /// `l_j ∝ exp(−(t_j − t_q)² / 2σ²)` and the `l_j` are normalized to sum to
    /// 1: `weight` ranks neighbors, and `pair_affinity` lets the cleaning
    /// engine skip recomputing the device affinity of a pair answered recently.
    pub fn lookup(
        &self,
        a: DeviceId,
        b: DeviceId,
        t_q: Timestamp,
        epochs: &dyn EpochRead,
    ) -> Option<(f64, f64)> {
        let key = edge_key(a, b);
        let edge = self.edges.get(&key)?;
        if edge.samples.is_empty() || edge.stamp != stamp_of(key, epochs) {
            return None;
        }
        let samples = &edge.samples;
        let (mut kernel_total, mut weight, mut pair_affinity) = (0.0, 0.0, 0.0);
        for sample in samples {
            let dt = (sample.t - t_q) as f64;
            let kernel = (-(dt * dt) / TWO_SIGMA_SQ).exp();
            kernel_total += kernel;
            weight += kernel * sample.weight;
            pair_affinity += kernel * sample.pair_affinity;
        }
        if kernel_total <= 0.0 {
            // All samples are too far in time for the kernel to resolve: fall back to
            // a plain average so long-lived pairs are still ranked above unseen ones.
            let n = samples.len() as f64;
            return Some((
                samples.iter().map(|s| s.weight).sum::<f64>() / n,
                samples.iter().map(|s| s.pair_affinity).sum::<f64>() / n,
            ));
        }
        Some((weight / kernel_total, pair_affinity / kernel_total))
    }

    /// Reads the edge `{center, n}` of every neighbor `n` once and returns
    /// the fine step's processing order and cached affinities (§5, "Using
    /// global affinity graph").
    pub fn plan(
        &self,
        center: DeviceId,
        neighbors: &[DeviceId],
        t_q: Timestamp,
        epochs: &dyn EpochRead,
    ) -> FinePlan {
        let mut cached = HashMap::new();
        let mut ranked: Vec<(usize, f64, DeviceId)> = Vec::with_capacity(neighbors.len());
        for (idx, &neighbor) in neighbors.iter().enumerate() {
            let weight = match self.lookup(center, neighbor, t_q, epochs) {
                Some((weight, pair_affinity)) => {
                    cached.insert(neighbor, pair_affinity);
                    weight
                }
                None => 0.0,
            };
            ranked.push((idx, weight, neighbor));
        }
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        FinePlan {
            order: ranked.into_iter().map(|(_, _, device)| device).collect(),
            cached,
        }
    }

    /// Number of edges and samples live under `epochs` — the state queries
    /// can observe.
    pub(crate) fn live_stats(&self, epochs: &dyn EpochRead) -> (usize, usize) {
        self.edges
            .iter()
            .filter(|&(&key, edge)| edge.stamp == stamp_of(key, epochs))
            .fold((0, 0), |(edges, samples), (_, edge)| {
                (edges + 1, samples + edge.samples.len())
            })
    }

    /// Evicts every stale edge, returning the number of edges removed. Reads
    /// already skip stale edges; this is an optional maintenance sweep that
    /// reclaims their memory eagerly.
    pub fn purge_stale(&mut self, epochs: &dyn EpochRead) -> usize {
        let before = self.edges.len();
        self.edges
            .retain(|&key, edge| edge.stamp == stamp_of(key, epochs));
        before - self.edges.len()
    }

    /// Drops every cached edge, live or stale.
    pub fn clear(&mut self) {
        self.edges.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::EpochTable;
    use locater_space::RegionId;

    fn contribution(device: u32, weight: f64) -> NeighborContribution {
        NeighborContribution {
            device: DeviceId::new(device),
            region: RegionId::new(0),
            pair_affinity: weight,
            edge_weight: weight,
        }
    }

    /// The live `weight` of `{a, b}` at `t_q` under epochs nobody bumped.
    fn weight(graph: &GlobalAffinityGraph, a: u32, b: u32, t_q: Timestamp) -> Option<f64> {
        graph
            .lookup(DeviceId::new(a), DeviceId::new(b), t_q, &EpochTable::new())
            .map(|(weight, _)| weight)
    }

    #[test]
    fn record_and_weight_roundtrip() {
        let mut graph = GlobalAffinityGraph::new();
        assert_eq!(graph.num_edges(), 0);
        graph.record(DeviceId::new(1), DeviceId::new(2), 0.4, 0.6, 1_000);
        assert_eq!(graph.num_edges(), 1);
        assert_eq!(graph.num_samples(), 1);
        // Edge key is canonical: both directions see the same values.
        let epochs = EpochTable::new();
        let ab = graph.lookup(DeviceId::new(1), DeviceId::new(2), 1_000, &epochs);
        let ba = graph.lookup(DeviceId::new(2), DeviceId::new(1), 1_000, &epochs);
        let (w, pair) = ab.unwrap();
        assert!((w - 0.4).abs() < 1e-9);
        assert!((pair - 0.6).abs() < 1e-9);
        assert_eq!(ab, ba);
        // Unknown pair → miss.
        assert_eq!(weight(&graph, 1, 9, 1_000), None);
    }

    #[test]
    fn self_edges_are_ignored_and_weights_clamped() {
        let mut graph = GlobalAffinityGraph::new();
        graph.record(DeviceId::new(3), DeviceId::new(3), 0.9, 0.9, 0);
        assert_eq!(graph.num_edges(), 0);
        graph.record(DeviceId::new(1), DeviceId::new(2), 7.5, 7.5, 0);
        assert!(weight(&graph, 1, 2, 0).unwrap() <= 1.0);
    }

    #[test]
    fn temporal_weighting_prefers_nearby_samples() {
        // Distances are in units of the one-day kernel width.
        let mut graph = GlobalAffinityGraph::new();
        let (a, b) = (DeviceId::new(1), DeviceId::new(2));
        graph.record(a, b, 0.9, 0.9, 0); // long ago
        graph.record(a, b, 0.1, 0.1, 24_000_000); // recent
        let near_recent = weight(&graph, 1, 2, 24_002_400).unwrap();
        let near_old = weight(&graph, 1, 2, 2_400).unwrap();
        assert!(
            near_recent < 0.2,
            "recent sample should dominate: {near_recent}"
        );
        assert!(
            near_old > 0.8,
            "old sample should dominate near its time: {near_old}"
        );
        // Query far from all samples falls back to the plain average.
        let far = weight(&graph, 1, 2, 12_000_000).unwrap();
        assert!((far - 0.5).abs() < 0.01);
    }

    #[test]
    fn merge_local_adds_edges_for_every_contribution() {
        let mut graph = GlobalAffinityGraph::new();
        graph.merge_local(
            DeviceId::new(0),
            &[contribution(1, 0.4), contribution(2, 0.7)],
            5_000,
        );
        assert_eq!(graph.num_edges(), 2);
        assert!(weight(&graph, 0, 2, 5_000) > weight(&graph, 0, 1, 5_000));
    }

    #[test]
    fn order_neighbors_ranks_by_cached_affinity() {
        let mut graph = GlobalAffinityGraph::new();
        let center = DeviceId::new(0);
        graph.record(center, DeviceId::new(5), 0.9, 0.8, 100);
        graph.record(center, DeviceId::new(7), 0.2, 0.3, 100);
        let plan = graph.plan(
            center,
            &[DeviceId::new(7), DeviceId::new(3), DeviceId::new(5)],
            100,
            &EpochTable::new(),
        );
        // The unseen device ranks last, and carries no cached affinity.
        assert_eq!(
            plan.order,
            [DeviceId::new(5), DeviceId::new(7), DeviceId::new(3)]
        );
        assert_eq!(plan.cached.len(), 2);
        assert!((plan.cached[&DeviceId::new(5)] - 0.8).abs() < 1e-9);
    }

    #[test]
    fn per_edge_sample_cap_evicts_oldest() {
        let mut graph = GlobalAffinityGraph::new();
        let (a, b) = (DeviceId::new(1), DeviceId::new(2));
        for i in 0..200 {
            graph.record(a, b, 0.5, 0.5, i);
        }
        assert_eq!(graph.num_samples(), MAX_SAMPLES_PER_EDGE);
        assert!(graph.edges[&edge_key(a, b)].samples[0].t > 0);
    }

    #[test]
    fn clear_empties_the_graph() {
        let mut graph = GlobalAffinityGraph::new();
        graph.record(DeviceId::new(1), DeviceId::new(2), 0.5, 0.5, 0);
        graph.clear();
        assert_eq!((graph.num_edges(), graph.num_samples()), (0, 0));
    }
}
