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

use crate::fine::NeighborContribution;
use locater_events::clock::Timestamp;
use locater_events::DeviceId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Canonical (unordered) edge key between two devices.
pub(crate) fn edge_key(a: DeviceId, b: DeviceId) -> (DeviceId, DeviceId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Ranks `candidates` by decreasing `weight`, breaking ties by input order —
/// the neighbor-ordering rule of §5, shared by the plain graph and the
/// epoch-aware cache so the two can never diverge.
pub(crate) fn rank_by_weight(
    candidates: &[DeviceId],
    weight: impl Fn(DeviceId) -> f64,
) -> Vec<DeviceId> {
    let mut scored: Vec<(usize, f64, DeviceId)> = candidates
        .iter()
        .enumerate()
        .map(|(idx, &device)| (idx, weight(device), device))
        .collect();
    scored.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    scored.into_iter().map(|(_, _, device)| device).collect()
}

/// One cached affinity sample on an edge of the global graph.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AffinitySample {
    /// Local-affinity-graph edge weight observed for this pair
    /// (`Σ_j α({d_a, d_b}, r_j, t_q) / |R(g_x)|`, §5).
    pub weight: f64,
    /// The pairwise device affinity `α({d_a, d_b})` computed for the same query; later
    /// queries reuse it instead of re-scanning the devices' histories.
    pub pair_affinity: f64,
    /// Query time the weight was observed at.
    pub t: Timestamp,
}

/// The global affinity graph `G_g = (V_g, E_g)` of §5.
///
/// Nodes are devices; each edge stores the vector of `(weight, timestamp)` pairs
/// accumulated from the local affinity graphs of past queries. Edge weights are
/// combined with a Gaussian kernel centred on the query time, so recent observations
/// dominate (`w(e, t_q) = Σ_j l_j w_j` with normalized Gaussian coefficients `l_j`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GlobalAffinityGraph {
    edges: HashMap<(DeviceId, DeviceId), Vec<AffinitySample>>,
    /// Upper bound on the number of samples kept per edge (oldest evicted first).
    max_samples_per_edge: usize,
}

impl Default for GlobalAffinityGraph {
    fn default() -> Self {
        Self::new()
    }
}

/// Standard deviation, in seconds, of the temporal weighting kernel: one day.
/// The paper uses a unit-variance normal; on our integer-second timeline a
/// day-scale kernel expresses the same intent ("closer query times weigh
/// more") at a meaningful scale.
const TEMPORAL_SIGMA_SECONDS: f64 = 86_400.0;
const TWO_SIGMA_SQ: f64 = 2.0 * TEMPORAL_SIGMA_SECONDS * TEMPORAL_SIGMA_SECONDS;

impl GlobalAffinityGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self {
            edges: HashMap::new(),
            max_samples_per_edge: 64,
        }
    }

    /// Number of edges with at least one sample.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Total number of cached samples across all edges.
    pub fn num_samples(&self) -> usize {
        self.edges.values().map(Vec::len).sum()
    }

    /// `true` if no affinities have been cached yet.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Records one affinity observation between `a` and `b` at time `t`: the local
    /// affinity-graph edge weight plus the pairwise device affinity it was derived
    /// from.
    pub fn record(
        &mut self,
        a: DeviceId,
        b: DeviceId,
        weight: f64,
        pair_affinity: f64,
        t: Timestamp,
    ) {
        if a == b {
            return;
        }
        let samples = self.edges.entry(edge_key(a, b)).or_default();
        samples.push(AffinitySample {
            weight: weight.clamp(0.0, 1.0),
            pair_affinity: pair_affinity.clamp(0.0, 1.0),
            t,
        });
        if samples.len() > self.max_samples_per_edge {
            samples.remove(0);
        }
    }

    /// Merges the local affinity graph of one answered query — the queried device
    /// `center` plus the contribution of every processed neighbor — into the global
    /// graph (§5, "Building global affinity graph").
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

    /// The samples cached for the pair `(a, b)`, if any.
    pub fn samples(&self, a: DeviceId, b: DeviceId) -> &[AffinitySample] {
        self.edges
            .get(&edge_key(a, b))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The temporally weighted cached affinity of the pair `(a, b)` around `t_q`:
    /// `Σ_j l_j w_j` where `l_j ∝ exp(−(t_j − t_q)² / 2σ²)` and the `l_j` are
    /// normalized to sum to 1. Returns 0 for unseen pairs.
    pub fn weight(&self, a: DeviceId, b: DeviceId, t_q: Timestamp) -> f64 {
        let samples = self.samples(a, b);
        if samples.is_empty() {
            return 0.0;
        }
        let mut kernel_total = 0.0;
        let mut weighted = 0.0;
        for sample in samples {
            let dt = (sample.t - t_q) as f64;
            let kernel = (-(dt * dt) / TWO_SIGMA_SQ).exp();
            kernel_total += kernel;
            weighted += kernel * sample.weight;
        }
        if kernel_total <= 0.0 {
            // All samples are too far in time for the kernel to resolve: fall back to
            // a plain average so long-lived pairs are still ranked above unseen ones.
            samples.iter().map(|s| s.weight).sum::<f64>() / samples.len() as f64
        } else {
            weighted / kernel_total
        }
    }

    /// The temporally weighted cached *pairwise device affinity* of `(a, b)` around
    /// `t_q`, or `None` when the pair has never been cached. Used by the cleaning
    /// engine to skip recomputing device affinities for pairs answered recently
    /// (the "caches computations performed to answer queries" part of §5).
    pub fn cached_pair_affinity(&self, a: DeviceId, b: DeviceId, t_q: Timestamp) -> Option<f64> {
        let samples = self.samples(a, b);
        if samples.is_empty() {
            return None;
        }
        let mut kernel_total = 0.0;
        let mut weighted = 0.0;
        for sample in samples {
            let dt = (sample.t - t_q) as f64;
            let kernel = (-(dt * dt) / TWO_SIGMA_SQ).exp();
            kernel_total += kernel;
            weighted += kernel * sample.pair_affinity;
        }
        if kernel_total <= 0.0 {
            Some(samples.iter().map(|s| s.pair_affinity).sum::<f64>() / samples.len() as f64)
        } else {
            Some(weighted / kernel_total)
        }
    }

    /// Orders candidate neighbor devices of `center` by decreasing cached affinity at
    /// `t_q` (§5, "Using global affinity graph"). Devices without cached samples rank
    /// last, keeping their relative input order.
    pub fn order_neighbors(
        &self,
        center: DeviceId,
        candidates: &[DeviceId],
        t_q: Timestamp,
    ) -> Vec<DeviceId> {
        rank_by_weight(candidates, |device| self.weight(center, device, t_q))
    }

    /// Removes every sample cached for the pair `(a, b)` (no-op for unseen
    /// pairs). Used by the epoch layer to evict edges whose inputs changed.
    pub fn evict_edge(&mut self, a: DeviceId, b: DeviceId) {
        self.edges.remove(&edge_key(a, b));
    }

    /// Moves every edge of `other` into this graph. The sharded service uses
    /// this to assemble the frozen union snapshot of a batch from the per-shard
    /// caches; edge sets are disjoint there (each edge lives in exactly one
    /// shard), so a duplicate edge simply takes `other`'s samples.
    pub fn absorb(&mut self, other: GlobalAffinityGraph) {
        for (key, samples) in other.edges {
            self.edges.insert(key, samples);
        }
    }

    /// Removes all cached samples.
    pub fn clear(&mut self) {
        self.edges.clear();
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
    fn record_and_weight_roundtrip() {
        let mut graph = GlobalAffinityGraph::new();
        assert!(graph.is_empty());
        graph.record(DeviceId::new(1), DeviceId::new(2), 0.4, 0.6, 1_000);
        assert_eq!(graph.num_edges(), 1);
        assert_eq!(graph.num_samples(), 1);
        // Edge key is canonical: both directions see the same weight.
        let w_ab = graph.weight(DeviceId::new(1), DeviceId::new(2), 1_000);
        let w_ba = graph.weight(DeviceId::new(2), DeviceId::new(1), 1_000);
        assert!((w_ab - 0.4).abs() < 1e-9);
        assert_eq!(w_ab, w_ba);
        // Unknown pair → 0.
        assert_eq!(graph.weight(DeviceId::new(1), DeviceId::new(9), 1_000), 0.0);
    }

    #[test]
    fn self_edges_are_ignored_and_weights_clamped() {
        let mut graph = GlobalAffinityGraph::new();
        graph.record(DeviceId::new(3), DeviceId::new(3), 0.9, 0.9, 0);
        assert!(graph.is_empty());
        graph.record(DeviceId::new(1), DeviceId::new(2), 7.5, 7.5, 0);
        assert!(graph.weight(DeviceId::new(1), DeviceId::new(2), 0) <= 1.0);
    }

    #[test]
    fn temporal_weighting_prefers_nearby_samples() {
        // Distances are in units of the one-day kernel width.
        let mut graph = GlobalAffinityGraph::new();
        let (a, b) = (DeviceId::new(1), DeviceId::new(2));
        graph.record(a, b, 0.9, 0.9, 0); // long ago
        graph.record(a, b, 0.1, 0.1, 24_000_000); // recent
        let near_recent = graph.weight(a, b, 24_002_400);
        let near_old = graph.weight(a, b, 2_400);
        assert!(
            near_recent < 0.2,
            "recent sample should dominate: {near_recent}"
        );
        assert!(
            near_old > 0.8,
            "old sample should dominate near its time: {near_old}"
        );
        // Query far from all samples falls back to the plain average.
        let far = graph.weight(a, b, 12_000_000);
        assert!((far - 0.5).abs() < 0.01);
    }

    #[test]
    fn merge_local_adds_edges_for_every_contribution() {
        let mut graph = GlobalAffinityGraph::new();
        let center = DeviceId::new(0);
        graph.merge_local(center, &[contribution(1, 0.4), contribution(2, 0.7)], 5_000);
        assert_eq!(graph.num_edges(), 2);
        assert!(
            graph.weight(center, DeviceId::new(2), 5_000)
                > graph.weight(center, DeviceId::new(1), 5_000)
        );
    }

    #[test]
    fn order_neighbors_ranks_by_cached_affinity() {
        let mut graph = GlobalAffinityGraph::new();
        let center = DeviceId::new(0);
        graph.record(center, DeviceId::new(5), 0.9, 0.9, 100);
        graph.record(center, DeviceId::new(7), 0.2, 0.2, 100);
        let order = graph.order_neighbors(
            center,
            &[DeviceId::new(7), DeviceId::new(3), DeviceId::new(5)],
            100,
        );
        assert_eq!(order[0], DeviceId::new(5));
        assert_eq!(order[1], DeviceId::new(7));
        assert_eq!(order[2], DeviceId::new(3)); // unseen device last
    }

    #[test]
    fn per_edge_sample_cap_evicts_oldest() {
        let mut graph = GlobalAffinityGraph::new();
        let (a, b) = (DeviceId::new(1), DeviceId::new(2));
        for i in 0..200 {
            graph.record(a, b, 0.5, 0.5, i);
        }
        assert!(graph.num_samples() <= 64);
        assert!(graph.samples(a, b).first().unwrap().t > 0);
    }

    #[test]
    fn clear_empties_the_graph() {
        let mut graph = GlobalAffinityGraph::new();
        graph.record(DeviceId::new(1), DeviceId::new(2), 0.5, 0.5, 0);
        graph.clear();
        assert!(graph.is_empty());
        assert_eq!(graph.num_samples(), 0);
    }
}
