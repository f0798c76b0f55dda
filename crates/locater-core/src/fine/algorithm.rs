//! Algorithm 2: fine-grained localization with iterative neighbor processing.
//!
//! Given the region `g_x` the coarse step placed the queried device in, the algorithm
//! maintains a posterior over the candidate rooms `R(g_x)`, initialized from the room
//! affinities (§4.1) and updated with one *neighbor device* at a time. Neighbors are
//! devices online at the query time whose region overlaps `g_x`; each contributes its
//! group affinity with the queried device for every candidate room.
//!
//! ## Departures from §4
//!
//! Eq. 3 multiplies raw group affinities into the posterior, so one neighbor whose
//! region misses a candidate room would zero it even when the pair affinity (the
//! chance the devices are together at all) is small. Each neighbor instead folds in
//!
//! ```text
//! obs(r_j) = (1 − w·α_pair) / |R(g_x)|  +  w·α({d_i, d_k}, r_j, t_q)
//! ```
//!
//! — uniform with probability `1 − w·α_pair`, the group affinity otherwise — which is
//! monotone in the group affinity and is Eq. 3 as `w·α_pair → 1`. Four constants
//! depart from the published algorithm; `docs/PAPER_MAPPING.md` measures each, and
//! `tests/equivalence/support/paper.rs`, the naive §4 reference, takes them as switches:
//!
//! 1. the pair floor `MIN_PAIR_AFFINITY` (§4 folds in every positive pair affinity);
//! 2. the contributor cap `MAX_CONTRIBUTORS` (§4 stops only on its bounds or, in
//!    D-FINE, on a dead cluster);
//! 3. the evidence weight `EVIDENCE_WEIGHT`, the `w` above (§4 has `w = 1`);
//! 4. the neighbor cut `MAX_NEIGHBORS` (§4 processes every neighbor).
//!
//! The independent variant (`I-FINE`) treats neighbors as conditionally independent;
//! the dependent variant (`D-FINE`) clusters neighbors that are themselves co-located
//! and folds in one observation per cluster, computed from the cluster's joint device
//! affinity (Eq. 6).
//!
//! Both variants run as one loop over the neighbors. Each neighbor that passes the
//! contribution gate gets its pair group affinities and its [`NeighborContribution`]
//! computed once; the mode decides only three things: whether the contribution is
//! observed at once (I-FINE) or joins a cluster (D-FINE), whether the §4.2
//! possible-world bounds may stop the loop (I-FINE), and whether the clusters are
//! folded in after it (D-FINE).

use crate::cache::FinePlan;
use crate::fine::affinity::{
    AffinityEngine, ApRunsMemo, RoomAffinity, RoomAffinityMemo, RoomAffinityWeights,
};
use crate::fine::worlds::{stop_condition_met, PosteriorBounds, RoomPosterior};
use locater_events::clock::{self, Timestamp};
use locater_events::DeviceId;
use locater_space::{RegionId, RoomId};
use locater_store::EventRead;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Neighbors processed per query at most: bounds the worst-case work of one query.
const MAX_NEIGHBORS: usize = 25;
/// Least pair affinity that contributes: without it the cached affinity graph grows 9–14 %.
const MIN_PAIR_AFFINITY: f64 = 0.2;
/// Contributors folded in before the iteration stops: more lose up to 0.9 points.
const MAX_CONTRIBUTORS: usize = 2;
/// Share of same-AP co-location taken as same-room evidence: 1.0 loses up to 0.8 points.
const EVIDENCE_WEIGHT: f64 = 0.3;
/// Per-device group affinity assumed in the least-favourable possible world when
/// computing `minP` (Theorem 2 bound).
const MIN_UNPROCESSED_AFFINITY: f64 = 0.05;
/// Per-device group affinity assumed in the most-favourable possible world when
/// computing `maxP` (Theorem 1 bound).
const MAX_UNPROCESSED_AFFINITY: f64 = 0.8;

/// Which variant of Algorithm 2 to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum FineMode {
    /// `I-FINE`: neighbors are treated as conditionally independent (Eq. 3).
    #[default]
    Independent,
    /// `D-FINE`: neighbors that are co-located with each other form clusters, and each
    /// cluster contributes one joint observation (Eq. 6).
    Dependent,
}

impl std::fmt::Display for FineMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FineMode::Independent => write!(f, "I-FINE"),
            FineMode::Dependent => write!(f, "D-FINE"),
        }
    }
}

/// Configuration of the fine-grained localization algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FineConfig {
    /// Room-affinity weights (§4.1). Default: the paper's best combination `C2`.
    pub weights: RoomAffinityWeights,
    /// Independent or dependent neighbor handling. Default: independent.
    pub mode: FineMode,
    /// History window (ending at the query time) over which device affinities are
    /// computed. Default: 3 weeks (where Fig. 8 shows the fine precision plateaus).
    pub affinity_window: Timestamp,
    /// Whether to use the loosened early-stop conditions of §4.2. Disabling them makes
    /// the algorithm process every neighbor (the "no stop condition" line of Fig. 11).
    pub use_stop_conditions: bool,
}

impl Default for FineConfig {
    fn default() -> Self {
        Self {
            weights: RoomAffinityWeights::default(),
            mode: FineMode::Independent,
            affinity_window: clock::weeks(3),
            use_stop_conditions: true,
        }
    }
}

/// The contribution of one processed neighbor, reported for the caching engine (the
/// edge weights of the *local affinity graph*, §5) and for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeighborContribution {
    /// The neighbor device.
    pub device: DeviceId,
    /// Region the neighbor was located in at the query time.
    pub region: RegionId,
    /// Pairwise device affinity `α({d_i, d_k})` over the history window.
    pub pair_affinity: f64,
    /// Local-affinity-graph edge weight: mean group affinity over the candidate rooms,
    /// `Σ_j α({d_i, d_k}, r_j, t_q) / |R(g_x)|`.
    pub edge_weight: f64,
}

/// Result of fine-grained localization for one query.
#[derive(Debug, Clone, PartialEq)]
pub struct FineOutcome {
    /// The selected room (highest posterior probability).
    pub room: RoomId,
    /// The region the candidates were drawn from.
    pub region: RegionId,
    /// Posterior probability of every candidate room, normalized to sum to 1.
    pub probabilities: Vec<(RoomId, f64)>,
    /// Number of neighbor devices that were eligible for processing.
    pub neighbors_considered: usize,
    /// Number of neighbor devices actually processed before stopping.
    pub neighbors_processed: usize,
    /// `true` if the loosened stop conditions ended the iteration early.
    pub stopped_early: bool,
    /// Per-neighbor contributions (one entry per *processed* neighbor).
    pub contributions: Vec<NeighborContribution>,
}

impl FineOutcome {
    /// Posterior probability of the selected room.
    pub fn confidence(&self) -> f64 {
        self.probabilities
            .iter()
            .find(|(room, _)| *room == self.room)
            .map(|(_, p)| *p)
            .unwrap_or(0.0)
    }
}

/// The fine-grained localizer (Algorithm 2).
#[derive(Debug, Clone, Copy, Default)]
pub struct FineLocalizer {
    config: FineConfig,
}

impl FineLocalizer {
    /// Creates a localizer with the given configuration.
    pub fn new(config: FineConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &FineConfig {
        &self.config
    }

    /// The neighbor devices of `device` at `t_q` for candidates in `region`: devices
    /// online at `t_q` (a connectivity event of theirs is valid at `t_q`) whose region
    /// overlaps `region`. Reported with the region they are located in.
    pub fn candidate_neighbors(
        &self,
        store: &dyn EventRead,
        device: DeviceId,
        t_q: Timestamp,
        region: RegionId,
    ) -> Vec<(DeviceId, RegionId)> {
        store.devices_online_near(t_q, region, Some(device))
    }

    /// Runs Algorithm 2 for `Q = (device, t_q)` with candidate rooms `R(region)`.
    ///
    /// `preferred_order`, when given, lists neighbor devices in the order they should
    /// be processed (the caching engine passes the global-affinity-graph order here);
    /// eligible neighbors not in the list are processed last, in their natural order.
    pub fn locate(
        &self,
        store: &dyn EventRead,
        device: DeviceId,
        t_q: Timestamp,
        region: RegionId,
        preferred_order: Option<&[DeviceId]>,
    ) -> FineOutcome {
        let neighbors = self.candidate_neighbors(store, device, t_q, region);
        let plan = preferred_order.map(|order| FinePlan {
            order: order.to_vec(),
            cached: HashMap::new(),
        });
        self.locate_among(store, device, t_q, region, neighbors, plan.as_ref())
    }

    /// [`FineLocalizer::locate`] over `neighbors`, the result of
    /// [`FineLocalizer::candidate_neighbors`] for the same query, in the
    /// order of `plan` when one is given: a neighbor whose pair affinity the
    /// plan caches skips the history scan that would otherwise compute it
    /// (the caching engine of §5 builds the plan from the global affinity
    /// graph). Both variants run this one loop (see the [module
    /// docs](self)).
    pub(crate) fn locate_among(
        &self,
        store: &dyn EventRead,
        device: DeviceId,
        t_q: Timestamp,
        region: RegionId,
        mut neighbors: Vec<(DeviceId, RegionId)>,
        plan: Option<&FinePlan>,
    ) -> FineOutcome {
        let engine = AffinityEngine::new(store, self.config.weights, self.config.affinity_window);
        let candidates: Vec<RoomId> = store.space().rooms_in_region(region).to_vec();
        // One memo per query: the prior and every group member's distribution
        // are computed once (the queried device is in every group, so its
        // distribution is always a hit).
        let mut memo = RoomAffinityMemo::new();
        let prior = engine
            .room_affinities_memo(&mut memo, device, region)
            .clone();

        // Trivial cases: zero or one candidate room.
        if candidates.len() <= 1 {
            let room = candidates.first().copied().unwrap_or(RoomId::new(0));
            return FineOutcome {
                room,
                region,
                probabilities: candidates.iter().map(|&r| (r, 1.0)).collect(),
                neighbors_considered: 0,
                neighbors_processed: 0,
                stopped_early: false,
                contributions: Vec::new(),
            };
        }

        order_neighbors(&mut neighbors, plan.map(|plan| plan.order.as_slice()));
        neighbors.truncate(MAX_NEIGHBORS);

        // The contribution gate, one per query: a neighbor's pair affinity
        // (the cached value, else the queried device's session, built on
        // the first miss) contributes exactly when it reaches the (positive)
        // floor. An uncached pair goes through the session's floor test:
        // the exact merge, run only on the neighbor events that time cells
        // cannot rule out as partnerless, so its verdict and value are the
        // full merge's while most neighbor events cost one mask read.
        let session = std::cell::OnceCell::new();
        let gate = |neighbor: DeviceId| match plan.and_then(|plan| plan.cached.get(&neighbor)) {
            Some(&pair) => (pair >= MIN_PAIR_AFFINITY).then_some(pair),
            None => session
                .get_or_init(|| engine.pair_session(device, t_q))
                .affinity_at_least(neighbor, MIN_PAIR_AFFINITY),
        };
        let uniform_floor = 1.0 / candidates.len() as f64;
        let mut posteriors: Vec<RoomPosterior> = candidates
            .iter()
            .map(|&room| RoomPosterior::from_prior(prior.of(room)))
            .collect();
        let mut clusters = match self.config.mode {
            FineMode::Independent => None,
            FineMode::Dependent => Some(Clusters {
                runs: ApRunsMemo::new(t_q),
                list: Vec::new(),
            }),
        };
        let mut contributions = Vec::new();
        let mut processed = 0usize;
        let mut stopped_early = false;

        for (idx, &(neighbor, neighbor_region)) in neighbors.iter().enumerate() {
            processed += 1;
            if let Some(pair) = gate(neighbor) {
                let group = [(device, region), (neighbor, neighbor_region)];
                let alphas = engine.group_affinities(&mut memo, &group, &candidates, pair);
                contributions.push(NeighborContribution {
                    device: neighbor,
                    region: neighbor_region,
                    pair_affinity: pair,
                    edge_weight: alphas.iter().sum::<f64>() / candidates.len() as f64,
                });
                match clusters.as_mut() {
                    None => observe(&mut posteriors, &alphas, pair, uniform_floor),
                    // Paper: the dependent variant terminates when a cluster's
                    // joint group affinity collapses to zero. Only the joined
                    // cluster can have: every other one was alive at the last
                    // check, and its members have not changed since.
                    Some(clusters) => {
                        if clusters.join(&engine, device, (neighbor, neighbor_region)) <= 0.0 {
                            stopped_early = true;
                            break;
                        }
                    }
                }
                if self.config.use_stop_conditions && contributions.len() >= MAX_CONTRIBUTORS {
                    stopped_early = idx + 1 < neighbors.len();
                    break;
                }
            }
            let remaining = neighbors.len() - (idx + 1);
            if clusters.is_none() && self.config.use_stop_conditions && remaining > 0 {
                if let Some((leader, runner_up)) = top_two(&posteriors) {
                    let bounds = |posterior: &RoomPosterior| {
                        PosteriorBounds::compute(
                            posterior,
                            remaining,
                            MIN_UNPROCESSED_AFFINITY,
                            MAX_UNPROCESSED_AFFINITY,
                        )
                    };
                    if stop_condition_met(
                        &bounds(&posteriors[leader]),
                        &bounds(&posteriors[runner_up]),
                    ) {
                        stopped_early = true;
                        break;
                    }
                }
            }
        }

        // Fold one observation per cluster into the posterior (Eq. 6 analogue).
        for cluster in clusters.iter().flat_map(|clusters| &clusters.list) {
            let mut group = cluster.members.clone();
            group.push((device, region));
            let alphas = engine.group_affinities(&mut memo, &group, &candidates, cluster.joint);
            observe(&mut posteriors, &alphas, cluster.joint, uniform_floor);
        }

        let probabilities = normalize(&candidates, &posteriors, &prior);
        let room = select_room(&probabilities, &prior);
        FineOutcome {
            room,
            region,
            probabilities,
            neighbors_considered: neighbors.len(),
            neighbors_processed: processed,
            stopped_early,
            contributions,
        }
    }
}

/// Folds one observation per candidate room into the posterior: the group
/// affinity `alpha` of the room, evidence-weighted over the uniform floor by
/// the group's device `affinity`.
fn observe(posteriors: &mut [RoomPosterior], alphas: &[f64], affinity: f64, uniform_floor: f64) {
    for (posterior, &alpha) in posteriors.iter_mut().zip(alphas) {
        let observation =
            ((1.0 - EVIDENCE_WEIGHT * affinity) * uniform_floor + EVIDENCE_WEIGHT * alpha).min(1.0);
        posterior.observe(observation);
    }
}

/// D-FINE's clusters of co-located contributors (Eq. 6), in the order they
/// were formed.
struct Clusters {
    /// Every affinity here reads the window ending at the query time: each
    /// device's runs are built once.
    runs: ApRunsMemo,
    list: Vec<Cluster>,
}

/// One D-FINE cluster: its members in joining order, and their joint device
/// affinity with the queried device. At the query's fixed window the joint
/// affinity is a pure function of the members, so it is computed only when
/// they change.
struct Cluster {
    members: Vec<(DeviceId, RegionId)>,
    joint: f64,
}

impl Clusters {
    /// Attaches `neighbor` to every cluster holding a device it is co-located
    /// with, merging those clusters into the first (or opens a cluster of its
    /// own), and returns the joint affinity of the cluster it ends up in —
    /// the only cluster whose joint affinity changed.
    fn join(
        &mut self,
        engine: &AffinityEngine<'_>,
        device: DeviceId,
        neighbor: (DeviceId, RegionId),
    ) -> f64 {
        // One session groups the neighbor's events by AP once for every member.
        let mut linked: Vec<usize> = Vec::new();
        if !self.list.is_empty() {
            let session = engine.pair_session_memo(&mut self.runs, neighbor.0);
            let co_located = |members: &[(DeviceId, RegionId)]| {
                members
                    .iter()
                    .any(|&(member, _)| session.affinity(member) > 0.0)
            };
            linked.extend((0..self.list.len()).filter(|&idx| co_located(&self.list[idx].members)));
        }
        let changed = match linked.split_first() {
            None => {
                self.list.push(Cluster {
                    members: vec![neighbor],
                    joint: 0.0,
                });
                self.list.len() - 1
            }
            Some((&first, rest)) => {
                self.list[first].members.push(neighbor);
                // Merge the remaining linked clusters into the first, back to
                // front so the indices stay valid.
                for &other in rest.iter().rev() {
                    let merged = self.list.remove(other);
                    self.list[first].members.extend(merged.members);
                }
                first
            }
        };
        let cluster = &mut self.list[changed];
        let mut members: Vec<DeviceId> = cluster.members.iter().map(|&(d, _)| d).collect();
        members.push(device);
        cluster.joint = engine.device_affinity_memo(&mut self.runs, &members);
        cluster.joint
    }
}

/// Reorders `neighbors` so that the devices listed in `preferred_order` come first, in
/// that order; other neighbors keep their relative order after them.
fn order_neighbors(neighbors: &mut [(DeviceId, RegionId)], preferred_order: Option<&[DeviceId]>) {
    let Some(order) = preferred_order else {
        return;
    };
    // A device's rank is its first position in `order`.
    let mut rank: HashMap<DeviceId, usize> = HashMap::with_capacity(order.len());
    for (idx, &device) in order.iter().enumerate() {
        rank.entry(device).or_insert(idx);
    }
    neighbors.sort_by_key(|(device, _)| rank.get(device).copied().unwrap_or(order.len()));
}

/// The indices of the two rooms with the highest current posterior, if at least two
/// candidates exist.
fn top_two(posteriors: &[RoomPosterior]) -> Option<(usize, usize)> {
    if posteriors.len() < 2 {
        return None;
    }
    let mut best = 0usize;
    let mut second = 1usize;
    if posteriors[second].probability() > posteriors[best].probability() {
        std::mem::swap(&mut best, &mut second);
    }
    for idx in 2..posteriors.len() {
        let p = posteriors[idx].probability();
        if p > posteriors[best].probability() {
            second = best;
            best = idx;
        } else if p > posteriors[second].probability() {
            second = idx;
        }
    }
    Some((best, second))
}

/// Normalizes the posteriors into a probability distribution over the candidate
/// rooms. If every posterior collapsed to zero, falls back to the prior.
fn normalize(
    candidates: &[RoomId],
    posteriors: &[RoomPosterior],
    prior: &RoomAffinity,
) -> Vec<(RoomId, f64)> {
    let raw: Vec<f64> = posteriors.iter().map(RoomPosterior::probability).collect();
    let total: f64 = raw.iter().sum();
    if total <= 0.0 {
        return candidates.iter().map(|&r| (r, prior.of(r))).collect();
    }
    candidates
        .iter()
        .zip(raw)
        .map(|(&room, p)| (room, p / total))
        .collect()
}

/// Picks the room with the highest probability, breaking ties in favour of the higher
/// prior affinity and then the lower room id (deterministic).
fn select_room(probabilities: &[(RoomId, f64)], prior: &RoomAffinity) -> RoomId {
    probabilities
        .iter()
        .max_by(|(ra, pa), (rb, pb)| {
            pa.partial_cmp(pb)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| {
                    prior
                        .of(*ra)
                        .partial_cmp(&prior.of(*rb))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .then_with(|| rb.cmp(ra))
        })
        .map(|(room, _)| *room)
        .unwrap_or(RoomId::new(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use locater_space::{RoomType, Space, SpaceBuilder};
    use locater_store::EventStore;

    /// Fig. 1 / Fig. 3 style space: one AP region with an office per device plus a
    /// shared meeting room.
    fn space() -> Space {
        SpaceBuilder::new("fine-test")
            .add_access_point("wap3", &["2059", "2061", "2065", "2069", "2099"])
            .add_access_point("wap2", &["2059", "2061", "2065", "2004"])
            .room_type("2065", RoomType::Public)
            .room_owner("2061", "d1")
            .room_owner("2059", "d2")
            .build()
            .unwrap()
    }

    /// d1 and d2 co-located on wap3 every morning for `days` days; the query day has
    /// both online at 10:00.
    fn colocated_store(days: i64) -> EventStore {
        let mut store = EventStore::new(space());
        for day in 0..days {
            for slot in 0..6 {
                let t = clock::at(day, 9, slot * 10, 0);
                store.ingest_raw("d1", t, "wap3").unwrap();
                store.ingest_raw("d2", t + 30, "wap3").unwrap();
            }
        }
        store
    }

    #[test]
    fn no_neighbors_falls_back_to_room_affinity() {
        let mut store = EventStore::new(space());
        store.ingest_raw("d1", 1_000, "wap3").unwrap();
        let d1 = store.device_id("d1").unwrap();
        let g3 = store.space().ap_id("wap3").unwrap().region();
        let localizer = FineLocalizer::default();
        let out = localizer.locate(&store, d1, 1_100, g3, None);
        // d1's office 2061 has the highest prior.
        assert_eq!(out.room, store.space().room_id("2061").unwrap());
        assert_eq!(out.neighbors_considered, 0);
        assert_eq!(out.neighbors_processed, 0);
        assert!(!out.stopped_early);
        let total: f64 = out.probabilities.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(out.confidence() > 0.0);
    }

    #[test]
    fn single_candidate_region_is_trivial() {
        let space = SpaceBuilder::new("single")
            .add_access_point("wap0", &["only"])
            .build()
            .unwrap();
        let mut store = EventStore::new(space);
        store.ingest_raw("d1", 1_000, "wap0").unwrap();
        let d1 = store.device_id("d1").unwrap();
        let g0 = store.space().ap_id("wap0").unwrap().region();
        let out = FineLocalizer::default().locate(&store, d1, 1_000, g0, None);
        assert_eq!(out.room, store.space().room_id("only").unwrap());
        assert_eq!(out.probabilities.len(), 1);
    }

    #[test]
    fn colocated_neighbor_is_processed_and_contributes() {
        let store = colocated_store(10);
        let d1 = store.device_id("d1").unwrap();
        let d2 = store.device_id("d2").unwrap();
        let g3 = store.space().ap_id("wap3").unwrap().region();
        let t_q = clock::at(9, 9, 30, 10);
        let localizer = FineLocalizer::default();
        let out = localizer.locate(&store, d1, t_q, g3, None);
        assert_eq!(out.neighbors_considered, 1);
        assert_eq!(out.neighbors_processed, 1);
        assert_eq!(out.contributions.len(), 1);
        let contribution = out.contributions[0];
        assert_eq!(contribution.device, d2);
        assert!(contribution.pair_affinity > 0.5);
        assert!(contribution.edge_weight > 0.0);
        // The answer is one of the candidate rooms of g3.
        assert!(store.space().rooms_in_region(g3).contains(&out.room));
    }

    #[test]
    fn strong_colocation_shifts_mass_toward_shared_rooms() {
        // Fig. 3's narrative: d2 being online raises the chance of the rooms the two
        // devices could share. Relative to an arbitrary private room, the shared
        // public room 2065 must gain posterior mass compared to its prior ratio.
        let store = colocated_store(10);
        let d1 = store.device_id("d1").unwrap();
        let g3 = store.space().ap_id("wap3").unwrap().region();
        let meeting = store.space().room_id("2065").unwrap();
        let other_private = store.space().room_id("2099").unwrap();
        let t_q = clock::at(9, 9, 30, 10);
        let localizer = FineLocalizer::default();

        let engine = AffinityEngine::new(&store, RoomAffinityWeights::default(), clock::weeks(3));
        let prior = engine.room_affinities(d1, g3);
        let prior_ratio = prior.of(meeting) / prior.of(other_private);

        let out = localizer.locate(&store, d1, t_q, g3, None);
        assert_eq!(
            out.contributions.len(),
            1,
            "the co-located neighbor must contribute"
        );
        let posterior_of = |room| {
            out.probabilities
                .iter()
                .find(|(r, _)| *r == room)
                .map(|(_, p)| *p)
                .unwrap()
        };
        let posterior_ratio = posterior_of(meeting) / posterior_of(other_private);
        assert!(
            posterior_ratio > prior_ratio,
            "shared-room odds should improve: prior {prior_ratio} vs posterior {posterior_ratio}"
        );
    }

    #[test]
    fn dependent_mode_also_answers_with_candidate_room() {
        let store = colocated_store(10);
        let d1 = store.device_id("d1").unwrap();
        let g3 = store.space().ap_id("wap3").unwrap().region();
        let t_q = clock::at(9, 9, 30, 10);
        let localizer = FineLocalizer::new(FineConfig {
            mode: FineMode::Dependent,
            ..FineConfig::default()
        });
        let out = localizer.locate(&store, d1, t_q, g3, None);
        assert!(store.space().rooms_in_region(g3).contains(&out.room));
        assert_eq!(out.neighbors_processed, 1);
        let total: f64 = out.probabilities.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn both_modes_report_stopping_at_the_contributor_cap() {
        // d2, d3 and d4 are all co-located with d1; with `MAX_CONTRIBUTORS`
        // (two) contributors allowed, each mode stops after d3 with d4 left
        // unprocessed.
        let mut store = colocated_store(10);
        for (mac, second) in [("d3", 45), ("d4", 50)] {
            for day in 0..10 {
                for slot in 0..6 {
                    let t = clock::at(day, 9, slot * 10, second);
                    store.ingest_raw(mac, t, "wap3").unwrap();
                }
            }
        }
        let d1 = store.device_id("d1").unwrap();
        let g3 = store.space().ap_id("wap3").unwrap().region();
        let t_q = clock::at(9, 9, 30, 10);
        for mode in [FineMode::Independent, FineMode::Dependent] {
            let localizer = FineLocalizer::new(FineConfig {
                mode,
                ..FineConfig::default()
            });
            let out = localizer.locate(&store, d1, t_q, g3, None);
            assert_eq!(out.neighbors_considered, 3, "{mode}");
            assert_eq!(out.neighbors_processed, 2, "{mode}");
            assert_eq!(out.contributions.len(), 2, "{mode}");
            assert!(out.stopped_early, "{mode} stopped with a neighbor left");
        }
    }

    #[test]
    fn stop_conditions_reduce_processed_neighbors() {
        // Many neighbors with no co-location history: the early-stop bounds should
        // terminate before processing all of them, while the no-stop variant
        // processes every neighbor.
        let mut store = EventStore::new(space());
        for day in 0..5 {
            for slot in 0..6 {
                store
                    .ingest_raw("d1", clock::at(day, 9, slot * 10, 0), "wap3")
                    .unwrap();
            }
        }
        let t_q = clock::at(4, 9, 25, 0);
        for i in 0..15 {
            store
                .ingest_raw(&format!("bystander-{i}"), t_q - 60, "wap3")
                .unwrap();
        }
        let d1 = store.device_id("d1").unwrap();
        let g3 = store.space().ap_id("wap3").unwrap().region();

        let with_stop = FineLocalizer::new(FineConfig::default());
        let without_stop = FineLocalizer::new(FineConfig {
            use_stop_conditions: false,
            ..FineConfig::default()
        });
        let a = with_stop.locate(&store, d1, t_q, g3, None);
        let b = without_stop.locate(&store, d1, t_q, g3, None);
        assert_eq!(b.neighbors_processed, b.neighbors_considered);
        assert!(a.neighbors_processed <= b.neighbors_processed);
        assert!(a.stopped_early || a.neighbors_processed == a.neighbors_considered);
        // Both must agree on the answer here (bystanders carry no affinity).
        assert_eq!(a.room, b.room);
    }

    #[test]
    fn preferred_order_is_respected() {
        let mut store = EventStore::new(space());
        store.ingest_raw("d1", 1_000, "wap3").unwrap();
        store.ingest_raw("n1", 1_000, "wap3").unwrap();
        store.ingest_raw("n2", 1_000, "wap3").unwrap();
        store.ingest_raw("n3", 1_000, "wap2").unwrap();
        let d1 = store.device_id("d1").unwrap();
        let n2 = store.device_id("n2").unwrap();
        let n3 = store.device_id("n3").unwrap();
        let g3 = store.space().ap_id("wap3").unwrap().region();
        let localizer = FineLocalizer::default();
        let mut neighbors = localizer.candidate_neighbors(&store, d1, 1_000, g3);
        assert_eq!(neighbors.len(), 3);
        order_neighbors(&mut neighbors, Some(&[n3, n2]));
        assert_eq!(neighbors[0].0, n3);
        assert_eq!(neighbors[1].0, n2);
    }

    #[test]
    fn max_neighbors_caps_processing() {
        let mut store = EventStore::new(space());
        store.ingest_raw("d1", 1_000, "wap3").unwrap();
        for i in 0..MAX_NEIGHBORS + 5 {
            store.ingest_raw(&format!("n{i}"), 1_000, "wap3").unwrap();
        }
        let d1 = store.device_id("d1").unwrap();
        let g3 = store.space().ap_id("wap3").unwrap().region();
        let localizer = FineLocalizer::new(FineConfig {
            use_stop_conditions: false,
            ..FineConfig::default()
        });
        assert_eq!(
            localizer.candidate_neighbors(&store, d1, 1_000, g3).len(),
            MAX_NEIGHBORS + 5
        );
        let out = localizer.locate(&store, d1, 1_000, g3, None);
        assert_eq!(out.neighbors_considered, MAX_NEIGHBORS);
        assert_eq!(out.neighbors_processed, MAX_NEIGHBORS);
    }

    #[test]
    fn top_two_finds_leader_and_runner_up() {
        let posteriors = vec![
            RoomPosterior::from_prior(0.1),
            RoomPosterior::from_prior(0.6),
            RoomPosterior::from_prior(0.3),
        ];
        let (best, second) = top_two(&posteriors).unwrap();
        assert_eq!(best, 1);
        assert_eq!(second, 2);
        assert!(top_two(&posteriors[..1]).is_none());
    }

    #[test]
    fn fine_mode_display_names_match_paper() {
        assert_eq!(FineMode::Independent.to_string(), "I-FINE");
        assert_eq!(FineMode::Dependent.to_string(), "D-FINE");
        assert_eq!(FineMode::default(), FineMode::Independent);
    }
}
