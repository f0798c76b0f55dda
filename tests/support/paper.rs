//! A naive Algorithm 2 (§4): the reference the fine step is checked against,
//! bit for bit.
//!
//! Each quantity is restated from its definition in the docs of
//! `locater_core::fine::{affinity, algorithm, worlds}`, one at a time and in
//! the floating-point order those definitions write them in. Nothing is
//! memoized, reused across neighbours, grouped by access point, cached or
//! read off the global timeline: every affinity is recomputed from
//! per-device event scans each time it is needed.
//!
//! * [`device_affinity`] — `α(D)` (§4.1): the share of the members' window
//!   events at which every other member has an event on the same access point
//!   within the event's δ.
//! * [`room_affinity`] — `α(d, r_j)` (§4.1): the preferred, public and
//!   private rooms of the region share `w_pf`, `w_pb` and `w_pr` equally,
//!   empty partitions left out and the rest renormalized.
//! * [`group_affinity`] — `α(D, r_j)` (Eq. 1): `α(D)` times each member's
//!   room affinity conditioned on the intersection `R_is`, zero outside it.
//! * [`locate`] — I-FINE folds one observation per neighbour into Eq. 3's
//!   posterior and stops on the §4.2 possible-world bounds (Theorems 1–3);
//!   D-FINE grows clusters of mutually co-located neighbours, stops when a
//!   cluster's joint affinity is zero, and folds one observation per cluster
//!   (Eq. 6).
//!
//! Where production departs from §4 the departure is a field of
//! [`Deviations`]; [`Deviations::PRODUCTION`] holds the values the fine step
//! runs with (`docs/PAPER_MAPPING.md` measures each one).

use locater::core::fine::RoomAffinityWeights;
use locater::core::fine::{FineConfig, FineMode, FineOutcome, NeighborContribution};
use locater::events::Interval;
use locater::prelude::*;
use locater_store::EventRead;

/// The four places the production fine step departs from §4.
#[derive(Debug, Clone, Copy)]
pub struct Deviations {
    /// A neighbour contributes only if its pair affinity reaches this floor
    /// (§4: any positive pair affinity contributes).
    pub pair_floor: f64,
    /// With the stop conditions on, the iteration ends once this many
    /// neighbours have contributed (§4: no such stop).
    pub max_contributors: usize,
    /// The weight `w` of each observation `(1 − w·α_pair)·(1/|R|) + w·α`
    /// (§4: `w = 1`).
    pub evidence_weight: f64,
    /// Only the first this many neighbours in processing order are eligible
    /// (§4: all of them).
    pub max_neighbors: usize,
}

impl Deviations {
    /// The values the fine step runs with.
    pub const PRODUCTION: Self = Self {
        pair_floor: 0.2,
        max_contributors: 2,
        evidence_weight: 0.3,
        max_neighbors: 25,
    };
}

/// The per-neighbour group affinities Algorithm 2 assumes for the unprocessed
/// neighbours in the least and most favourable possible worlds (§4.2).
const WORST_WORLD_AFFINITY: f64 = 0.05;
const BEST_WORLD_AFFINITY: f64 = 0.8;

/// `α(D)` over the `window` seconds ending at `until` (§4.1): per member, a
/// scan of its window events, each probed by a scan of every other member's
/// events within the member's δ of it for one on the same access point.
pub fn device_affinity(
    store: &dyn EventRead,
    devices: &[DeviceId],
    until: i64,
    window: i64,
) -> f64 {
    if devices.len() < 2 {
        return 0.0;
    }
    let window = Interval::new(until - window, until + 1);
    let (mut total, mut intersecting) = (0usize, 0usize);
    for &device in devices {
        let delta = store.delta(device);
        for event in store.events_of_in(device, window) {
            total += 1;
            let near = Interval::new(event.t() - delta, event.t() + delta + 1);
            let all_present = devices.iter().filter(|&&d| d != device).all(|&other| {
                store
                    .events_of_in(other, near)
                    .any(|e| e.ap() == event.ap())
            });
            intersecting += usize::from(all_present);
        }
    }
    if total == 0 {
        0.0
    } else {
        intersecting as f64 / total as f64
    }
}

/// `α(d, r_j)` for every candidate room of `region` (§4.1), in the region's
/// room order.
pub fn room_affinity(
    store: &dyn EventRead,
    weights: RoomAffinityWeights,
    device: DeviceId,
    region: RegionId,
) -> Vec<(RoomId, f64)> {
    let space = store.space();
    let (preferred, public, private) =
        space.partition_candidates(store.device(device).mac.as_str(), region);
    let partitions = [
        (preferred, weights.preferred),
        (public, weights.public),
        (private, weights.private),
    ];
    let mass: f64 = partitions
        .iter()
        .filter(|(rooms, _)| !rooms.is_empty())
        .map(|&(_, weight)| weight)
        .sum();
    space
        .rooms_in_region(region)
        .iter()
        .map(|&room| {
            let (rooms, weight) = partitions
                .iter()
                .find(|(rooms, _)| rooms.contains(&room))
                .expect("every candidate room is in one partition");
            (room, weight / mass / rooms.len() as f64)
        })
        .collect()
}

/// The affinity of `room` in a distribution, 0 for a room outside it.
fn of(affinity: &[(RoomId, f64)], room: RoomId) -> f64 {
    affinity
        .iter()
        .find(|&&(r, _)| r == room)
        .map_or(0.0, |&(_, a)| a)
}

/// `α(D, r_j)` (Eq. 1) for the devices of `group`, each in the region it is
/// placed in, given their device affinity: `α(D) × Π_d P(@(d, r_j) | @(d,
/// R_is))` inside the intersection `R_is` of the regions, 0 outside it. A
/// member with no mass on `R_is` is uniform over it.
pub fn group_affinity(
    store: &dyn EventRead,
    weights: RoomAffinityWeights,
    group: &[(DeviceId, RegionId)],
    room: RoomId,
    device_affinity: f64,
) -> f64 {
    let space = store.space();
    let Some(&(_, first)) = group.first() else {
        return 0.0;
    };
    if device_affinity <= 0.0 {
        return 0.0;
    }
    let intersection: Vec<RoomId> = space
        .rooms_in_region(first)
        .iter()
        .copied()
        .filter(|r| {
            group
                .iter()
                .all(|&(_, g)| space.rooms_in_region(g).contains(r))
        })
        .collect();
    if !intersection.contains(&room) {
        return 0.0;
    }
    let mut probability = device_affinity;
    for &(device, region) in group {
        let affinity = room_affinity(store, weights, device, region);
        let mass: f64 = intersection.iter().map(|&r| of(&affinity, r)).sum();
        probability *= if mass <= 0.0 {
            1.0 / intersection.len() as f64
        } else {
            of(&affinity, room) / mass
        };
    }
    probability
}

/// The neighbours of `device` at `t_q` for candidates in `region`: every
/// other device with an event whose validity covers `t_q`, in a region
/// sharing a room with `region`, ordered by their first event within the
/// largest δ of `t_q` (time, then device id).
fn neighbors(
    store: &dyn EventRead,
    device: DeviceId,
    t_q: i64,
    region: RegionId,
) -> Vec<(DeviceId, RegionId)> {
    let space = store.space();
    let slack = store.max_delta();
    let probe = Interval::new(t_q - slack, t_q + slack + 1);
    let mut found: Vec<(i64, DeviceId, RegionId)> = (0..store.num_devices() as u32)
        .map(DeviceId::new)
        .filter(|&other| other != device)
        .filter_map(|other| {
            let other_region = store.covering_region(other, t_q)?;
            let shares_a_room = space
                .rooms_in_region(region)
                .iter()
                .any(|r| space.rooms_in_region(other_region).contains(r));
            let first = store.events_of_in(other, probe).next()?.t();
            shares_a_room.then_some((first, other, other_region))
        })
        .collect();
    found.sort_by_key(|&(first, other, _)| (first, other));
    found
        .into_iter()
        .map(|(_, other, other_region)| (other, other_region))
        .collect()
}

/// One room's Eq. 3 posterior as its two products: `support = P(r_j)·Π α`
/// and `against = (1 − P(r_j))·Π (1 − α)` over the folded observations.
#[derive(Clone, Copy)]
struct Posterior {
    support: f64,
    against: f64,
}

impl Posterior {
    fn new(prior: f64) -> Self {
        let prior = prior.clamp(0.0, 1.0);
        Self {
            support: prior,
            against: 1.0 - prior,
        }
    }

    fn observe(&mut self, observation: f64) {
        let alpha = observation.clamp(0.0, 1.0);
        self.support *= alpha;
        self.against *= 1.0 - alpha;
    }

    fn probability(self) -> f64 {
        let total = self.support + self.against;
        if total <= 0.0 {
            0.0
        } else {
            self.support / total
        }
    }

    /// The posterior in the possible world where each of `unprocessed`
    /// neighbours observes `alpha` (Theorems 1 and 2).
    fn in_world(self, alpha: f64, unprocessed: usize) -> f64 {
        Self {
            support: self.support * alpha.powi(unprocessed as i32),
            against: self.against * (1.0 - alpha).powi(unprocessed as i32),
        }
        .probability()
    }

    /// `(minP, expP, maxP)` over the possible worlds of `unprocessed`
    /// neighbours; `expP` is the current posterior (Theorem 3).
    fn bounds(self, unprocessed: usize) -> (f64, f64, f64) {
        let expected = self.probability();
        (
            self.in_world(WORST_WORLD_AFFINITY, unprocessed)
                .min(expected),
            expected,
            self.in_world(BEST_WORLD_AFFINITY, unprocessed)
                .max(expected),
        )
    }
}

/// The loosened stop conditions of §4.2 on the leading room `a` and the
/// runner-up `b`: `minP(a) ≥ expP(b)` or `expP(a) ≥ maxP(b)`.
fn may_stop(posteriors: &[Posterior], unprocessed: usize) -> bool {
    let mut ranked: Vec<usize> = (0..posteriors.len()).collect();
    ranked.sort_by(|&x, &y| {
        let (px, py) = (posteriors[x].probability(), posteriors[y].probability());
        py.partial_cmp(&px).expect("posteriors are numbers")
    });
    let (a_min, a_exp, _) = posteriors[ranked[0]].bounds(unprocessed);
    let (_, b_exp, b_max) = posteriors[ranked[1]].bounds(unprocessed);
    a_min >= b_exp || a_exp >= b_max
}

/// Runs Algorithm 2 for `Q = (device, t_q)` with candidate rooms
/// `R(region)`, under `config`'s mode, weights, window and stop switch and
/// the given deviations from §4.
pub fn locate(
    store: &dyn EventRead,
    config: &FineConfig,
    deviations: &Deviations,
    device: DeviceId,
    t_q: i64,
    region: RegionId,
) -> FineOutcome {
    let rooms = store.space().rooms_in_region(region).to_vec();
    if rooms.len() <= 1 {
        return FineOutcome {
            room: rooms.first().copied().unwrap_or(RoomId::new(0)),
            region,
            probabilities: rooms.iter().map(|&r| (r, 1.0)).collect(),
            neighbors_considered: 0,
            neighbors_processed: 0,
            stopped_early: false,
            contributions: Vec::new(),
        };
    }
    let weights = config.weights;
    let window = config.affinity_window;
    let prior = room_affinity(store, weights, device, region);
    let mut neighbors = neighbors(store, device, t_q, region);
    neighbors.truncate(deviations.max_neighbors);

    // Each observation: the evidence-weighted affinity over a uniform floor.
    let uniform = 1.0 / rooms.len() as f64;
    let w = deviations.evidence_weight;
    let observation = |pair: f64, alpha: f64| ((1.0 - w * pair) * uniform + w * alpha).min(1.0);
    // The group affinities of `group` over the candidate rooms.
    let alphas = |group: &[(DeviceId, RegionId)], affinity: f64| -> Vec<f64> {
        rooms
            .iter()
            .map(|&room| group_affinity(store, weights, group, room, affinity))
            .collect()
    };
    let contribution = |neighbor: DeviceId, neighbor_region: RegionId, pair: f64| {
        let group = [(device, region), (neighbor, neighbor_region)];
        NeighborContribution {
            device: neighbor,
            region: neighbor_region,
            pair_affinity: pair,
            edge_weight: alphas(&group, pair).iter().sum::<f64>() / rooms.len() as f64,
        }
    };
    let mut posteriors: Vec<Posterior> = rooms
        .iter()
        .map(|&room| Posterior::new(of(&prior, room)))
        .collect();
    let mut contributions = Vec::new();
    let mut processed = 0;
    let mut stopped_early = false;
    let capped = |contributed: usize| {
        config.use_stop_conditions && contributed >= deviations.max_contributors
    };

    match config.mode {
        FineMode::Independent => {
            for (i, &(neighbor, neighbor_region)) in neighbors.iter().enumerate() {
                processed = i + 1;
                let pair = device_affinity(store, &[device, neighbor], t_q, window);
                if pair > 0.0 && pair >= deviations.pair_floor {
                    let group = [(device, region), (neighbor, neighbor_region)];
                    for (posterior, alpha) in posteriors.iter_mut().zip(alphas(&group, pair)) {
                        posterior.observe(observation(pair, alpha));
                    }
                    contributions.push(contribution(neighbor, neighbor_region, pair));
                    if capped(contributions.len()) {
                        stopped_early = processed < neighbors.len();
                        break;
                    }
                }
                let unprocessed = neighbors.len() - processed;
                if config.use_stop_conditions
                    && unprocessed > 0
                    && may_stop(&posteriors, unprocessed)
                {
                    stopped_early = true;
                    break;
                }
            }
        }
        FineMode::Dependent => {
            let joint = |cluster: &[(DeviceId, RegionId)]| {
                let mut members: Vec<DeviceId> = cluster.iter().map(|&(d, _)| d).collect();
                members.push(device);
                device_affinity(store, &members, t_q, window)
            };
            let mut clusters: Vec<Vec<(DeviceId, RegionId)>> = Vec::new();
            for (i, &(neighbor, neighbor_region)) in neighbors.iter().enumerate() {
                processed = i + 1;
                let pair = device_affinity(store, &[device, neighbor], t_q, window);
                if !(pair > 0.0 && pair >= deviations.pair_floor) {
                    continue;
                }
                contributions.push(contribution(neighbor, neighbor_region, pair));
                // The neighbour joins every cluster holding a device it is
                // co-located with; those clusters merge into the first.
                let linked: Vec<usize> = (0..clusters.len())
                    .filter(|&c| {
                        clusters[c].iter().any(|&(member, _)| {
                            device_affinity(store, &[neighbor, member], t_q, window) > 0.0
                        })
                    })
                    .collect();
                match linked.split_first() {
                    None => clusters.push(vec![(neighbor, neighbor_region)]),
                    Some((&first, rest)) => {
                        clusters[first].push((neighbor, neighbor_region));
                        for &other in rest.iter().rev() {
                            let merged = clusters.remove(other);
                            clusters[first].extend(merged);
                        }
                    }
                }
                if clusters.iter().any(|cluster| joint(cluster) <= 0.0) {
                    stopped_early = true;
                    break;
                }
                if capped(contributions.len()) {
                    stopped_early = processed < neighbors.len();
                    break;
                }
            }
            for cluster in &clusters {
                let affinity = joint(cluster);
                let mut group = cluster.clone();
                group.push((device, region));
                for (posterior, alpha) in posteriors.iter_mut().zip(alphas(&group, affinity)) {
                    posterior.observe(observation(affinity, alpha));
                }
            }
        }
    }

    // Normalize (the prior again if every posterior collapsed), then pick the
    // most probable room: ties go to the higher prior, then the lower id.
    let total: f64 = posteriors.iter().map(|p| p.probability()).sum();
    let probabilities: Vec<(RoomId, f64)> = rooms
        .iter()
        .zip(&posteriors)
        .map(|(&room, p)| {
            let probability = if total <= 0.0 {
                of(&prior, room)
            } else {
                p.probability() / total
            };
            (room, probability)
        })
        .collect();
    let mut best = probabilities[0];
    for &(room, p) in &probabilities[1..] {
        let (best_room, best_p) = best;
        let better = p > best_p
            || (p == best_p
                && (of(&prior, room) > of(&prior, best_room)
                    || (of(&prior, room) == of(&prior, best_room) && room < best_room)));
        if better {
            best = (room, p);
        }
    }
    FineOutcome {
        room: best.0,
        region,
        probabilities,
        neighbors_considered: neighbors.len(),
        neighbors_processed: processed,
        stopped_early,
        contributions,
    }
}

/// An outcome with every float as its bits, so that `==` on two of them is
/// bit equality.
pub type OutcomeBits = (
    RoomId,
    RegionId,
    Vec<(RoomId, u64)>,
    Vec<(DeviceId, RegionId, u64, u64)>,
    usize,
    usize,
    bool,
);

/// [`OutcomeBits`] of `outcome`.
pub fn bits(outcome: &FineOutcome) -> OutcomeBits {
    (
        outcome.room,
        outcome.region,
        outcome
            .probabilities
            .iter()
            .map(|&(room, p)| (room, p.to_bits()))
            .collect(),
        outcome
            .contributions
            .iter()
            .map(|c| {
                (
                    c.device,
                    c.region,
                    c.pair_affinity.to_bits(),
                    c.edge_weight.to_bits(),
                )
            })
            .collect(),
        outcome.neighbors_considered,
        outcome.neighbors_processed,
        outcome.stopped_early,
    )
}
