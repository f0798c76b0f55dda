//! Room, device and group affinities (paper §4.1).

use locater_events::clock::Timestamp;
use locater_events::{DeviceId, Interval};
use locater_space::{RegionId, RoomId};
use locater_store::{DevicePostings, EventRead, PostingCursor};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The three room-affinity weights of §4.1: preferred (`w_pf`), public (`w_pb`) and
/// private (`w_pr`) rooms. They must be strictly ordered `w_pf > w_pb > w_pr` and sum
/// to 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoomAffinityWeights {
    /// Weight of the device's preferred rooms (`w_pf`).
    pub preferred: f64,
    /// Weight of public rooms (`w_pb`).
    pub public: f64,
    /// Weight of private, non-preferred rooms (`w_pr`).
    pub private: f64,
}

impl RoomAffinityWeights {
    /// The paper's combination `C1 = {0.7, 0.2, 0.1}`.
    pub const C1: Self = Self {
        preferred: 0.7,
        public: 0.2,
        private: 0.1,
    };
    /// The paper's combination `C2 = {0.6, 0.3, 0.1}` (slightly best in Table 2).
    pub const C2: Self = Self {
        preferred: 0.6,
        public: 0.3,
        private: 0.1,
    };
    /// The paper's combination `C3 = {0.5, 0.3, 0.2}` (the one in the running example).
    pub const C3: Self = Self {
        preferred: 0.5,
        public: 0.3,
        private: 0.2,
    };
    /// The paper's combination `C4 = {0.5, 0.4, 0.1}`.
    pub const C4: Self = Self {
        preferred: 0.5,
        public: 0.4,
        private: 0.1,
    };

    /// All four combinations evaluated in Table 2, in order.
    pub const TABLE2: [Self; 4] = [Self::C1, Self::C2, Self::C3, Self::C4];

    /// Creates weights, validating the ordering and normalization constraints of §4.1.
    pub fn new(preferred: f64, public: f64, private: f64) -> Result<Self, String> {
        if !(preferred > public && public > private && private > 0.0) {
            return Err(format!(
                "room affinity weights must satisfy w_pf > w_pb > w_pr > 0, got ({preferred}, {public}, {private})"
            ));
        }
        if ((preferred + public + private) - 1.0).abs() > 1e-9 {
            return Err(format!(
                "room affinity weights must sum to 1, got {}",
                preferred + public + private
            ));
        }
        Ok(Self {
            preferred,
            public,
            private,
        })
    }
}

impl Default for RoomAffinityWeights {
    fn default() -> Self {
        Self::C2
    }
}

/// The partition a candidate room falls into for one device (§4.1), in the
/// precedence order of [`locater_space::Space::partition_candidates`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Partition {
    Preferred,
    Public,
    Private,
}

/// The room-affinity distribution of one device over the candidate rooms of a region:
/// `α(d_i, r_j, t_q)` for every `r_j ∈ R(g_x)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoomAffinity {
    /// Candidate rooms, in the order of [`locater_space::Space::rooms_in_region`].
    pub rooms: Vec<RoomId>,
    /// Affinity of each candidate room; sums to 1 whenever `rooms` is non-empty.
    pub affinities: Vec<f64>,
}

impl RoomAffinity {
    /// Affinity of a specific room; 0 if the room is not a candidate.
    pub fn of(&self, room: RoomId) -> f64 {
        self.rooms
            .iter()
            .position(|&r| r == room)
            .map(|i| self.affinities[i])
            .unwrap_or(0.0)
    }
}

/// Per-query memo of room-affinity distributions, keyed by `(device, region)`.
///
/// `α(d, r_j, t_q)` is a pure function of `(device, region)` against a frozen
/// store, so one `locate` call computes each distribution at most once: the
/// prior, and every member of every group Algorithm 2 evaluates, read it here.
pub type RoomAffinityMemo = HashMap<(DeviceId, RegionId), RoomAffinity>;

/// Computes room, device and group affinities against one event store.
///
/// The engine is cheap to construct (it only borrows the store); the expensive part is
/// [`AffinityEngine::device_affinity`], which scans the devices' recent histories.
#[derive(Clone, Copy)]
pub struct AffinityEngine<'a> {
    store: &'a dyn EventRead,
    weights: RoomAffinityWeights,
    /// Length of the history window, ending at the query time, over which device
    /// affinities are computed.
    window: Timestamp,
}

impl<'a> AffinityEngine<'a> {
    /// Creates an engine over `store` with the given weights and a device-affinity
    /// history window of `window` seconds.
    pub fn new(store: &'a dyn EventRead, weights: RoomAffinityWeights, window: Timestamp) -> Self {
        Self {
            store,
            weights,
            window: window.max(1),
        }
    }

    // ------------------------------------------------------------------
    // Room affinity
    // ------------------------------------------------------------------

    /// Room affinities `α(d, r_j, t_q)` of a device over the candidate rooms of
    /// `region` (§4.1).
    ///
    /// The candidate rooms are partitioned into preferred / public / private; each
    /// partition shares its weight equally among its rooms. Weights of empty
    /// partitions are redistributed proportionally so the distribution always sums
    /// to 1.
    pub fn room_affinities(&self, device: DeviceId, region: RegionId) -> RoomAffinity {
        let space = self.store.space();
        let mac = self.store.device(device).mac.as_str();
        let candidates = space.rooms_in_region(region);
        if candidates.is_empty() {
            return RoomAffinity {
                rooms: Vec::new(),
                affinities: Vec::new(),
            };
        }
        // One classification pass: tag every candidate room with its
        // partition and count partition sizes — no intermediate partition
        // vectors, no quadratic `contains` probes. The precedence matches
        // `Space::partition_candidates`: preferred beats public beats private.
        let preferred = space.preferred_rooms(mac);
        let mut tags = Vec::with_capacity(candidates.len());
        let (mut n_pf, mut n_pb, mut n_pr) = (0usize, 0usize, 0usize);
        for &room in candidates {
            let tag = if preferred.contains(&room) {
                n_pf += 1;
                Partition::Preferred
            } else if space.is_public(room) {
                n_pb += 1;
                Partition::Public
            } else {
                n_pr += 1;
                Partition::Private
            };
            tags.push(tag);
        }
        let mut mass = 0.0;
        if n_pf > 0 {
            mass += self.weights.preferred;
        }
        if n_pb > 0 {
            mass += self.weights.public;
        }
        if n_pr > 0 {
            mass += self.weights.private;
        }
        let affinities = tags
            .into_iter()
            .map(|tag| {
                let (weight, count) = match tag {
                    Partition::Preferred => (self.weights.preferred, n_pf),
                    Partition::Public => (self.weights.public, n_pb),
                    Partition::Private => (self.weights.private, n_pr),
                };
                weight / mass / count as f64
            })
            .collect();
        RoomAffinity {
            rooms: candidates.to_vec(),
            affinities,
        }
    }

    // ------------------------------------------------------------------
    // Device affinity
    // ------------------------------------------------------------------

    /// Device affinity `α(D)` of a set of devices (§4.1): the fraction of connectivity
    /// events of the devices in `D` (within the history window ending at `until`) such
    /// that every *other* device of `D` has an event on the same access point within
    /// the validity period of the event.
    ///
    /// Returns 0 for sets of fewer than two devices or with no events in the window.
    ///
    /// One dispatch, on [`EventRead::postings_of`] looked up once per member:
    /// when every member is indexed, a distinct pair runs as one
    /// [`PairAffinitySession`] merge and any other set as a bucket-intersection
    /// merge over only the access points all members share. A view that
    /// leaves any member unindexed is answered by the per-event window scan,
    /// the naive oracle. Every route counts the same events, so the returned
    /// ratio is **bit-identical** either way
    /// (`tests/affinity_index_equivalence.rs`).
    pub fn device_affinity(&self, devices: &[DeviceId], until: Timestamp) -> f64 {
        if devices.len() < 2 {
            return 0.0;
        }
        let window = Interval::new(until - self.window, until + 1);
        // A distinct pair, the dominant shape, runs as one session merge: even
        // one-shot, it measures faster than the per-AP merge of a k-set.
        if let [a, b] = *devices {
            if a != b {
                return match (self.store.postings_of(a), self.store.postings_of(b)) {
                    (Some(_), Some(_)) => self.pair_session(a, until).affinity(b),
                    _ => self.tally_scanned(devices, window),
                };
            }
        }
        let postings: Option<Vec<&DevicePostings>> = devices
            .iter()
            .map(|&device| self.store.postings_of(device))
            .collect();
        match postings {
            Some(postings) => self.tally_indexed(devices, &postings, window),
            None => self.tally_scanned(devices, window),
        }
    }

    /// The indexed route of [`AffinityEngine::device_affinity`] for a k-set
    /// or a duplicate-member set; `postings[i]` belongs to `devices[i]`.
    ///
    /// Each member's window total is two partition points on its timeline.
    /// Its *intersecting* count only ever touches access points **every**
    /// other member connected to: the AP lists are intersected by a sorted
    /// merge, and on each shared AP the member's window timestamps merge
    /// against one forward-only [`PostingCursor`] per other member. APs not
    /// shared by the whole set cost nothing at all.
    fn tally_indexed(
        &self,
        devices: &[DeviceId],
        postings: &[&DevicePostings],
        window: Interval,
    ) -> f64 {
        let (mut total, mut intersecting) = (0usize, 0usize);
        let mut cursors: Vec<PostingCursor<'_>> = Vec::with_capacity(devices.len());
        for (&device, own) in devices.iter().zip(postings) {
            total += self.store.timeline_of(device).count_in(window);
            let delta = self.store.delta(device);
            let others: Vec<&DevicePostings> = devices
                .iter()
                .zip(postings)
                .filter(|&(&other, _)| other != device)
                .map(|(_, &other)| other)
                .collect();
            // Sorted-merge position in each other member's AP lists; advances
            // monotonically with this member's AP iteration.
            let mut ap_pos = vec![0usize; others.len()];
            for list in own.ap_lists() {
                let ap = list.ap();
                // Lists without window events need no merge work (their events
                // are already in the total and can contribute nothing).
                let mut window_ts = list.timestamps_in(window).peekable();
                if window_ts.peek().is_none() {
                    continue;
                }
                cursors.clear();
                for (pos, other) in ap_pos.iter_mut().zip(&others) {
                    let lists = other.ap_lists();
                    while *pos < lists.len() && lists[*pos].ap() < ap {
                        *pos += 1;
                    }
                    match lists.get(*pos) {
                        Some(list) if list.ap() == ap => cursors.push(list.cursor()),
                        // That member never connected to this AP: nothing
                        // here can intersect.
                        _ => break,
                    }
                }
                if cursors.len() < others.len() {
                    continue;
                }
                for t in window_ts {
                    // The window iterator is ascending, so `t - delta` never
                    // decreases — exactly the contract of the merge cursors.
                    let all_present = cursors.iter_mut().all(|cursor| {
                        cursor
                            .advance_to(t - delta)
                            .is_some_and(|ts| ts < t + delta + 1)
                    });
                    intersecting += usize::from(all_present);
                }
            }
        }
        ratio(intersecting, total)
    }

    /// The naive oracle of [`AffinityEngine::device_affinity`], for views that
    /// leave a member unindexed: per member, a scan of its
    /// window events, each probed by a window scan of every other member.
    fn tally_scanned(&self, devices: &[DeviceId], window: Interval) -> f64 {
        let (mut total, mut intersecting) = (0usize, 0usize);
        for &device in devices {
            let delta = self.store.delta(device);
            for event in self.store.events_of_in(device, window) {
                total += 1;
                let near = Interval::new(event.t - delta, event.t + delta + 1);
                let all_present = devices.iter().filter(|&&d| d != device).all(|&other| {
                    self.store
                        .events_of_in(other, near)
                        .any(|e| e.ap == event.ap)
                });
                intersecting += usize::from(all_present);
            }
        }
        ratio(intersecting, total)
    }

    /// Pairwise device affinity `α({a, b})`.
    pub fn pair_affinity(&self, a: DeviceId, b: DeviceId, until: Timestamp) -> f64 {
        self.device_affinity(&[a, b], until)
    }

    /// A [`PairAffinitySession`] for the repeated `α({device, ·})`
    /// evaluations of one query — same answers as
    /// [`AffinityEngine::pair_affinity`], the queried side computed once.
    pub fn pair_session(&self, device: DeviceId, until: Timestamp) -> PairAffinitySession<'a> {
        PairAffinitySession::new(*self, device, until)
    }

    // ------------------------------------------------------------------
    // Group affinity
    // ------------------------------------------------------------------

    /// Memoized [`AffinityEngine::room_affinities`]: computes the distribution
    /// on first use and returns the cached copy afterwards.
    pub(crate) fn room_affinities_memo<'m>(
        &self,
        memo: &'m mut RoomAffinityMemo,
        device: DeviceId,
        region: RegionId,
    ) -> &'m RoomAffinity {
        memo.entry((device, region))
            .or_insert_with(|| self.room_affinities(device, region))
    }

    /// Group affinity `α(D, r_j, t_q)` (Eq. 1) of every room of `rooms`: the
    /// probability of all devices in `group` being co-located in the room,
    /// given an already-computed device affinity for the set.
    ///
    /// `group` pairs each device with the region the coarse step (or its
    /// covering event) placed it in at the query time. The affinity is
    /// `device_affinity × Π_d P(@(d, r_j) | @(d, R_is))` for a room of the
    /// intersection `R_is` of those regions' candidate rooms, and 0 outside
    /// it. A member whose distribution has zero mass on `R_is` contributes
    /// the uniform `1 / |R_is|`, so devices without metadata still count.
    /// Per-device room affinities are read through `memo`.
    pub fn group_affinities(
        &self,
        memo: &mut RoomAffinityMemo,
        group: &[(DeviceId, RegionId)],
        rooms: &[RoomId],
        device_affinity: f64,
    ) -> Vec<f64> {
        if group.is_empty() || device_affinity <= 0.0 {
            return vec![0.0; rooms.len()];
        }
        let space = self.store.space();
        let regions: Vec<RegionId> = group.iter().map(|&(_, g)| g).collect();
        let intersection = space.intersect_regions(&regions);
        // Materialize every member's distribution, then take each member's
        // mass on `R_is` once per group, not once per room.
        for &(device, region) in group {
            self.room_affinities_memo(memo, device, region);
        }
        let members: Vec<(&RoomAffinity, f64)> = group
            .iter()
            .map(|key| {
                let affinity = &memo[key];
                let total: f64 = intersection.iter().map(|&r| affinity.of(r)).sum();
                (affinity, total)
            })
            .collect();
        rooms
            .iter()
            .map(|&room| {
                if !intersection.contains(&room) {
                    return 0.0;
                }
                let mut probability = device_affinity;
                for &(affinity, total) in &members {
                    probability *= if total <= 0.0 {
                        1.0 / intersection.len() as f64
                    } else {
                        affinity.of(room) / total
                    };
                }
                probability
            })
            .collect()
    }
}

/// `intersecting / total`, or 0 for an empty window.
fn ratio(intersecting: usize, total: usize) -> f64 {
    if total == 0 {
        0.0
    } else {
        intersecting as f64 / total as f64
    }
}

/// Precomputed query-side state for the pairwise device affinities of one
/// `locate` call.
///
/// Algorithm 2 evaluates `α({d, n})` for up to `max_neighbors` neighbors `n`
/// with the *same* queried device `d`, history window, and δ. The session
/// materializes `d`'s side of the merge once — per-AP window/vicinity slices
/// borrowed straight from the co-location index plus a dense AP dispatch
/// table — so each neighbor costs only one pass over its own contiguous
/// timeline slice. [`PairAffinitySession::affinity`] is
/// bit-identical to [`AffinityEngine::pair_affinity`] (asserted in
/// `tests/affinity_index_equivalence.rs`); it falls back to the engine
/// whenever either side has no index.
pub struct PairAffinitySession<'a> {
    engine: AffinityEngine<'a>,
    device: DeviceId,
    until: Timestamp,
    window: Interval,
    delta: Timestamp,
    /// `Some` when the queried device's store view is indexed.
    side: Option<QuerySide<'a>>,
}

/// The queried device's precomputed merge slices (borrowed from the store).
struct QuerySide<'a> {
    total_in_window: usize,
    /// The window padded by the queried device's δ: exactly the stretch of
    /// neighbor events that can take part in either merge direction.
    ext: Interval,
    /// Dense AP dispatch: `slot_of[ap] = index into aps`, `u32::MAX` when the
    /// queried device has no relevant events on that AP.
    slot_of: Vec<u32>,
    aps: Vec<QueryAp<'a>>,
    /// Reused per-neighbor cursor pairs, one per entry of `aps`.
    cursors: std::cell::RefCell<Vec<(u32, u32)>>,
}

struct QueryAp<'a> {
    /// The device's events on this AP within the window padded by the global
    /// max δ — every timestamp any neighbor's merge can involve (the partner
    /// slice for the neighbor-side direction).
    full: &'a [Timestamp],
    /// The in-window sub-slice of `full` (the own slice).
    win: &'a [Timestamp],
}

impl<'a> PairAffinitySession<'a> {
    fn new(engine: AffinityEngine<'a>, device: DeviceId, until: Timestamp) -> Self {
        let window = Interval::new(until - engine.window, until + 1);
        let delta = engine.store.delta(device);
        let side = engine.store.postings_of(device).map(|postings| {
            // Lists with no events anywhere near the window cannot take part
            // in any direction of any neighbor's merge (δ ≤ the global max δ
            // bounds each side's reach), so they are dropped up front.
            let slack = engine.store.max_delta();
            let reach = Interval::new(window.start - slack, window.end + slack);
            let mut slot_of = vec![u32::MAX; engine.store.space().num_access_points()];
            let mut aps = Vec::new();
            for list in postings.ap_lists() {
                let full = list.slice_in(reach);
                if full.is_empty() {
                    continue;
                }
                let lo = full.partition_point(|&t| t < window.start);
                let hi = lo + full[lo..].partition_point(|&t| t < window.end);
                slot_of[list.ap().index()] = aps.len() as u32;
                aps.push(QueryAp {
                    full,
                    win: &full[lo..hi],
                });
            }
            QuerySide {
                total_in_window: engine.store.timeline_of(device).count_in(window),
                ext: Interval::new(window.start - delta, window.end + delta),
                cursors: std::cell::RefCell::new(vec![(0, 0); aps.len()]),
                slot_of,
                aps,
            }
        });
        Self {
            engine,
            device,
            until,
            window,
            delta,
            side,
        }
    }

    /// `α({device, other})` — bit-identical to
    /// [`AffinityEngine::pair_affinity`]`(device, other, until)`.
    ///
    /// One pass over the neighbor's contiguous timeline slice drives both merge directions: for each neighbor event near the
    /// window, the session-side per-AP cursors (a) count the queried device's
    /// not-yet-counted window events the neighbor event reaches within the
    /// queried δ, and (b) probe whether the queried device has an event
    /// within the neighbor's δ. The neighbor's per-AP posting lists are never
    /// touched — only its timeline slice, read sequentially.
    pub fn affinity(&self, other: DeviceId) -> f64 {
        let store = self.engine.store;
        let side = match &self.side {
            Some(side) if other != self.device && store.postings_of(other).is_some() => side,
            _ => return self.engine.pair_affinity(self.device, other, self.until),
        };
        let timeline = store.timeline_of(other);
        let total = side.total_in_window + timeline.count_in(self.window);
        if total == 0 {
            return 0.0;
        }
        let delta_b = store.delta(other);
        let mut cursors = side.cursors.borrow_mut();
        cursors.fill((0, 0));
        let mut intersecting = 0usize;
        for event in timeline.in_range(side.ext) {
            let slot = side.slot_of[event.ap.index()];
            if slot == u32::MAX {
                // The queried device has no events near the window on this
                // AP: the neighbor event reaches nothing and has no partner.
                continue;
            }
            let qa = &side.aps[slot as usize];
            let (cover, probe) = &mut cursors[slot as usize];
            let t_b = event.t;
            // Query-side direction: count own window events in
            // [t_b − δ, t_b + δ] not counted yet. Reaches advance with t_b,
            // so skipped events (below the reach) are dead for good and each
            // own event is counted at most once. Cursor steps are linear —
            // the per-AP strides are a handful of events, where a branchy
            // walk beats a binary search.
            let mut cov = *cover as usize;
            while cov < qa.win.len() && qa.win[cov] < t_b - self.delta {
                cov += 1;
            }
            let start = cov;
            while cov < qa.win.len() && qa.win[cov] <= t_b + self.delta {
                cov += 1;
            }
            intersecting += cov - start;
            *cover = cov as u32;
            // Neighbor-side direction: an in-window neighbor event intersects
            // iff the queried device has an event on this AP within δ_other.
            if self.window.contains(t_b) {
                let mut pr = *probe as usize;
                while pr < qa.full.len() && qa.full[pr] < t_b - delta_b {
                    pr += 1;
                }
                *probe = pr as u32;
                if pr < qa.full.len() && qa.full[pr] <= t_b + delta_b {
                    intersecting += 1;
                }
            }
        }
        intersecting as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locater_space::{RoomType, SpaceBuilder};
    use locater_store::EventStore;

    /// The paper's running example (Fig. 3): region g3 covers five rooms, 2061 is d1's
    /// office, 2065 is a public meeting room, 2059 is d2's office.
    fn example_store() -> EventStore {
        let space = SpaceBuilder::new("fig3")
            .add_access_point("wap3", &["2059", "2061", "2065", "2069", "2099"])
            .add_access_point("wap2", &["2059", "2061", "2065", "2069", "2099"])
            .room_type("2065", RoomType::Public)
            .room_owner("2061", "d1")
            .room_owner("2059", "d2")
            .build()
            .unwrap();
        let mut store = EventStore::new(space);
        store.ingest_raw("d1", 1_000, "wap3").unwrap();
        store.ingest_raw("d2", 1_000, "wap3").unwrap();
        store
    }

    #[test]
    fn weights_presets_are_valid() {
        for w in RoomAffinityWeights::TABLE2 {
            assert!(w.preferred > w.public && w.public > w.private);
            assert!(((w.preferred + w.public + w.private) - 1.0).abs() < 1e-9);
        }
        assert_eq!(RoomAffinityWeights::default(), RoomAffinityWeights::C2);
    }

    #[test]
    fn invalid_weights_are_rejected() {
        assert!(RoomAffinityWeights::new(0.3, 0.4, 0.3).is_err()); // not ordered
        assert!(RoomAffinityWeights::new(0.5, 0.3, 0.1).is_err()); // sums to 0.9
        assert!(RoomAffinityWeights::new(0.6, 0.3, 0.1).is_ok());
    }

    #[test]
    fn room_affinities_match_running_example() {
        // With C3 = {0.5, 0.3, 0.2}: α(d1, 2061) = 0.5, α(d1, 2065) = 0.3 and the
        // three remaining private rooms share 0.2/3 ≈ 0.066 (paper §4.1).
        let store = example_store();
        let engine = AffinityEngine::new(&store, RoomAffinityWeights::C3, 3_600);
        let d1 = store.device_id("d1").unwrap();
        let g3 = store.space().ap_id("wap3").unwrap().region();
        let affinity = engine.room_affinities(d1, g3);
        let space = store.space();
        let room = |name: &str| space.room_id(name).unwrap();
        assert!((affinity.of(room("2061")) - 0.5).abs() < 1e-9);
        assert!((affinity.of(room("2065")) - 0.3).abs() < 1e-9);
        assert!((affinity.of(room("2059")) - 0.2 / 3.0).abs() < 1e-9);
        assert!((affinity.affinities.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert_eq!(affinity.of(RoomId::new(999)), 0.0);
    }

    #[test]
    fn room_affinities_without_preferred_rooms_renormalize() {
        let store = example_store();
        let engine = AffinityEngine::new(&store, RoomAffinityWeights::C2, 3_600);
        let g3 = store.space().ap_id("wap3").unwrap().region();
        // A device with no preferred rooms: mass is split between public and private.
        let mut store2 = EventStore::new(store.space().as_ref().clone());
        store2.ingest_raw("stranger", 500, "wap3").unwrap();
        let engine2 = AffinityEngine::new(&store2, RoomAffinityWeights::C2, 3_600);
        let stranger = store2.device_id("stranger").unwrap();
        let affinity = engine2.room_affinities(stranger, g3);
        assert!((affinity.affinities.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Public room 2065 gets 0.3/(0.3+0.1); each of the 4 private rooms gets
        // (0.1/(0.3+0.1))/4.
        let space = store2.space();
        let public = affinity.of(space.room_id("2065").unwrap());
        let private = affinity.of(space.room_id("2099").unwrap());
        assert!((public - 0.75).abs() < 1e-9);
        assert!((private - 0.0625).abs() < 1e-9);
        assert!(public > private);
        let _ = engine;
    }

    #[test]
    fn conditional_within_matches_paper_example() {
        // d1 in g3 (all five rooms), d2 in g2 = {2065, 2069, 2099} = R_is.
        // P(@(d1, 2065) | @(d1, R_is)) = .3 / (.3 + .066 + .066) ≈ .69, and d2,
        // with no preferred room in g2, has P(@(d2, 2065) | R_is) = .3 / .5.
        let space = SpaceBuilder::new("fig3-overlap")
            .add_access_point("wap3", &["2059", "2061", "2065", "2069", "2099"])
            .add_access_point("wap2", &["2065", "2069", "2099"])
            .room_type("2065", RoomType::Public)
            .room_owner("2061", "d1")
            .room_owner("2059", "d2")
            .build()
            .unwrap();
        let mut store = EventStore::new(space);
        store.ingest_raw("d1", 1_000, "wap3").unwrap();
        store.ingest_raw("d2", 1_000, "wap2").unwrap();
        let engine = AffinityEngine::new(&store, RoomAffinityWeights::C3, 3_600);
        let space = store.space();
        let room = |name: &str| space.room_id(name).unwrap();
        let (d1, d2) = (
            store.device_id("d1").unwrap(),
            store.device_id("d2").unwrap(),
        );
        let group = [
            (d1, space.ap_id("wap3").unwrap().region()),
            (d2, space.ap_id("wap2").unwrap().region()),
        ];
        let rooms = [room("2065"), room("2061")];
        let alphas = engine.group_affinities(&mut RoomAffinityMemo::new(), &group, &rooms, 1.0);
        assert!((alphas[0] / 0.6 - 0.3 / (0.3 + 2.0 * 0.2 / 3.0)).abs() < 1e-9);
        // A room outside R_is has zero conditional probability.
        assert_eq!(alphas[1], 0.0);
    }

    #[test]
    fn device_affinity_counts_colocated_events() {
        let space = SpaceBuilder::new("pair")
            .add_access_point("wap0", &["a", "b"])
            .add_access_point("wap1", &["c", "d"])
            .build()
            .unwrap();
        let mut store = EventStore::new(space);
        // d1 and d2 connect together to wap0 three times, d1 alone once on wap1.
        for i in 0..3 {
            store.ingest_raw("d1", 1_000 + i * 2_000, "wap0").unwrap();
            store.ingest_raw("d2", 1_100 + i * 2_000, "wap0").unwrap();
        }
        store.ingest_raw("d1", 50_000, "wap1").unwrap();
        let engine = AffinityEngine::new(&store, RoomAffinityWeights::C2, 100_000);
        let d1 = store.device_id("d1").unwrap();
        let d2 = store.device_id("d2").unwrap();
        let affinity = engine.pair_affinity(d1, d2, 60_000);
        // 6 of the 7 events are intersecting.
        assert!((affinity - 6.0 / 7.0).abs() < 1e-9);
        // Affinity of a device with itself-only set is zero.
        assert_eq!(engine.device_affinity(&[d1], 60_000), 0.0);
    }

    #[test]
    fn device_affinity_is_zero_for_never_colocated_devices() {
        let space = SpaceBuilder::new("pair")
            .add_access_point("wap0", &["a"])
            .add_access_point("wap1", &["b"])
            .build()
            .unwrap();
        let mut store = EventStore::new(space);
        store.ingest_raw("d1", 1_000, "wap0").unwrap();
        store.ingest_raw("d2", 1_000, "wap1").unwrap();
        let engine = AffinityEngine::new(&store, RoomAffinityWeights::C2, 100_000);
        let d1 = store.device_id("d1").unwrap();
        let d2 = store.device_id("d2").unwrap();
        assert_eq!(engine.pair_affinity(d1, d2, 2_000), 0.0);
    }

    #[test]
    fn group_affinity_matches_paper_arithmetic() {
        // Paper §4.1: α({d1, d2}) = .4, P(d1 in 2065 | R_is) = .69,
        // P(d2 in 2065 | R_is) = .44 → α({d1, d2}, 2065) ≈ .12.
        // We reproduce the structure (not the exact .44, which depends on d2's
        // affinities): group affinity = device affinity × product of conditionals.
        let store = example_store();
        let engine = AffinityEngine::new(&store, RoomAffinityWeights::C3, 3_600);
        let space = store.space();
        let d1 = store.device_id("d1").unwrap();
        let d2 = store.device_id("d2").unwrap();
        let g3 = space.ap_id("wap3").unwrap().region();
        let room_2065 = space.room_id("2065").unwrap();
        let device_affinity = 0.4;
        let group = [(d1, g3), (d2, g3)];
        let mut memo = RoomAffinityMemo::new();
        let affinity = engine.group_affinities(&mut memo, &group, &[room_2065], device_affinity)[0];
        // One distribution per (device, region), computed once.
        assert_eq!(memo.len(), 2);
        let candidates = space.rooms_in_region(g3);
        let conditional =
            |a: &RoomAffinity| a.of(room_2065) / candidates.iter().map(|&r| a.of(r)).sum::<f64>();
        let expected = device_affinity
            * conditional(&engine.room_affinities(d1, g3))
            * conditional(&engine.room_affinities(d2, g3));
        assert!((affinity - expected).abs() < 1e-12);
        assert!(affinity > 0.0 && affinity < device_affinity);
    }

    #[test]
    fn group_affinity_is_zero_outside_the_intersection() {
        let space = SpaceBuilder::new("overlap")
            .add_access_point("wap0", &["a", "b", "c"])
            .add_access_point("wap1", &["c", "d"])
            .build()
            .unwrap();
        let mut store = EventStore::new(space);
        store.ingest_raw("d1", 1_000, "wap0").unwrap();
        store.ingest_raw("d2", 1_000, "wap1").unwrap();
        let engine = AffinityEngine::new(&store, RoomAffinityWeights::C2, 3_600);
        let space = store.space();
        let d1 = store.device_id("d1").unwrap();
        let d2 = store.device_id("d2").unwrap();
        let g0 = space.ap_id("wap0").unwrap().region();
        let g1 = space.ap_id("wap1").unwrap().region();
        let group = [(d1, g0), (d2, g1)];
        // Room "a" is only in g0, not in the intersection {c}.
        let rooms = [space.room_id("a").unwrap(), space.room_id("c").unwrap()];
        let mut memo = RoomAffinityMemo::new();
        let alphas = engine.group_affinities(&mut memo, &group, &rooms, 0.5);
        assert_eq!(alphas[0], 0.0);
        assert!(alphas[1] > 0.0);
        // Zero device affinity kills the group affinity.
        assert_eq!(
            engine.group_affinities(&mut memo, &group, &rooms, 0.0),
            [0.0; 2]
        );
        // Empty group has no affinity.
        assert_eq!(
            engine.group_affinities(&mut memo, &[], &rooms, 0.5),
            [0.0; 2]
        );
    }
}
