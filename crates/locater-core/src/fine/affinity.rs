//! Room, device and group affinities (paper §4.1).

use locater_events::clock::Timestamp;
use locater_events::{DeviceId, Interval, StoredEvent};
use locater_space::{RegionId, RoomId};
use locater_store::EventRead;
use std::cell::{OnceCell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

/// The three room-affinity weights of §4.1: preferred (`w_pf`), public (`w_pb`) and
/// private (`w_pr`) rooms. They must be strictly ordered `w_pf > w_pb > w_pr` and sum
/// to 1.
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
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

/// Per-query memo of device runs: each device's events in the reach of the
/// history window ending at one `until`, grouped by access point, keyed by
/// device.
///
/// The runs are a pure function of `(device, until)` against a frozen store,
/// so one `locate` call builds each device's at most once: the D-FINE
/// clusters re-read their members after every processed neighbor, and each
/// neighbor's pair session reads the same runs.
pub(crate) struct ApRunsMemo {
    until: Timestamp,
    runs: HashMap<DeviceId, Rc<ApRuns>>,
}

impl ApRunsMemo {
    /// An empty memo for affinities over the history window ending at
    /// `until`.
    pub(crate) fn new(until: Timestamp) -> Self {
        Self {
            until,
            runs: HashMap::new(),
        }
    }
}

/// Computes room, device and group affinities against one event store.
///
/// The engine is cheap to construct (it borrows the store and reads its largest δ);
/// the expensive part is [`AffinityEngine::device_affinity`], which scans the
/// devices' recent histories.
#[derive(Clone, Copy)]
pub struct AffinityEngine<'a> {
    store: &'a dyn EventRead,
    weights: RoomAffinityWeights,
    /// Length of the history window, ending at the query time, over which device
    /// affinities are computed.
    window: Timestamp,
    /// The store's largest δ, read once: it bounds how far outside the window
    /// a matching partner can lie.
    max_delta: Timestamp,
}

impl<'a> AffinityEngine<'a> {
    /// Creates an engine over `store` with the given weights and a device-affinity
    /// history window of `window` seconds.
    pub fn new(store: &'a dyn EventRead, weights: RoomAffinityWeights, window: Timestamp) -> Self {
        Self {
            store,
            weights,
            window: window.max(1),
            max_delta: store.max_delta(),
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
    /// One route per set shape: a distinct pair runs as one
    /// [`PairAffinitySession`] merge, and any other set (a k-set, or one with
    /// a repeated member) as a merge over each member's window events grouped
    /// by access point. Every route counts the same events as the naive
    /// per-event window scan, so the returned ratio is **bit-identical** to it
    /// (`tests/equivalence/affinity_index.rs`).
    pub fn device_affinity(&self, devices: &[DeviceId], until: Timestamp) -> f64 {
        self.device_affinity_memo(&mut ApRunsMemo::new(until), devices)
    }

    /// [`AffinityEngine::device_affinity`] at the memo's `until`, each
    /// member's runs read through `memo`.
    pub(crate) fn device_affinity_memo(&self, memo: &mut ApRunsMemo, devices: &[DeviceId]) -> f64 {
        if devices.len() < 2 {
            return 0.0;
        }
        // A distinct pair, the dominant shape, runs as one session merge: even
        // one-shot, it measures faster than the per-AP merge of a k-set.
        if let [a, b] = *devices {
            if a != b {
                return self.pair_session_memo(memo, a).affinity(b);
            }
        }
        let runs: Vec<Rc<ApRuns>> = devices
            .iter()
            .map(|&device| self.runs_memo(memo, device))
            .collect();
        self.tally_runs(devices, &runs, self.window_until(memo.until))
    }

    /// `device`'s runs in the reach of the memo's window, built on first use.
    fn runs_memo(&self, memo: &mut ApRunsMemo, device: DeviceId) -> Rc<ApRuns> {
        let reach = self.reach(self.window_until(memo.until));
        memo.runs
            .entry(device)
            .or_insert_with(|| Rc::new(ApRuns::new(self.store, device, reach)))
            .clone()
    }

    /// The history window ending at `until`: `[until − window, until]`.
    fn window_until(&self, until: Timestamp) -> Interval {
        Interval::new(until - self.window, until + 1)
    }

    /// `window` padded by the largest δ on both sides: every event any
    /// member's merge can read. A partner of a window event lies within that
    /// member's δ ≤ max δ of it.
    fn reach(&self, window: Interval) -> Interval {
        Interval::new(window.start - self.max_delta, window.end + self.max_delta)
    }

    /// The k-set (or repeated-member) route of
    /// [`AffinityEngine::device_affinity`], over each member's runs in the
    /// reach of `window`.
    ///
    /// Each member's window total is two partition points on its timeline.
    /// Its *intersecting* count only ever touches access points **every**
    /// other member has events on within the reach: on each such AP the
    /// member's window timestamps merge against one forward-only cursor over
    /// each other member's run. A reach-limited run yields the same first
    /// partner `≥ t − δ` as the member's whole history would, because any
    /// partner that counts lies inside the reach.
    fn tally_runs(&self, devices: &[DeviceId], runs: &[Rc<ApRuns>], window: Interval) -> f64 {
        let (mut total, mut intersecting) = (0usize, 0usize);
        let mut cursors: Vec<&[u32]> = Vec::with_capacity(devices.len());
        for (&device, own) in devices.iter().zip(runs) {
            total += self.store.timeline_of(device).count_in(window);
            let delta = self.store.delta(device);
            let others: Vec<&ApRuns> = devices
                .iter()
                .zip(runs)
                .filter(|&(&other, _)| other != device)
                .map(|(_, other)| &**other)
                .collect();
            for ap in 0..own.num_aps() {
                // Runs without window events need no merge work (their events
                // are already in the total and can contribute nothing).
                let window_ts = within(own.run(ap), window);
                if window_ts.is_empty() {
                    continue;
                }
                cursors.clear();
                // A member without events on this AP within the reach
                // leaves nothing here to intersect.
                cursors.extend(
                    others
                        .iter()
                        .map(|other| other.run(ap))
                        .take_while(|run| !run.is_empty()),
                );
                if cursors.len() < others.len() {
                    continue;
                }
                for t in window_ts.iter().map(|&t| Timestamp::from(t)) {
                    // Window timestamps ascend, so `t - delta` never
                    // decreases and each cursor only moves forward.
                    let all_present = cursors.iter_mut().all(|run| {
                        let skip = run.partition_point(|&x| Timestamp::from(x) < t - delta);
                        *run = &run[skip..];
                        run.first()
                            .is_some_and(|&x| Timestamp::from(x) <= t + delta)
                    });
                    intersecting += usize::from(all_present);
                }
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
        let runs = ApRuns::new(self.store, device, self.reach(self.window_until(until)));
        PairAffinitySession::new(*self, device, until, Rc::new(runs))
    }

    /// [`AffinityEngine::pair_session`] at the memo's `until`, over the
    /// device's runs read through `memo`.
    pub(crate) fn pair_session_memo(
        &self,
        memo: &mut ApRunsMemo,
        device: DeviceId,
    ) -> PairAffinitySession<'a> {
        let runs = self.runs_memo(memo, device);
        PairAffinitySession::new(*self, device, memo.until, runs)
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

/// Where the timestamps of `run` (ascending) in `[range.start, range.end)`
/// start and end.
fn bounds_within(run: &[u32], range: Interval) -> (usize, usize) {
    let lo = run.partition_point(|&t| Timestamp::from(t) < range.start);
    let hi = lo + run[lo..].partition_point(|&t| Timestamp::from(t) < range.end);
    (lo, hi)
}

/// The timestamps of `run` (ascending) in `[range.start, range.end)`.
fn within(run: &[u32], range: Interval) -> &[u32] {
    let (lo, hi) = bounds_within(run, range);
    &run[lo..hi]
}

/// One device's events in a reach, grouped by access point: what both
/// device-affinity merges read.
///
/// Built per call by a counting sort over the device timeline's slice of the
/// reach, so the store keeps no per-AP copy of its events. `ts` holds every
/// AP's run back to back in AP order, each run ascending in time (the
/// timeline is sorted by `(t, id)` and the sort is stable). A stored
/// timestamp is below 2³², so each takes 4 bytes; comparisons widen it to
/// [`Timestamp`].
struct ApRuns {
    /// The run timestamps, one run after another.
    ts: Vec<u32>,
    /// `ts[bounds[ap]..bounds[ap + 1]]` is the run on access point `ap`,
    /// empty when the device has no events on it in the reach.
    bounds: Vec<usize>,
}

impl ApRuns {
    fn new(store: &dyn EventRead, device: DeviceId, reach: Interval) -> Self {
        let events = store.timeline_of(device).in_range(reach);
        // Count per AP, then turn the counts into run bounds.
        let mut bounds = vec![0usize; store.space().num_access_points() + 1];
        for event in events {
            bounds[event.ap().index() + 1] += 1;
        }
        for ap in 1..bounds.len() {
            bounds[ap] += bounds[ap - 1];
        }
        let mut next = bounds.clone();
        let mut ts = vec![0; events.len()];
        for event in events {
            let at = &mut next[event.ap().index()];
            // Exact: a stored event's timestamp fits 32 bits.
            ts[*at] = event.t() as u32;
            *at += 1;
        }
        Self { ts, bounds }
    }

    /// The number of access points, one run each.
    fn num_aps(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The run on access point `ap`.
    fn run(&self, ap: usize) -> &[u32] {
        &self.ts[self.bounds[ap]..self.bounds[ap + 1]]
    }
}

/// Precomputed query-side state for the pairwise device affinities of one
/// `locate` call.
///
/// Algorithm 2 evaluates `α({d, n})` for up to 25 neighbors `n`
/// with the *same* queried device `d`, history window, and δ. The session
/// groups `d`'s events near the window by access point once (an owned
/// `ApRuns`), so each neighbor costs only one pass over its own contiguous
/// timeline slice.
/// [`PairAffinitySession::affinity`] is bit-identical to
/// [`AffinityEngine::pair_affinity`] (asserted in
/// `tests/equivalence/affinity_index.rs`).
///
/// Most neighbors fall far below Algorithm 2's pair floor and share almost
/// no time on an access point with `d`, so
/// [`PairAffinitySession::affinity_at_least`] merges only the neighbor
/// events that time cells cannot rule out. Cells are `w` wide, `w` the
/// least power of two ≥ the store's max δ, and each holds a mask of the
/// access points on which `d` has events in the reach, in that cell or one
/// beside it. The masks are built on the session's first floor test, so a
/// session that only runs [`PairAffinitySession::affinity`] never pays for
/// them.
pub struct PairAffinitySession<'a> {
    store: &'a dyn EventRead,
    window: Interval,
    delta: Timestamp,
    total_in_window: usize,
    /// The window padded by the queried device's δ: exactly the stretch of
    /// neighbor events that can take part in either merge direction.
    ext: Interval,
    /// The window padded by the max δ: where `runs` and `ext` lie.
    reach: Interval,
    /// The queried device's events in the window padded by the global max δ
    /// — every timestamp any neighbor's merge can involve (the partner runs
    /// of the neighbor-side direction).
    runs: Rc<ApRuns>,
    /// Per AP, where its in-window events end in `runs.ts`.
    win_end: Vec<usize>,
    /// Per AP, where the merge cursors start: its first in-window event and
    /// the start of its run.
    first: Vec<(usize, usize)>,
    /// Reused per-neighbor cursor pairs, one per AP.
    cursors: RefCell<Vec<(usize, usize)>>,
    /// `log₂ w`: a floor-test cell is `w ≥` max δ seconds wide.
    cell_shift: u32,
    /// Per cell, bit `ap % 64` set for every access point `ap` on which the
    /// queried device has an event in the reach, in this cell or one beside
    /// it. Built on the first floor test.
    cell_masks: OnceCell<Vec<u64>>,
}

impl<'a> PairAffinitySession<'a> {
    /// The session of `device` at `until` over its `runs` in the reach of
    /// the window: events farther than the max δ from the window cannot take
    /// part in any direction of any neighbor's merge.
    fn new(
        engine: AffinityEngine<'a>,
        device: DeviceId,
        until: Timestamp,
        runs: Rc<ApRuns>,
    ) -> Self {
        let store = engine.store;
        let window = engine.window_until(until);
        let delta = store.delta(device);
        let mut win_end = Vec::with_capacity(runs.num_aps());
        let mut first = Vec::with_capacity(runs.num_aps());
        for ap in 0..runs.num_aps() {
            let run = runs.run(ap);
            let (lo, hi) = bounds_within(run, window);
            let start = runs.bounds[ap];
            win_end.push(start + hi);
            first.push((start + lo, start));
        }
        Self {
            store,
            window,
            delta,
            total_in_window: store.timeline_of(device).count_in(window),
            ext: Interval::new(window.start - delta, window.end + delta),
            reach: engine.reach(window),
            cursors: RefCell::new(first.clone()),
            runs,
            win_end,
            first,
            // A cell is at least a second wide, whatever the store's δs.
            cell_shift: (engine.max_delta.max(1) as u64)
                .next_power_of_two()
                .trailing_zeros(),
            cell_masks: OnceCell::new(),
        }
    }

    /// The neighbor's events in `ext`, in time order: one binary search for
    /// the first, then a walk to the end of `ext`. `ext` holds the window,
    /// so the walk sees every window event of the neighbor.
    fn events_near(&self, other: DeviceId) -> impl Iterator<Item = &'a StoredEvent> {
        let events = self.store.timeline_of(other).events();
        let end = self.ext.end;
        events[events.partition_point(|e| e.t() < self.ext.start)..]
            .iter()
            .take_while(move |e| e.t() < end)
    }

    /// The floor-test cell of `t`, for `t` in the reach: the whole cells
    /// between the start of the reach and `t`, plus one, so that every cell
    /// has a neighbor on either side.
    fn cell(&self, t: Timestamp) -> usize {
        ((t - self.reach.start) >> self.cell_shift) as usize + 1
    }

    /// The cell masks: each of the queried device's events in the reach
    /// marks its own cell and the two beside it.
    fn build_cell_masks(&self) -> Vec<u64> {
        let mut masks = vec![0u64; self.cell(self.reach.end - 1) + 2];
        for ap in 0..self.runs.num_aps() {
            let bit = 1u64 << (ap % 64);
            for &t in self.runs.run(ap) {
                let cell = self.cell(Timestamp::from(t));
                for mask in &mut masks[cell - 1..=cell + 1] {
                    *mask |= bit;
                }
            }
        }
        masks
    }

    /// `Some(α({device, other}))` when it reaches `floor`, else `None` —
    /// bit-identical to `(affinity(other) >= floor).then_some(affinity(other))`:
    /// the floor test of Algorithm 2's contribution gate.
    ///
    /// It runs the exact merge of [`PairAffinitySession::affinity`], but only
    /// on the neighbor events the cell masks cannot rule out. An event whose
    /// cell mask lacks its access point has no partner in either direction:
    /// a partner lies within δ ≤ max δ ≤ `w` of it, so in its cell or one
    /// beside it, and would have set the bit. Skipping such an event changes
    /// no count (it counts only toward the neighbor's window total), and
    /// the next event the merge does run on that AP moves its cursors past
    /// whatever the skipped one would have. Mask collisions (`ap % 64`) only
    /// let more events through to the merge. Most neighbors share almost no
    /// cells with the queried device on the same access point, so most of
    /// their events cost one mask read.
    pub fn affinity_at_least(&self, other: DeviceId, floor: f64) -> Option<f64> {
        let masks = self.cell_masks.get_or_init(|| self.build_cell_masks());
        let pair = self.merge(other, Some(masks));
        (pair >= floor).then_some(pair)
    }

    /// `α({device, other})` — bit-identical to
    /// [`AffinityEngine::pair_affinity`]`(device, other, until)`.
    pub fn affinity(&self, other: DeviceId) -> f64 {
        self.merge(other, None)
    }

    /// The pair merge, run on every neighbor event in `ext` that `masks`
    /// (when given) leaves in.
    ///
    /// One pass over the neighbor's contiguous timeline slice drives both
    /// merge directions: for each neighbor event near the window, the
    /// session-side per-AP cursors (a) count the queried device's
    /// not-yet-counted window events the neighbor event reaches within the
    /// queried δ, and (b) probe whether the queried device has an event
    /// within the neighbor's δ. With `other` the queried device itself, both
    /// directions match every window event to itself: the ratio is 1, as
    /// for any set with a repeated member.
    fn merge(&self, other: DeviceId, masks: Option<&[u64]>) -> f64 {
        let delta_b = self.store.delta(other);
        let ts = &self.runs.ts;
        let mut cursors = self.cursors.borrow_mut();
        cursors.copy_from_slice(&self.first);
        let (mut in_window, mut intersecting) = (0usize, 0usize);
        for event in self.events_near(other) {
            let t_b = event.t();
            let in_win = self.window.contains(t_b);
            in_window += usize::from(in_win);
            let ap = event.ap().index();
            if masks.is_some_and(|masks| masks[self.cell(t_b)] & (1u64 << (ap % 64)) == 0) {
                continue;
            }
            // On an AP where the queried device has no events near the
            // window, both cursors start at their ends: the neighbor event
            // reaches nothing and has no partner.
            let (win_end, full_end) = (self.win_end[ap], self.runs.bounds[ap + 1]);
            let (cover, probe) = &mut cursors[ap];
            // Query-side direction: count own window events in
            // [t_b − δ, t_b + δ] not counted yet. Reaches advance with t_b,
            // so skipped events (below the reach) are dead for good and each
            // own event is counted at most once. Cursor steps are linear —
            // the per-AP strides are a handful of events, where a branchy
            // walk beats a binary search.
            let mut cov = *cover;
            while cov < win_end && Timestamp::from(ts[cov]) < t_b - self.delta {
                cov += 1;
            }
            let start = cov;
            while cov < win_end && Timestamp::from(ts[cov]) <= t_b + self.delta {
                cov += 1;
            }
            intersecting += cov - start;
            *cover = cov;
            // Neighbor-side direction: an in-window neighbor event intersects
            // iff the queried device has an event on this AP within δ_other.
            if in_win {
                let mut pr = *probe;
                while pr < full_end && Timestamp::from(ts[pr]) < t_b - delta_b {
                    pr += 1;
                }
                *probe = pr;
                if pr < full_end && Timestamp::from(ts[pr]) <= t_b + delta_b {
                    intersecting += 1;
                }
            }
        }
        ratio(intersecting, self.total_in_window + in_window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locater_space::{AccessPointId, RoomType, SpaceBuilder};
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

    /// The naive reference of [`AffinityEngine::device_affinity`]: per
    /// member, each window event is probed by a window scan of every other
    /// member for an event on the same AP within the member's δ.
    fn scanned(store: &dyn EventRead, devices: &[DeviceId], window: Interval) -> f64 {
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
        ratio(intersecting, total)
    }

    #[test]
    fn ap_runs_group_the_reach_by_access_point() {
        let space = SpaceBuilder::new("runs")
            .add_access_point("wap0", &["a"])
            .add_access_point("wap1", &["b"])
            .add_access_point("wap2", &["c"])
            .build()
            .unwrap();
        let mut store = EventStore::new(space);
        for (t, ap) in [
            (100, "wap0"),
            (200, "wap1"),
            (300, "wap0"),
            (300, "wap2"),
            (300, "wap0"),
            (500, "wap1"),
            (600, "wap0"),
        ] {
            store.ingest_raw("d", t, ap).unwrap();
        }
        // Late splices: below the first event, between events and at a
        // timestamp that already holds several events.
        store.ingest_raw("d", 50, "wap2").unwrap();
        store.ingest_raw("d", 150, "wap0").unwrap();
        store.ingest_raw("d", 300, "wap1").unwrap();
        store.ingest_raw("d", 300, "wap0").unwrap();
        // The last storable seconds: 4-byte run timestamps hold them exactly.
        let last = locater_events::EVENT_TIME_LIMIT - 1;
        store.ingest_raw("d", last - 1, "wap1").unwrap();
        store.ingest_raw("d", last, "wap1").unwrap();
        let d = store.device_id("d").unwrap();
        let timeline = store.timeline_of(d);
        for reach in [
            Interval::new(last - 1, last + 1),
            Interval::new(last, i64::MAX / 2),
            // Events sit exactly on both bounds: 100 is in, 600 is out.
            Interval::new(100, 600),
            Interval::new(0, 1_000),
            Interval::new(300, 301),
            Interval::new(301, 500),
            Interval::new(700, 800),
        ] {
            let runs = ApRuns::new(&store, d, reach);
            assert_eq!(runs.ts.len(), timeline.count_in(reach), "reach {reach:?}");
            for raw in 0..3 {
                let ap = AccessPointId::new(raw);
                let expected: Vec<Timestamp> = timeline
                    .in_range(reach)
                    .iter()
                    .filter(|e| e.ap() == ap)
                    .map(|e| e.t())
                    .collect();
                let got: Vec<Timestamp> = runs
                    .run(ap.index())
                    .iter()
                    .map(|&t| Timestamp::from(t))
                    .collect();
                assert_eq!(got, expected, "reach {reach:?}, ap {raw}");
            }
        }
        let bounds = ApRuns::new(&store, d, Interval::new(100, 600));
        assert!(bounds.ts.contains(&100) && !bounds.ts.contains(&600));
    }

    #[test]
    fn k_set_counts_partners_outside_the_window_within_delta() {
        // The window is [9_000, 10_000] and every δ is 100. a and c meet on
        // wap0 at 9_050; b's only event lies before the window, `offset`
        // seconds before theirs.
        let space = SpaceBuilder::new("reach")
            .add_access_point("wap0", &["a"])
            .build()
            .unwrap();
        for (offset, expected) in [(100, 1.0), (101, 0.0)] {
            let mut store = EventStore::new(space.clone());
            store.ingest_raw("a", 9_050, "wap0").unwrap();
            store.ingest_raw("b", 9_050 - offset, "wap0").unwrap();
            store.ingest_raw("c", 9_050, "wap0").unwrap();
            let ids: Vec<DeviceId> = ["a", "b", "c"]
                .iter()
                .map(|mac| store.device_id(mac).unwrap())
                .collect();
            for &id in &ids {
                store.set_delta(id, 100);
            }
            let engine = AffinityEngine::new(&store, RoomAffinityWeights::C2, 1_000);
            let got = engine.device_affinity(&ids, 10_000);
            assert_eq!(got, expected, "b {offset} s before the meeting");
            let reference = scanned(&store, &ids, Interval::new(9_000, 10_001));
            assert_eq!(got.to_bits(), reference.to_bits(), "offset {offset}");
        }
    }

    #[test]
    fn floor_test_equals_the_exact_merge() {
        // 70 access points, so `k` and `k + 64` share a mask bit; the events
        // crowd onto three such pairs. The largest δ, 700 s, is no power of
        // two (cells are 1,024 s wide); the other devices' δs lie below it.
        let names: Vec<String> = (0..70).map(|i| format!("wap{i}")).collect();
        let rooms: Vec<String> = (0..70).map(|i| format!("r{i}")).collect();
        let mut builder = SpaceBuilder::new("cells");
        for (name, room) in names.iter().zip(&rooms) {
            builder = builder.add_access_point(name, &[room.as_str()]);
        }
        let mut store = EventStore::new(builder.build().unwrap());
        let hot = [0, 64, 1, 65, 5, 69];
        let mut rng = locater_events::SeededRng::new(0xCE11);
        for device in 0..5 {
            for _ in 0..60 {
                let ap = &names[hot[rng.range(0..hot.len())]];
                store
                    .ingest_raw(&format!("d{device}"), rng.range(0..12_000i64), ap)
                    .unwrap();
            }
        }
        // A neighbor with no events in any probed window, and one whose only
        // events lie just past a window's end, within δ of it.
        store.ingest_raw("far", 60_000, "wap0").unwrap();
        store.ingest_raw("edge", 9_200, "wap64").unwrap();
        store.ingest_raw("edge", 9_500, "wap0").unwrap();
        let ids: Vec<DeviceId> = (0..store.num_devices() as u32).map(DeviceId::new).collect();
        for (&id, delta) in ids.iter().zip([700, 300, 650, 120, 512, 700, 400]) {
            store.set_delta(id, delta);
        }
        assert_eq!(store.max_delta(), 700);

        // A 5,000 s window: the first probes reach back before time 0.
        let engine = AffinityEngine::new(&store, RoomAffinityWeights::C2, 5_000);
        let floors = [f64::MIN_POSITIVE, 0.05, 0.2, 0.5, 1.0];
        let (mut reached, mut turned_away) = (0usize, 0usize);
        for until in [0, 700, 2_000, 4_321, 9_000, 12_000] {
            let window = Interval::new(until - 5_000, until + 1);
            for &a in &ids {
                let session = engine.pair_session(a, until);
                // The queried device as its own neighbor is in this loop.
                for &b in &ids {
                    let exact = session.affinity(b);
                    let reference = scanned(&store, &[a, b], window);
                    assert_eq!(
                        exact.to_bits(),
                        reference.to_bits(),
                        "({a}, {b}) at {until}"
                    );
                    for floor in floors {
                        let got = session.affinity_at_least(b, floor);
                        let want = (exact >= floor).then_some(exact);
                        assert_eq!(
                            got.map(f64::to_bits),
                            want.map(f64::to_bits),
                            "({a}, {b}) at {until}, floor {floor:e}"
                        );
                    }
                    if a != b && exact > 0.0 {
                        if exact >= 0.2 {
                            reached += 1;
                        } else {
                            turned_away += 1;
                        }
                    }
                }
            }
        }
        assert!(
            reached > 0 && turned_away > 0,
            "both verdicts must be exercised: {reached} reached, {turned_away} turned away"
        );
    }
}
