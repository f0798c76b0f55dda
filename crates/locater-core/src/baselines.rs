//! The evaluation baselines (paper §6.1).
//!
//! Traditional indoor localization systems are either *active* (require an app on the
//! device) or rely on signal-strength maps; neither applies to cleaning raw
//! association logs, so the paper defines two practical baselines that consume the
//! same inputs LOCATER does:
//!
//! * **Coarse-Baseline** — shared by both: a device is considered *outside* if the gap
//!   it is in lasts at least one hour, and otherwise *inside*, in the last region it
//!   was seen in.
//! * **Baseline1** = Coarse-Baseline + **Fine-Baseline1**: the room is drawn uniformly
//!   at random from the candidate rooms of the region.
//! * **Baseline2** = Coarse-Baseline + **Fine-Baseline2**: the room is the one
//!   associated with the user in the space metadata (their office / preferred room),
//!   falling back to the first candidate room when the metadata room is not covered by
//!   the region.

use crate::coarse::CoarseMethod;
use crate::system::{Answer, Location};
use locater_events::clock::{self, Timestamp};
use locater_events::{DeviceId, SeededRng};
use locater_space::RegionId;
use locater_store::EventStore;

/// A localization system comparable with LOCATER on the same query interface.
///
/// The trait is object-safe so the evaluation harness can iterate over a
/// heterogeneous list of systems (`Vec<Box<dyn BaselineSystem>>`).
pub trait BaselineSystem {
    /// Human-readable system name ("Baseline1", "Baseline2", …).
    fn name(&self) -> &str;

    /// Answers the query `Q = (device, t_q)` against `store`.
    fn locate(&mut self, store: &EventStore, device: DeviceId, t_q: Timestamp) -> Answer;
}

/// The shared coarse baseline: outside if the containing gap is at least
/// `outside_threshold` long, otherwise inside the last known region.
fn coarse_baseline(
    store: &EventStore,
    device: DeviceId,
    t_q: Timestamp,
    outside_threshold: Timestamp,
) -> (Option<RegionId>, CoarseMethod) {
    if let Some(region) = store.covering_region(device, t_q) {
        return (Some(region), CoarseMethod::CoveredByEvent);
    }
    match store.gap_at(device, t_q) {
        Some(gap) if gap.duration() >= outside_threshold => {
            (None, CoarseMethod::BootstrapHeuristic)
        }
        Some(gap) => (Some(gap.start_region()), CoarseMethod::BootstrapHeuristic),
        None => (None, CoarseMethod::OutOfSpan),
    }
}

/// The paper's outside-gap threshold for both baselines: one hour.
const OUTSIDE_THRESHOLD: Timestamp = clock::hours(1);

/// Baseline1: coarse baseline + a room chosen uniformly at random among the
/// candidates of the region.
#[derive(Debug, Clone)]
pub struct Baseline1 {
    rng: SeededRng,
}

impl Baseline1 {
    /// Creates the baseline with the paper's one-hour threshold and a fixed seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SeededRng::new(seed),
        }
    }
}

impl Default for Baseline1 {
    fn default() -> Self {
        Self::new(0x10CA7E5)
    }
}

impl BaselineSystem for Baseline1 {
    fn name(&self) -> &str {
        "Baseline1"
    }

    fn locate(&mut self, store: &EventStore, device: DeviceId, t_q: Timestamp) -> Answer {
        let (region, method) = coarse_baseline(store, device, t_q, OUTSIDE_THRESHOLD);
        let location = match region {
            None => Location::Outside,
            Some(region) => {
                let candidates = store.space().rooms_in_region(region);
                if candidates.is_empty() {
                    Location::Region(region)
                } else {
                    let room = candidates[self.rng.range(0..candidates.len())];
                    Location::Room { room, region }
                }
            }
        };
        Answer {
            device,
            t: t_q,
            location,
            coarse_method: method,
            confidence: 1.0,
        }
    }
}

/// Baseline2: coarse baseline + the user's metadata room (their office / preferred
/// room), falling back to the first candidate room of the region.
#[derive(Debug, Clone)]
pub struct Baseline2;

impl BaselineSystem for Baseline2 {
    fn name(&self) -> &str {
        "Baseline2"
    }

    fn locate(&mut self, store: &EventStore, device: DeviceId, t_q: Timestamp) -> Answer {
        let (region, method) = coarse_baseline(store, device, t_q, OUTSIDE_THRESHOLD);
        let location = match region {
            None => Location::Outside,
            Some(region) => {
                let space = store.space();
                let candidates = space.rooms_in_region(region);
                let mac = store.device(device).mac.as_str();
                let metadata_room = space
                    .preferred_rooms(mac)
                    .iter()
                    .copied()
                    .find(|room| candidates.contains(room));
                match metadata_room.or_else(|| candidates.first().copied()) {
                    Some(room) => Location::Room { room, region },
                    None => Location::Region(region),
                }
            }
        };
        Answer {
            device,
            t: t_q,
            location,
            coarse_method: method,
            confidence: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locater_space::{RoomType, Space, SpaceBuilder};

    fn space() -> Space {
        SpaceBuilder::new("baseline-test")
            .add_access_point("wap0", &["office-a", "office-b", "lounge"])
            .add_access_point("wap1", &["lab"])
            .room_type("lounge", RoomType::Public)
            .room_owner("office-a", "alice")
            .build()
            .unwrap()
    }

    fn store() -> EventStore {
        let mut store = EventStore::new(space());
        // Alice: events at 09:00 and 09:30 (short gap) and then nothing until 14:00
        // (long gap).
        store
            .ingest_raw("alice", clock::at(0, 9, 0, 0), "wap0")
            .unwrap();
        store
            .ingest_raw("alice", clock::at(0, 9, 30, 0), "wap0")
            .unwrap();
        store
            .ingest_raw("alice", clock::at(0, 14, 0, 0), "wap1")
            .unwrap();
        store
    }

    #[test]
    fn short_gap_stays_in_last_region_long_gap_goes_outside() {
        let store = store();
        let alice = store.device_id("alice").unwrap();
        let mut baseline = Baseline1::default();
        // 09:15 — inside the short gap → last region (wap0).
        let inside = baseline.locate(&store, alice, clock::at(0, 9, 15, 0));
        assert!(inside.is_inside());
        assert_eq!(inside.region(), Some(RegionId::new(0)));
        // 11:30 — inside the 4.5-hour gap → outside.
        let outside = baseline.locate(&store, alice, clock::at(0, 11, 30, 0));
        assert!(outside.is_outside());
        // Before any event → outside.
        let before = baseline.locate(&store, alice, 0);
        assert!(before.is_outside());
    }

    #[test]
    fn baseline1_picks_a_candidate_room_at_random_but_deterministically_per_seed() {
        let store = store();
        let alice = store.device_id("alice").unwrap();
        let t_q = clock::at(0, 9, 15, 0);
        let mut a = Baseline1::new(7);
        let mut b = Baseline1::new(7);
        let answers_a: Vec<_> = (0..10)
            .map(|i| a.locate(&store, alice, t_q + i).room())
            .collect();
        let answers_b: Vec<_> = (0..10)
            .map(|i| b.locate(&store, alice, t_q + i).room())
            .collect();
        assert_eq!(answers_a, answers_b);
        // Every answer is one of the region's candidate rooms.
        let candidates = store.space().rooms_in_region(RegionId::new(0));
        for room in answers_a.into_iter().flatten() {
            assert!(candidates.contains(&room));
        }
        assert_eq!(a.name(), "Baseline1");
    }

    #[test]
    fn baseline2_prefers_the_metadata_room() {
        let store = store();
        let alice = store.device_id("alice").unwrap();
        let mut baseline = Baseline2;
        let answer = baseline.locate(&store, alice, clock::at(0, 9, 15, 0));
        assert_eq!(
            answer.room(),
            Some(store.space().room_id("office-a").unwrap())
        );
        assert_eq!(baseline.name(), "Baseline2");
    }

    #[test]
    fn baseline2_falls_back_when_metadata_room_is_not_in_the_region() {
        let store = store();
        let alice = store.device_id("alice").unwrap();
        let mut baseline = Baseline2;
        // At 14:00 alice is covered by wap1 whose region does not contain office-a.
        let answer = baseline.locate(&store, alice, clock::at(0, 14, 0, 30));
        assert!(answer.is_inside());
        assert_eq!(answer.region(), Some(RegionId::new(1)));
        assert_eq!(answer.room(), Some(store.space().room_id("lab").unwrap()));
    }

    #[test]
    fn thresholds_are_configurable() {
        let store = store();
        let alice = store.device_id("alice").unwrap();
        // With a 10-minute threshold even the short gap counts as outside.
        let t_q = clock::at(0, 9, 15, 0);
        let (region, _) = coarse_baseline(&store, alice, t_q, clock::minutes(10));
        assert_eq!(region, None);
        let (region, _) = coarse_baseline(&store, alice, t_q, OUTSIDE_THRESHOLD);
        assert_eq!(region, Some(RegionId::new(0)));
    }

    #[test]
    fn baselines_work_through_the_trait_object() {
        let store = store();
        let alice = store.device_id("alice").unwrap();
        let mut systems: Vec<Box<dyn BaselineSystem>> =
            vec![Box::new(Baseline1::default()), Box::new(Baseline2)];
        for system in &mut systems {
            let answer = system.locate(&store, alice, clock::at(0, 9, 15, 0));
            assert!(answer.is_inside(), "{} should answer inside", system.name());
        }
    }
}
