//! Property-based tests of the cleaning engine's probabilistic invariants:
//! room-affinity distributions, group affinities, the possible-world bounds of
//! Theorems 1–3, the stop conditions, the caching engine's ordering, and the
//! indexed connection density against its naive definition. Each property
//! runs over seeded random cases.

use locater_core::cache::GlobalAffinityGraph;
use locater_core::coarse::{connection_densities, connection_density};
use locater_core::fine::{
    AffinityEngine, NeighborContribution, PosteriorBounds, RoomAffinityMemo, RoomAffinityWeights,
    RoomPosterior,
};
use locater_core::system::EpochTable;
use locater_events::{DeviceId, EventId, Gap, Interval, SeededRng, StoredEvent};
use locater_space::{AccessPointId, RegionId, RoomId, RoomType, Space, SpaceBuilder};
use locater_store::EventStore;

/// Builds a space with `num_aps` access points each covering `rooms_per_ap` rooms with
/// one room of overlap, and marks every third room public.
fn build_space(num_aps: usize, rooms_per_ap: usize) -> Space {
    space_builder(num_aps, rooms_per_ap).build().unwrap()
}

/// The builder of [`build_space`]'s space, rooms named `r0`, `r1`, …
fn space_builder(num_aps: usize, rooms_per_ap: usize) -> SpaceBuilder {
    let mut builder = SpaceBuilder::new("prop-space");
    let total_rooms = num_aps * (rooms_per_ap - 1) + 1;
    let names: Vec<String> = (0..total_rooms).map(|i| format!("r{i}")).collect();
    for ap in 0..num_aps {
        let start = ap * (rooms_per_ap - 1);
        let end = (start + rooms_per_ap).min(total_rooms);
        let coverage: Vec<&str> = names[start..end].iter().map(String::as_str).collect();
        builder = builder.add_access_point(&format!("wap{ap}"), &coverage);
    }
    for (i, name) in names.iter().enumerate() {
        if i % 3 == 0 {
            builder = builder.room_type(name, RoomType::Public);
        }
    }
    builder
}

/// One of the four weight combinations of Table 2.
fn arb_weights(rng: &mut SeededRng) -> RoomAffinityWeights {
    let table = RoomAffinityWeights::TABLE2;
    table[rng.range(0..table.len())]
}

/// Room affinities always form a probability distribution over the candidate
/// rooms, for any space shape, any device and any weight combination (§4.1).
/// The device has a preferred room whenever the draw names one of the
/// space's rooms; when that room is a candidate it gets the strictly largest
/// affinity.
#[test]
fn room_affinities_are_a_distribution() {
    let mut rng = SeededRng::new(0x9ff7_ad66_73f1_abc9);
    let mut preferred_candidates = 0;
    for _ in 0..48 {
        let num_aps = rng.range(2usize..6);
        let rooms_per_ap = rng.range(3usize..8);
        let weights = arb_weights(&mut rng);
        let preferred_room = rng.range(0usize..10);
        let region_idx = rng.range(0usize..6);
        let mut builder = space_builder(num_aps, rooms_per_ap);
        let total_rooms = num_aps * (rooms_per_ap - 1) + 1;
        let preferred_name = (preferred_room < total_rooms).then(|| format!("r{preferred_room}"));
        if let Some(name) = &preferred_name {
            builder = builder.preferred_room("probe", name);
        }
        let mut store = EventStore::new(builder.build().unwrap());
        store.ingest_raw("probe", 100, "wap0").unwrap();
        let device = store.device_id("probe").unwrap();
        let preferred = preferred_name.and_then(|name| store.space().room_id(&name));
        let engine = AffinityEngine::new(&store, weights, 3_600);
        let region = locater_space::RegionId::new((region_idx % num_aps) as u32);
        let affinity = engine.room_affinities(device, region);
        let total: f64 = affinity.affinities.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "sum = {total}");
        assert!(affinity.affinities.iter().all(|&a| a > 0.0 && a <= 1.0));
        assert_eq!(
            affinity.rooms.len(),
            store.space().rooms_in_region(region).len()
        );
        // The preferred room, when a candidate, outweighs every other one.
        if let Some(room) = preferred.filter(|room| affinity.rooms.contains(room)) {
            preferred_candidates += 1;
            let others = affinity
                .rooms
                .iter()
                .zip(&affinity.affinities)
                .filter(|(r, _)| **r != room);
            for (other, &a) in others {
                assert!(affinity.of(room) > a, "{room:?} vs {other:?}");
            }
        }
        // Public rooms never get less affinity than non-preferred private rooms.
        let space = store.space();
        let not_preferred = affinity
            .rooms
            .iter()
            .zip(&affinity.affinities)
            .filter(|(r, _)| Some(**r) != preferred);
        let min_public = not_preferred
            .clone()
            .filter(|(r, _)| space.is_public(**r))
            .map(|(_, a)| *a)
            .fold(f64::INFINITY, f64::min);
        let max_private = not_preferred
            .filter(|(r, _)| !space.is_public(**r))
            .map(|(_, a)| *a)
            .fold(0.0, f64::max);
        if min_public.is_finite() && max_private > 0.0 {
            assert!(min_public >= max_private - 1e-12);
        }
    }
    assert!(
        preferred_candidates > 0,
        "no case had a preferred candidate"
    );
}

/// Device affinity is symmetric in its arguments, bounded to [0, 1], and zero for
/// devices that never co-occur.
#[test]
fn device_affinity_is_symmetric_and_bounded() {
    let mut rng = SeededRng::new(0x9c27_3cd9_665e_6c6d);
    for _ in 0..48 {
        let events = |rng: &mut SeededRng| -> Vec<(i64, u8)> {
            let len = rng.range(1usize..60);
            (0..len)
                .map(|_| (rng.range(0i64..200_000), rng.range(0u8..3)))
                .collect()
        };
        let (events_a, events_b) = (events(&mut rng), events(&mut rng));
        let space = build_space(3, 4);
        let mut store = EventStore::new(space);
        for (t, ap) in &events_a {
            store.ingest_raw("dev-a", *t, &format!("wap{ap}")).unwrap();
        }
        for (t, ap) in &events_b {
            store.ingest_raw("dev-b", *t, &format!("wap{ap}")).unwrap();
        }
        let a = store.device_id("dev-a").unwrap();
        let b = store.device_id("dev-b").unwrap();
        let engine = AffinityEngine::new(&store, RoomAffinityWeights::default(), 400_000);
        let ab = engine.pair_affinity(a, b, 250_000);
        let ba = engine.pair_affinity(b, a, 250_000);
        assert!((ab - ba).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&ab));
    }
}

/// Group affinity never exceeds the device affinity it is derived from, is zero
/// outside the intersection of the group's regions, and sums to at most the device
/// affinity over the candidate rooms (Eq. 1).
#[test]
fn group_affinity_is_dominated_by_device_affinity() {
    let mut rng = SeededRng::new(0xf258_aa09_0c6c_969e);
    for _ in 0..48 {
        let device_affinity = rng.range(0.0..1.0);
        let region_a = rng.range(0usize..3);
        let region_b = rng.range(0usize..3);
        let space = build_space(3, 5);
        let mut store = EventStore::new(space);
        store
            .ingest_raw("d1", 1_000, &format!("wap{region_a}"))
            .unwrap();
        store
            .ingest_raw("d2", 1_000, &format!("wap{region_b}"))
            .unwrap();
        let d1 = store.device_id("d1").unwrap();
        let d2 = store.device_id("d2").unwrap();
        let engine = AffinityEngine::new(&store, RoomAffinityWeights::default(), 3_600);
        let ga = locater_space::RegionId::new(region_a as u32);
        let gb = locater_space::RegionId::new(region_b as u32);
        let group = [(d1, ga), (d2, gb)];
        let space = store.space();
        let intersection = space.intersect_regions(&[ga, gb]);
        let rooms: Vec<RoomId> = space.rooms().iter().map(|room| room.id).collect();
        let alphas = engine.group_affinities(
            &mut RoomAffinityMemo::new(),
            &group,
            &rooms,
            device_affinity,
        );
        let mut sum = 0.0;
        for (room, &alpha) in space.rooms().iter().zip(&alphas) {
            assert!(alpha >= 0.0);
            assert!(alpha <= device_affinity + 1e-12);
            if !intersection.contains(&room.id) {
                assert_eq!(alpha, 0.0);
            }
            sum += alpha;
        }
        assert!(sum <= device_affinity + 1e-9);
    }
}

/// The possible-world envelope of Theorems 1–3 is always ordered
/// `min ≤ expected ≤ max`, and collapses to a point when no devices are left
/// unprocessed.
#[test]
fn posterior_bounds_are_ordered() {
    let mut rng = SeededRng::new(0x33af_3356_a363_0bbd);
    for _ in 0..48 {
        let prior = rng.range(0.0..1.0);
        let len = rng.range(0usize..6);
        let observations: Vec<f64> = (0..len).map(|_| rng.range(0.0..1.0)).collect();
        let unprocessed = rng.range(0usize..8);
        let lo = rng.range(0.0..1.0);
        let hi = rng.range(0.0..1.0);
        let mut posterior = RoomPosterior::from_prior(prior);
        for obs in observations {
            posterior.observe(obs);
        }
        let bounds = PosteriorBounds::compute(&posterior, unprocessed, lo, hi);
        assert!(bounds.is_consistent(), "{bounds:?}");
        if unprocessed == 0 {
            assert_eq!(bounds.min, bounds.max);
        }
        assert!((0.0..=1.0).contains(&bounds.expected));
        assert!((0.0..=1.0).contains(&bounds.min));
        assert!((0.0..=1.0).contains(&bounds.max));
    }
}

/// The caching engine's neighbor ordering is a permutation of its input,
/// sorted by decreasing live cached weight, and the plan's cached
/// affinities are exactly the live edges' — also when some went stale.
#[test]
fn cache_ordering_is_a_sorted_permutation() {
    let mut rng = SeededRng::new(0x6384_3f99_d230_b542);
    for _ in 0..48 {
        let len = rng.range(0usize..60);
        let edges: Vec<(u32, f64, i64)> = (0..len)
            .map(|_| {
                (
                    rng.range(1u32..40),
                    rng.range(0.0..1.0),
                    rng.range(0i64..500_000),
                )
            })
            .collect();
        let len = rng.range(1usize..20);
        let candidates: Vec<u32> = (0..len).map(|_| rng.range(1u32..40)).collect();
        let len = rng.range(0usize..4);
        let bumped: Vec<u32> = (0..len).map(|_| rng.range(0u32..40)).collect();
        let t_q = rng.range(0i64..500_000);
        let center = DeviceId::new(0);
        let mut epochs = EpochTable::new();
        let mut graph = GlobalAffinityGraph::new();
        for (other, weight, t) in edges {
            let contribution = NeighborContribution {
                device: DeviceId::new(other),
                region: RegionId::new(0),
                pair_affinity: weight,
                edge_weight: weight,
            };
            graph.merge_stamped(center, &[contribution], t, &epochs);
        }
        for device in bumped {
            epochs.bump(DeviceId::new(device));
        }
        let candidate_ids: Vec<DeviceId> = candidates.iter().map(|&c| DeviceId::new(c)).collect();
        let plan = graph.plan(center, &candidate_ids, t_q, &epochs);
        let ordered = plan.order;
        assert_eq!(ordered.len(), candidate_ids.len());
        let mut sorted_input = candidate_ids.clone();
        sorted_input.sort();
        let mut sorted_output = ordered.clone();
        sorted_output.sort();
        assert_eq!(sorted_input, sorted_output);
        let lookup = |d: DeviceId| graph.lookup(center, d, t_q, &epochs);
        let weights: Vec<f64> = ordered
            .iter()
            .map(|&d| lookup(d).map_or(0.0, |(w, _)| w))
            .collect();
        for pair in weights.windows(2) {
            assert!(pair[0] >= pair[1] - 1e-12);
        }
        for &device in &candidate_ids {
            assert_eq!(
                plan.cached.get(&device).copied(),
                lookup(device).map(|(_, pair)| pair)
            );
        }
    }
}

/// The sorted-seconds-of-day index counts exactly the events the naive scan
/// counts: for windows inside a day and windows that wrap midnight, for
/// events sitting on either (inclusive) window bound, and for no events.
#[test]
fn indexed_density_equals_the_naive_scan() {
    let mut rng = SeededRng::new(0x665e_eaea_bd56_432f);
    for _ in 0..48 {
        let len = rng.range(0usize..80);
        let raw_times: Vec<i64> = (0..len).map(|_| rng.range(0i64..30 * 86_400)).collect();
        let band = (rng.range(0i64..86_400), rng.range(1i64..86_400));
        let start = rng.range(0i64..30 * 86_400);
        let duration = rng.range(1i64..3 * 86_400);
        let start_on_event = rng.range(0usize..80);
        let end_on_event = rng.range(0usize..80);
        let snap = rng.range(0u8..4);
        let ap = AccessPointId::new(0);
        // Events keep to one band of the day, so windows with nothing between
        // their bounds — on either side of midnight — are common.
        let times: Vec<i64> = raw_times
            .iter()
            .map(|&t| t - t % 86_400 + (band.0 + t % band.1) % 86_400)
            .collect();
        let events: Vec<StoredEvent> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| StoredEvent::new(EventId::new(i as u64), t, ap))
            .collect();
        // Optionally put a window bound on an event's second of day.
        let (mut start, mut end) = (start, start + duration);
        if !times.is_empty() && snap & 1 != 0 {
            start = times[start_on_event % times.len()] % 86_400;
            end = start + duration;
        }
        if !times.is_empty() && snap & 2 != 0 {
            end = start - start % 86_400 + 86_400 + times[end_on_event % times.len()] % 86_400;
        }
        let gap = Gap {
            start,
            end,
            prev_t: start - 600,
            next_t: end + 600,
            start_ap: ap,
            end_ap: ap,
        };
        let history = Interval::new(0, 30 * 86_400);
        let wrapping = Gap {
            start: end,
            end: start + 86_400 * 4,
            ..gap
        };
        let indexed = connection_densities(&[gap, wrapping], &events, history);
        assert_eq!(indexed[0], connection_density(&gap, &events, history));
        assert_eq!(indexed[1], connection_density(&wrapping, &events, history));
        assert_eq!(connection_densities(&[gap], &[], history), vec![0.0]);
    }
}
