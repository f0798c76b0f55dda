//! Property-based tests of the simulator's invariants: trajectories are well-formed,
//! connectivity events are consistent with trajectories and with the space, and
//! ground-truth bookkeeping matches the generated data. Each property runs
//! over seeded random cases.

use locater_events::SeededRng;
use locater_sim::{CampusConfig, ScenarioConfig, ScenarioKind, Simulator};

/// A campus of 2–5 APs with 4–7 rooms each, 4–19 people, 1–2 weeks and any
/// seed.
fn arb_campus(rng: &mut SeededRng) -> CampusConfig {
    let access_points = rng.range(2usize..6);
    let rooms_per_ap = rng.range(4usize..8);
    let population = rng.range(4usize..20);
    let weeks = rng.range(1i64..3);
    CampusConfig {
        access_points,
        rooms_per_ap,
        overlap: 2,
        population,
        visitors: population / 4,
        monitored: (population / 3).max(1),
        weeks,
        seed: rng.next_u64(),
    }
}

/// Whatever the campus configuration, the generated dataset is internally
/// consistent: stays are disjoint and ordered per person, every connectivity event
/// belongs to a simulated person and happens while that person is inside the
/// building (within the AP coverage of the room they occupy), and predictability
/// measurements stay within [0, 1].
#[test]
fn campus_generation_is_internally_consistent() {
    let mut rng = SeededRng::new(0xfbc9_ea0c_ea13_4218);
    for _ in 0..12 {
        let config = arb_campus(&mut rng);
        let output = Simulator::new(1).run_campus(&config);
        let space = &output.space;

        // Ground-truth stays: ordered, disjoint, positive duration.
        for record in &output.people {
            let stays = output.ground_truth.stays_of(&record.mac);
            for window in stays.windows(2) {
                assert!(window[0].interval.end <= window[1].interval.start);
            }
            for stay in stays {
                assert!(stay.duration() > 0);
                assert!(stay.room.index() < space.num_rooms());
            }
            assert!((0.0..=1.0).contains(&record.measured_predictability));
        }

        // Connectivity events: known device, known AP, and the AP covers the room the
        // person is in at that instant.
        for event in output.events.iter().take(400) {
            let person = output.person(&event.mac);
            assert!(person.is_some(), "event from unknown device {}", event.mac);
            let ap = space.ap_id(&event.ap);
            assert!(ap.is_some(), "event on unknown AP {}", event.ap);
            let room = output.ground_truth.room_at(&event.mac, event.t);
            assert!(room.is_some(), "event while outside the building");
            let room = room.unwrap();
            let region = ap.unwrap().region();
            assert!(
                space.rooms_in_region(region).contains(&room),
                "event attributed to an AP that does not cover room {room}"
            );
        }

        // The store ingests everything the simulator produced.
        let store = output.build_store();
        assert_eq!(store.num_events(), output.events.len());
        assert!(store.num_devices() <= output.people.len());
    }
}

/// Scenario generation produces every Table-4 profile and only rooms/APs of its
/// own space, for every scenario kind and any seed.
#[test]
fn scenarios_generate_all_profiles() {
    let mut rng = SeededRng::new(0xaae6_de84_3fd4_ed05);
    for _ in 0..12 {
        let seed = rng.next_u64();
        let kind_idx = rng.range(0usize..4);
        let kind = ScenarioKind::ALL[kind_idx];
        let config = ScenarioConfig::new(kind)
            .with_days(3)
            .with_scale(0.15)
            .with_seed(seed);
        let output = Simulator::new(3).run_scenario(&config);
        for profile in kind.profiles() {
            assert!(
                output.people.iter().any(|p| p.profile == profile),
                "{kind} missing {profile}"
            );
        }
        for event in output.events.iter().take(200) {
            assert!(output.space.ap_id(&event.ap).is_some());
        }
        // Workloads only reference simulated devices.
        let workload = locater_sim::university_workload(&output, 3, seed);
        for query in &workload.queries {
            assert!(output.person(&query.mac).is_some());
        }
    }
}
