//! Property-based integration tests: for arbitrary (small) connectivity logs and
//! query times, the cleaning engine never panics, always produces well-formed answers,
//! and the evaluation metrics stay within their mathematical bounds. Each
//! property runs over seeded random cases.

use locater::core::metrics::{PrecisionCounts, TruthLocation};
use locater::events::SeededRng;
use locater::prelude::*;

fn space() -> Space {
    SpaceBuilder::new("prop")
        .add_access_point("wap0", &["a", "b", "c", "shared"])
        .add_access_point("wap1", &["shared", "d", "e"])
        .add_access_point("wap2", &["f", "g"])
        .room_type("shared", RoomType::Public)
        .room_owner("a", "device-0")
        .room_owner("d", "device-1")
        .build()
        .unwrap()
}

/// 1–119 (device index, timestamp, ap index) triples.
fn arb_events(rng: &mut SeededRng) -> Vec<(u8, i64, u8)> {
    let len = rng.range(1usize..120);
    (0..len)
        .map(|_| {
            (
                rng.range(0u8..4),
                rng.range(0i64..1_500_000),
                rng.range(0u8..3),
            )
        })
        .collect()
}

/// Whatever the log looks like, every query gets a well-formed answer: a room
/// implies a region that covers it, outside implies no region, confidence in
/// [0, 1].
#[test]
fn answers_are_always_well_formed() {
    let mut rng = SeededRng::new(0x0146_4654_8f54_c436);
    for _ in 0..24 {
        let events = arb_events(&mut rng);
        let len = rng.range(1usize..20);
        let probes: Vec<(u8, i64)> = (0..len)
            .map(|_| (rng.range(0u8..4), rng.range(0i64..1_500_000)))
            .collect();
        let space = space();
        let mut store = EventStore::new(space.clone());
        for (device, t, ap) in &events {
            store
                .ingest_raw(&format!("device-{device}"), *t, &format!("wap{ap}"))
                .unwrap();
        }
        store.estimate_deltas();
        let locater = ShardedLocaterService::new(store, LocaterConfig::default(), 1);
        for (device, t) in probes {
            let query = LocateRequest::by_mac(format!("device-{device}"), t);
            match locater.locate(&query).map(|response| response.answer) {
                Ok(answer) => {
                    assert!((0.0..=1.0).contains(&answer.confidence));
                    match (answer.region(), answer.room()) {
                        (Some(region), Some(room)) => {
                            assert!(space.rooms_in_region(region).contains(&room));
                            assert!(answer.is_inside());
                        }
                        (None, None) => assert!(answer.is_outside()),
                        (Some(_), None) => assert!(answer.is_inside()),
                        (None, Some(_)) => panic!("room without region"),
                    }
                }
                Err(e) => {
                    // Only devices absent from the log may fail to resolve.
                    assert!(e.to_string().contains("unknown device"));
                }
            }
        }
    }
}

/// Covered instants are always answered as inside the covering event's region,
/// whatever configuration is used.
#[test]
fn covered_instants_follow_the_log() {
    let mut rng = SeededRng::new(0x956c_021f_18ae_3665);
    for _ in 0..24 {
        let events = arb_events(&mut rng);
        let mode_dependent = rng.next_u64() & 1 == 1;
        let space = space();
        let mut store = EventStore::new(space.clone());
        for (device, t, ap) in &events {
            store
                .ingest_raw(&format!("device-{device}"), *t, &format!("wap{ap}"))
                .unwrap();
        }
        let mode = if mode_dependent {
            FineMode::Dependent
        } else {
            FineMode::Independent
        };
        let locater =
            ShardedLocaterService::new(store, LocaterConfig::default().with_fine_mode(mode), 1);
        // Probe exactly at event timestamps: these are always covered.
        for (device, t, ap) in events.iter().take(25) {
            let answer = locater
                .locate(&LocateRequest::by_mac(format!("device-{device}"), *t))
                .unwrap()
                .answer;
            assert!(answer.is_inside());
            let expected_region = space.ap_id(&format!("wap{ap}")).unwrap().region();
            // The answer's region must cover the AP the device was connected to at
            // that instant — it is either that AP's region or one sharing the room.
            let region = answer.region().unwrap();
            if region != expected_region {
                assert!(space.regions_overlap(region, expected_region));
            }
        }
    }
}

/// The Pc / Pf / Po metrics always stay within [0, 1] and respect the definition
/// Po ≤ Pc (an answer counted in Po is either outside-correct or room-correct,
/// both of which are also counted in Pc).
#[test]
fn precision_metrics_are_bounded() {
    let mut rng = SeededRng::new(0x183c_da05_227a_9f12);
    for _ in 0..24 {
        let len = rng.range(1usize..60);
        let records: Vec<(u8, u8, u8)> = (0..len)
            .map(|_| (rng.range(0u8..4), rng.range(0u8..8), rng.range(0u8..8)))
            .collect();
        let space = space();
        let mut counts = PrecisionCounts::new();
        let rooms = space.num_rooms() as u8;
        for (kind, truth_room, predicted_room) in records {
            let truth = if kind == 0 {
                TruthLocation::Outside
            } else {
                TruthLocation::Room(RoomId::new((truth_room % rooms) as u32))
            };
            let predicted = match kind % 3 {
                0 => locater::core::system::Location::Outside,
                1 => locater::core::system::Location::Region(RegionId::new(
                    (predicted_room % 3) as u32,
                )),
                _ => {
                    let region = RegionId::new((predicted_room % 3) as u32);
                    let candidates = space.rooms_in_region(region);
                    locater::core::system::Location::Room {
                        room: candidates[(predicted_room as usize) % candidates.len()],
                        region,
                    }
                }
            };
            counts.record(&space, truth, &predicted);
        }
        assert!((0.0..=1.0).contains(&counts.pc()));
        assert!((0.0..=1.0).contains(&counts.pf()));
        assert!((0.0..=1.0).contains(&counts.po()));
        assert!(counts.po() <= counts.pc() + 1e-12);
        assert!(counts.correct_room <= counts.correct_region);
        assert!(counts.correct_outside <= counts.truth_outside);
    }
}
