//! Quickstart: the motivating example of the paper (Fig. 1) end to end.
//!
//! A small floor with four WiFi access points whose coverage areas overlap, a handful
//! of devices producing sporadic association events, and LOCATER answering
//! "where was device X at time T?" at room granularity — including for a time that
//! falls in a *gap* of the device's log, where the cleaning engine has to repair the
//! missing value first.
//!
//! Run with: `cargo run --example quickstart`

use locater::prelude::*;

fn main() {
    // ------------------------------------------------------------------
    // 1. Space metadata (paper §2 / Fig. 1a): four APs covering overlapping sets of
    //    rooms on the second floor of "DBH". Room 2065 is a shared conference room,
    //    2061 is the office of the person carrying device 7fbh.
    // ------------------------------------------------------------------
    let space = SpaceBuilder::new("DBH-2F")
        .add_access_point("wap1", &["2002", "2004", "2019", "2026", "2028", "2032"])
        .add_access_point(
            "wap2",
            &["2004", "2057", "2059", "2061", "2064", "2066", "2068"],
        )
        .add_access_point(
            "wap3",
            &["2059", "2061", "2065", "2066", "2068", "2069", "2099"],
        )
        .add_access_point("wap4", &["2082", "2084", "2086", "2088", "2091", "2099"])
        .room_type("2065", RoomType::Public)
        .room_type("2004", RoomType::Public)
        .room_owner("2061", "7fbh")
        .room_owner("2059", "3ndb")
        .build()
        .expect("valid space metadata");
    println!(
        "space: {} access points, {} rooms ({:.1} rooms per AP on average)",
        space.num_access_points(),
        space.num_rooms(),
        space.avg_rooms_per_ap()
    );

    // ------------------------------------------------------------------
    // 2. Raw connectivity events (paper Fig. 1b): sporadic ⟨mac, time, ap⟩ tuples.
    //    Device 7fbh connects to wap3 at 13:04:35 and then not again until 13:18:11 —
    //    the gap of Fig. 1c.
    // ------------------------------------------------------------------
    let day = 3; // a Thursday
    let at = |h: i64, m: i64, s: i64| locater::events::clock::at(day, h, m, s);

    // 7fbh is a chatty laptop whose events are only trusted for ±2 minutes, so the
    // stretch after its 13:04:35 event will be a genuine hole in its log — the
    // missing value of Fig. 1(c) that the coarse cleaning step has to repair.
    // δ is store configuration: it is set before the service is built.
    let mut store = EventStore::new(space.clone());
    let laptop = store.intern_device("7fbh").expect("a valid identifier");
    store.set_delta(laptop, 120);

    // The service starts over a store with no events and ingests the live
    // event stream as it arrives — the always-on regime the paper's service
    // framing targets.
    let service = ShardedLocaterService::new(store, LocaterConfig::default(), 1);
    let events = [
        ("7fbh", at(12, 45, 2), "wap3"),
        ("7fbh", at(13, 4, 35), "wap3"),
        ("3ndb", at(13, 5, 17), "wap3"),
        ("dj8c", at(13, 5, 39), "wap3"),
        ("ws7m", at(13, 9, 11), "wap2"),
    ];
    for (mac, t, ap) in events {
        service.ingest(mac, t, ap).expect("event ingests");
    }
    println!(
        "ingested {} events from {} devices",
        service.num_events(),
        service.num_devices()
    );

    // ------------------------------------------------------------------
    // 3. Ask LOCATER where device 7fbh was at 13:10. The device has not been
    //    seen since 13:04:35, so with nothing after the query time the service
    //    can only answer from the observed span.
    // ------------------------------------------------------------------
    let query_time = at(13, 10, 0);
    let before = service
        .locate(&LocateRequest::by_mac("7fbh", query_time))
        .expect("device exists in the log");
    println!(
        "\nquery: where was 7fbh at {}?",
        locater::events::clock::format_timestamp(query_time)
    );
    describe_answer(&space, &before.answer);

    // ------------------------------------------------------------------
    // 4. The laptop reconnects at 13:18:11 (Fig. 1b's last 7fbh event). The
    //    ingest bumps the device's epoch — invalidating exactly the cached
    //    state derived from its history — and the *same* query now falls in a
    //    closed gap that the cleaning engine classifies properly.
    // ------------------------------------------------------------------
    service.ingest("7fbh", at(13, 18, 11), "wap3").unwrap();
    service.ingest("34sd", at(13, 20, 14), "wap1").unwrap();
    let after = service
        .locate(&LocateRequest::by_mac("7fbh", query_time))
        .expect("device exists in the log");
    println!(
        "\nafter the 13:18:11 event arrived (device epoch {} -> {}):",
        before.device_epoch, after.device_epoch
    );
    describe_answer(&space, &after.answer);

    // A query at a covered instant needs no cleaning at all.
    let covered = service
        .locate(&LocateRequest::by_mac("7fbh", at(13, 5, 40)))
        .expect("device exists");
    println!(
        "at 13:05:40 (covered by an event) the device is in room {}",
        space
            .room(covered.answer.room().expect("room-level answer"))
            .name
    );

    // And a query long after the last event is answered as outside.
    let outside = service
        .locate(&LocateRequest::by_mac("7fbh", at(23, 30, 0)))
        .expect("device exists");
    println!(
        "at 23:30 the device is {}",
        if outside.answer.is_outside() {
            "outside the building"
        } else {
            "still inside"
        }
    );
}

/// Prints one answer at whatever granularity it was resolved to.
fn describe_answer(space: &Space, answer: &Answer) {
    match (answer.is_inside(), answer.region(), answer.room()) {
        (false, _, _) => println!("answer: outside the building"),
        (true, Some(region), Some(room)) => {
            println!(
                "answer: inside, region {} (AP {}), room {} — decided by {:?} with confidence {:.2}",
                region,
                space.access_point(space.ap_of_region(region)).name,
                space.room(room).name,
                answer.coarse_method,
                answer.confidence,
            );
        }
        (true, region, room) => println!("answer: inside ({region:?}, {room:?})"),
    }
}
