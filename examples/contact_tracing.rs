//! Room-level exposure analysis ("who shared a room with the index case?") — the
//! COVID-19 use case the paper's introduction calls out: determining possible contacts
//! of an infected individual from data the WiFi network already collects, with no app
//! installs and no extra hardware.
//!
//! Run with: `cargo run --release --example contact_tracing`

use locater::prelude::*;
use std::collections::BTreeMap;

fn main() {
    // 1. Simulate a university building for two weeks.
    let config = locater::sim::ScenarioConfig::new(ScenarioKind::University)
        .with_days(14)
        .with_scale(0.35)
        .with_seed(3);
    let output = Simulator::new(5).run_scenario(&config);
    let store = output.build_store();
    println!(
        "university dataset: {} events from {} devices",
        store.num_events(),
        store.num_devices()
    );

    // D-FINE is requested per query through the request layer; the service
    // itself keeps the default (I-FINE) configuration.
    let space = store.space().clone();
    let service = ShardedLocaterService::new(store, LocaterConfig::default(), 1);
    let dependent =
        |mac: &str, t| LocateRequest::by_mac(mac, t).with_fine_mode(FineMode::Dependent);

    // 2. The index case and the exposure day: the monitored person who spent the most
    //    time in the building on day 10 (ties broken toward students, who move through
    //    shared spaces — library, lounges, lecture halls — where exposure happens).
    let day = 10;
    let day_window = locater::events::Interval::new(
        locater::events::clock::at(day, 0, 0, 0),
        locater::events::clock::at(day + 1, 0, 0, 0),
    );
    let index_case = output
        .monitored()
        .max_by_key(|p| {
            let inside: i64 = output
                .ground_truth
                .stays_of(&p.mac)
                .iter()
                .map(|s| s.interval.overlap_duration(&day_window))
                .sum();
            (inside, p.profile == "Undergraduate")
        })
        .expect("monitored people exist");
    println!(
        "\nindex case: {} ({}), exposure window: day {day} 08:00–20:00, probe every 15 minutes",
        index_case.mac, index_case.profile
    );

    // 3. Sweep the day: wherever LOCATER places the index case in a room, ask it where
    //    every other device is and accumulate shared-room minutes.
    let all_devices: Vec<String> = output.people.iter().map(|p| p.mac.clone()).collect();
    let mut exposure_minutes: BTreeMap<String, i64> = BTreeMap::new();
    let mut rooms_visited: BTreeMap<String, i64> = BTreeMap::new();
    let probe_minutes = 15;
    for probe in 0..(12 * 60 / probe_minutes) {
        let t = locater::events::clock::at(day, 8, probe * probe_minutes, 0);
        let Ok(index_response) = service.locate(&dependent(&index_case.mac, t)) else {
            continue;
        };
        let Some(index_room) = index_response.answer.room() else {
            continue; // outside or region-only: no room-level exposure
        };
        *rooms_visited
            .entry(space.room(index_room).name.clone())
            .or_insert(0) += probe_minutes;
        for other in &all_devices {
            if other == &index_case.mac {
                continue;
            }
            if let Ok(response) = service.locate(&dependent(other, t)) {
                if response.answer.room() == Some(index_room) {
                    *exposure_minutes.entry(other.clone()).or_insert(0) += probe_minutes;
                }
            }
        }
    }

    // 4. Report: where the index case spent the day, and the ranked exposure list.
    println!("\nrooms the index case was placed in:");
    for (room, minutes) in &rooms_visited {
        println!("  {room}: {minutes} min");
    }

    let mut ranked: Vec<(&String, &i64)> = exposure_minutes.iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
    println!("\ndevices with at least 15 minutes of shared-room exposure:");
    let mut alerts = 0;
    for (mac, minutes) in &ranked {
        if **minutes >= 15 {
            let profile = output
                .person(mac)
                .map(|p| p.profile.as_str())
                .unwrap_or("unknown");
            println!("  {mac} ({profile}): {minutes} min");
            alerts += 1;
        }
    }
    if alerts == 0 {
        println!("  (none — the index case mostly had rooms to themselves)");
    }
    println!(
        "\n{} of {} candidate devices would receive an exposure notification",
        alerts,
        ranked.len()
    );
}
