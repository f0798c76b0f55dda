//! Reconstructing one person's day on a DBH-like campus building and scoring the
//! reconstruction against ground truth — the paper's core evaluation loop in miniature
//! (§6.1–6.2).
//!
//! Run with: `cargo run --release --example campus_day`

use locater::core::metrics::{PrecisionCounts, TruthLocation};
use locater::prelude::*;

fn main() {
    // 1. Generate a campus dataset with a monitored ground-truth panel.
    let config = CampusConfig {
        access_points: 10,
        population: 48,
        monitored: 10,
        weeks: 6,
        ..CampusConfig::default()
    };
    let output = Simulator::new(11).run_campus(&config);
    let store = output.build_store();
    println!(
        "campus dataset: {} events, {} devices, {} monitored people, {} weeks",
        store.num_events(),
        store.num_devices(),
        output.monitored().count(),
        config.weeks
    );

    let space = store.space().clone();
    let service = ShardedLocaterService::new(store, LocaterConfig::default(), 1);

    // 2. Pick the most predictable monitored person and replay their last Thursday.
    let person = output
        .monitored()
        .max_by(|a, b| {
            a.measured_predictability
                .partial_cmp(&b.measured_predictability)
                .unwrap()
        })
        .expect("monitored panel is not empty");
    println!(
        "\nreconstructing the day of {} (profile {}, predictability {:.0}%, band {})",
        person.mac,
        person.profile,
        person.measured_predictability * 100.0,
        person.group
    );

    let day = config.weeks * 7 - 4; // the last Thursday of the dataset
    let mut counts = PrecisionCounts::new();
    println!("{:>6} | {:<22} | {:<22}", "time", "LOCATER", "ground truth");
    println!("{}", "-".repeat(58));
    for half_hour in 0..28 {
        let t = locater::events::clock::at(day, 7, half_hour * 30, 0);
        let predicted = service
            .locate(&LocateRequest::by_mac(&person.mac, t))
            .map(|r| r.answer.location)
            .unwrap_or(locater::core::system::Location::Outside);
        let truth_room = output.ground_truth.room_at(&person.mac, t);
        let truth = match truth_room {
            Some(room) => TruthLocation::Room(room),
            None => TruthLocation::Outside,
        };
        counts.record(&space, truth, &predicted);

        let predicted_text = match (predicted.room(), predicted.is_inside()) {
            (Some(room), _) => format!("room {}", space.room(room).name),
            (None, true) => "inside (region only)".to_string(),
            (None, false) => "outside".to_string(),
        };
        let truth_text = match truth_room {
            Some(room) => format!("room {}", space.room(room).name),
            None => "outside".to_string(),
        };
        let sod = locater::events::clock::seconds_of_day(t);
        println!(
            "{:>6} | {:<22} | {:<22}",
            format!("{:02}:{:02}", sod / 3600, (sod % 3600) / 60),
            predicted_text,
            truth_text
        );
    }

    // 3. Score the reconstruction with the paper's metrics.
    let (pc, pf, po) = counts.as_percentages();
    println!(
        "\nday reconstruction precision: Pc = {pc:.1}%, Pf = {pf:.1}%, Po = {po:.1}% over {} probes",
        counts.queries
    );
}
