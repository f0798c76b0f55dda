//! Building-occupancy analysis for HVAC control — one of the applications the paper's
//! introduction motivates.
//!
//! The example simulates an office building for two weeks, then uses LOCATER to
//! estimate how many people are in each *region* (AP coverage area) at every hour of a
//! workday. Facility systems drive ventilation per zone from exactly this kind of
//! aggregate, and it only works if localization is passive (no app installs) — which
//! is LOCATER's selling point.
//!
//! Run with: `cargo run --release --example office_occupancy`

use locater::prelude::*;
use std::collections::BTreeMap;

fn main() {
    // 1. Synthetic office dataset (SmartBench-style scenario of paper §6.3).
    let config = locater::sim::ScenarioConfig::new(ScenarioKind::Office)
        .with_days(14)
        .with_scale(0.4)
        .with_seed(42);
    let output = Simulator::new(7).run_scenario(&config);
    let store = output.build_store();
    println!(
        "simulated {}: {} events from {} devices over {} days",
        ScenarioKind::Office,
        store.num_events(),
        store.num_devices(),
        output.days
    );

    // 2. A live LOCATER service over the dataset (an HVAC deployment keeps
    //    ingesting events; here the dataset is static for reproducibility).
    let space = store.space().clone();
    let service = ShardedLocaterService::new(store, LocaterConfig::default(), 1);

    // 3. Occupancy per region for every hour of the second Wednesday (day 9),
    //    each hour answered as one deterministic batch through the typed
    //    request layer.
    let day = 9;
    let devices: Vec<String> = output.people.iter().map(|p| p.mac.clone()).collect();
    println!("\nestimated occupancy per region (day {day}, hourly):");
    print!("{:>5}", "hour");
    for region_idx in 0..space.num_regions() {
        print!("{:>7}", format!("g{region_idx}"));
    }
    println!("{:>9}", "outside");

    let jobs = std::thread::available_parallelism().map_or(2, |n| n.get());
    let mut daily_peak: BTreeMap<u32, usize> = BTreeMap::new();
    for hour in 7..20 {
        let t = locater::events::clock::at(day, hour, 30, 0);
        let requests: Vec<LocateRequest> = devices
            .iter()
            .map(|mac| LocateRequest::by_mac(mac, t))
            .collect();
        let mut per_region: BTreeMap<u32, usize> = BTreeMap::new();
        let mut outside = 0usize;
        for response in service.locate_batch(&requests, jobs) {
            match response {
                Ok(response) => match response.answer.region() {
                    Some(region) => *per_region.entry(region.raw()).or_insert(0) += 1,
                    None => outside += 1,
                },
                Err(_) => outside += 1, // device never appeared in the log
            }
        }
        print!("{:>5}", format!("{hour}:30"));
        for region_idx in 0..space.num_regions() as u32 {
            let count = per_region.get(&region_idx).copied().unwrap_or(0);
            print!("{count:>7}");
            let peak = daily_peak.entry(region_idx).or_insert(0);
            *peak = (*peak).max(count);
        }
        println!("{outside:>9}");
    }

    // 4. A zone-level summary an HVAC controller would consume.
    println!("\npeak occupancy per zone (sizing input for ventilation):");
    for (region_idx, peak) in daily_peak {
        let region = RegionId::new(region_idx);
        let ap = space.access_point(space.ap_of_region(region));
        println!(
            "  zone {region} (AP {}, {} rooms): peak {} people",
            ap.name,
            space.rooms_in_region(region).len(),
            peak
        );
    }
}
