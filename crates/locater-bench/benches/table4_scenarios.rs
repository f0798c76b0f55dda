//! Table 4 bench: D-LOCATER query latency on each of the four simulated scenarios
//! (office, university, mall, airport). The per-profile accuracy table is produced by
//! `exp_table4_scenarios`.

mod common;

use criterion::{criterion_main, Criterion};
use locater_bench::datasets::{scenario_fixture, BenchScale};
use locater_core::system::{FineMode, LocateRequest, LocaterConfig, ShardedLocaterService};
use locater_sim::ScenarioKind;

fn bench(c: &mut Criterion) {
    let scale = BenchScale::micro();
    let mut group = c.benchmark_group("table4_scenarios");
    for kind in ScenarioKind::ALL {
        let fixture = scenario_fixture(kind, &scale);
        let locater = ShardedLocaterService::new(
            fixture.store.clone(),
            LocaterConfig::default().with_fine_mode(FineMode::Dependent),
            1,
        );
        // Warm the per-device models with a few workload queries, then pick one that
        // resolves to a room.
        let mut chosen = None;
        for workload_query in fixture.workload.queries.iter().take(20) {
            let query = LocateRequest::by_mac(&workload_query.mac, workload_query.t);
            if let Ok(response) = locater.locate(&query) {
                if response.answer.is_inside() && chosen.is_none() {
                    chosen = Some(query.clone());
                }
            }
        }
        let query = chosen.unwrap_or_else(|| {
            let first = &fixture.workload.queries[0];
            LocateRequest::by_mac(&first.mac, first.t)
        });
        group.bench_function(kind.name(), |b| {
            b.iter(|| criterion::black_box(locater.locate(&query).unwrap().location()))
        });
    }
    group.finish();
}

fn benches() {
    let mut criterion = common::criterion();
    bench(&mut criterion);
}

criterion_main!(benches);
