//! Table 2 bench: fine-grained localization latency under the four room-affinity
//! weight combinations C1..C4 (the precision comparison is produced by
//! `exp_table2_weights`).

mod common;

use criterion::{criterion_main, Criterion};
use locater_core::fine::{FineConfig, FineLocalizer, RoomAffinityWeights};

fn bench(c: &mut Criterion) {
    let fixture = common::fixture();
    let locater = common::warmed_locater(&fixture, Default::default());
    let query = common::inside_query(&fixture, &locater);
    let device = locater.resolve(&query).unwrap();
    let region = locater
        .locate(&query)
        .ok()
        .and_then(|response| response.answer.region())
        .unwrap_or(locater_space::RegionId::new(0));

    let mut group = c.benchmark_group("table2_fine_weights");
    for (label, weights) in ["C1", "C2", "C3", "C4"]
        .iter()
        .zip(RoomAffinityWeights::TABLE2)
    {
        let localizer = FineLocalizer::new(FineConfig {
            weights,
            ..FineConfig::default()
        });
        group.bench_function(*label, |b| {
            b.iter(|| {
                criterion::black_box(
                    localizer
                        .locate(&fixture.store, device, query.t, region, None)
                        .room,
                )
            })
        });
    }
    group.finish();
}

fn benches() {
    let mut criterion = common::criterion();
    bench(&mut criterion);
}

criterion_main!(benches);
