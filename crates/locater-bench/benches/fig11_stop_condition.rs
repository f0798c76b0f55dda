//! Figure 11 bench: I-LOCATER query latency with and without the loosened stop
//! conditions of §4.2 (without them, every neighbor device is processed).

mod common;

use criterion::{criterion_main, Criterion};
use locater_core::system::{FineMode, LocaterConfig};

fn bench(c: &mut Criterion) {
    let fixture = common::fixture();
    let mut group = c.benchmark_group("fig11_stop_conditions");
    for (label, use_stop) in [
        ("with_stop_conditions", true),
        ("without_stop_conditions", false),
    ] {
        let mut config = LocaterConfig::default().with_fine_mode(FineMode::Independent);
        config.fine.use_stop_conditions = use_stop;
        let locater = common::warmed_locater(&fixture, config);
        let query = common::inside_query(&fixture, &locater);
        group.bench_function(label, |b| {
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
