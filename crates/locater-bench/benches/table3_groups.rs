//! Table 3 bench: per-query latency of the four systems Table 3 compares
//! (Baseline1, Baseline2, I-LOCATER, D-LOCATER). The precision comparison per
//! predictability group is produced by `exp_table3_groups`.

mod common;

use criterion::{criterion_main, Criterion};
use locater_core::baselines::{Baseline1, Baseline2, BaselineSystem};
use locater_core::system::{FineMode, LocaterConfig};

fn bench(c: &mut Criterion) {
    let fixture = common::fixture();
    let locater = common::warmed_locater(&fixture, LocaterConfig::default());
    let query = common::inside_query(&fixture, &locater);
    let device = locater.resolve(&query).unwrap();

    let mut group = c.benchmark_group("table3_systems");
    group.bench_function("Baseline1", |b| {
        let mut baseline = Baseline1::default();
        b.iter(|| criterion::black_box(baseline.locate(&fixture.store, device, query.t).location))
    });
    group.bench_function("Baseline2", |b| {
        let mut baseline = Baseline2::default();
        b.iter(|| criterion::black_box(baseline.locate(&fixture.store, device, query.t).location))
    });
    for (label, mode) in [
        ("I-LOCATER", FineMode::Independent),
        ("D-LOCATER", FineMode::Dependent),
    ] {
        let system =
            common::warmed_locater(&fixture, LocaterConfig::default().with_fine_mode(mode));
        group.bench_function(label, |b| {
            b.iter(|| criterion::black_box(system.locate(&query).unwrap().location()))
        });
    }
    group.finish();
}

fn benches() {
    let mut criterion = common::criterion();
    bench(&mut criterion);
}

criterion_main!(benches);
