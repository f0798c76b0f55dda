//! Figure 10 bench: steady-state (warm cache) query latency of I-LOCATER+C vs
//! D-LOCATER+C, and the cold-cache cost of the very first D-LOCATER+C query. The full
//! "average time vs processed queries" curves are produced by `exp_fig10_efficiency`.

mod common;

use criterion::{criterion_main, Criterion};
use locater_core::system::{CacheMode, FineMode, LocaterConfig, ShardedLocaterService};

fn bench(c: &mut Criterion) {
    let fixture = common::fixture();
    let mut group = c.benchmark_group("fig10_efficiency");

    for (label, mode) in [
        ("I-LOCATER+C_warm", FineMode::Independent),
        ("D-LOCATER+C_warm", FineMode::Dependent),
    ] {
        let config = LocaterConfig::default()
            .with_fine_mode(mode)
            .with_cache(CacheMode::Enabled);
        let locater = common::warmed_locater(&fixture, config);
        let query = common::inside_query(&fixture, &locater);
        group.bench_function(label, |b| {
            b.iter(|| criterion::black_box(locater.locate(&query).unwrap().location()))
        });
    }

    // Cold start: a fresh system (empty affinity graph, no cached coarse models)
    // answering its first fine-grained query — the left edge of the Fig. 10 curves.
    let reference = common::warmed_locater(&fixture, LocaterConfig::default());
    let query = common::inside_query(&fixture, &reference);
    group.bench_function("D-LOCATER+C_cold_start", |b| {
        b.iter_with_setup(
            || {
                ShardedLocaterService::new(
                    fixture.store.clone(),
                    LocaterConfig::default()
                        .with_fine_mode(FineMode::Dependent)
                        .with_cache(CacheMode::Enabled),
                    1,
                )
            },
            |locater| criterion::black_box(locater.locate(&query).unwrap().location()),
        )
    });
    group.finish();
}

fn benches() {
    let mut criterion = common::criterion();
    bench(&mut criterion);
}

criterion_main!(benches);
