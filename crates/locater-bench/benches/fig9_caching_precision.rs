//! Figure 9 bench: end-to-end query latency of the cached variants (I-LOCATER+C and
//! D-LOCATER+C) whose precision trade-off `exp_fig9_caching_precision` reports.

mod common;

use criterion::{criterion_main, Criterion};
use locater_core::system::{CacheMode, FineMode, LocaterConfig};

fn bench(c: &mut Criterion) {
    let fixture = common::fixture();
    let mut group = c.benchmark_group("fig9_cached_variants");
    for (label, mode) in [
        ("I-LOCATER+C", FineMode::Independent),
        ("D-LOCATER+C", FineMode::Dependent),
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
    group.finish();
}

fn benches() {
    let mut criterion = common::criterion();
    bench(&mut criterion);
}

criterion_main!(benches);
