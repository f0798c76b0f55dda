//! Ablation benches for the design choices called out in `DESIGN.md`:
//! neighbor-processing order, the self-training loop, and the validity period δ.
//! The corresponding precision comparisons are produced by `exp_ablations`.

mod common;

use criterion::{criterion_main, Criterion};
use locater_core::coarse::{CoarseConfig, CoarseLocalizer};
use locater_core::system::{CacheMode, FineMode, LocaterConfig};
use locater_events::clock;

fn bench(c: &mut Criterion) {
    let fixture = common::fixture();

    // 1. Neighbor processing order: warm cached order vs natural order.
    let mut group = c.benchmark_group("ablation_neighbor_order");
    for (label, cache) in [
        ("cached_affinity_order", CacheMode::Enabled),
        ("natural_order", CacheMode::Disabled),
    ] {
        let config = LocaterConfig::default()
            .with_fine_mode(FineMode::Independent)
            .with_cache(cache);
        let locater = common::warmed_locater(&fixture, config);
        let query = common::inside_query(&fixture, &locater);
        group.bench_function(label, |b| {
            b.iter(|| criterion::black_box(locater.locate(&query).unwrap().location()))
        });
    }
    group.finish();

    // 2. Self-training: full Algorithm 1 vs bootstrap-labels-only training.
    let device = fixture
        .store
        .device_id(&fixture.output.monitored().next().unwrap().mac)
        .unwrap();
    let until = fixture.store.time_span().unwrap().end;
    let mut group = c.benchmark_group("ablation_self_training");
    for (label, rounds) in [("with_self_training", 400usize), ("bootstrap_only", 0)] {
        let mut config = CoarseConfig::default();
        config.self_training.max_rounds = rounds;
        let localizer = CoarseLocalizer::new(config);
        group.bench_function(label, |b| {
            b.iter(|| {
                criterion::black_box(
                    localizer
                        .train_device_model(&fixture.store, device, until)
                        .training_gaps,
                )
            })
        });
    }
    group.finish();

    // 3. Validity period δ: the cost of gap detection under different δ policies.
    let mut group = c.benchmark_group("ablation_validity_delta");
    for (label, delta) in [
        ("delta_2_minutes", clock::minutes(2)),
        ("delta_estimated", fixture.store.delta(device)),
        ("delta_30_minutes", clock::minutes(30)),
    ] {
        let timeline = fixture.store.timeline_of(device);
        group.bench_function(label, |b| {
            b.iter(|| criterion::black_box(timeline.gaps(delta).len()))
        });
    }
    group.finish();
}

fn benches() {
    let mut criterion = common::criterion();
    bench(&mut criterion);
}

criterion_main!(benches);
