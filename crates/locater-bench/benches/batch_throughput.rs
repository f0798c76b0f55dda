//! Batch-cleaning throughput bench: `ShardedLocaterService::locate_batch`
//! (one shard) across thread counts on a uniform campus query workload. Demonstrates the scaling of the
//! sharded batch pipeline (answers are identical for every job count, so the
//! comparison is pure throughput).

mod common;

use criterion::{criterion_main, Criterion};
use locater_core::system::{LocateRequest, LocaterConfig, ShardedLocaterService};
use locater_sim::generated_workload;

fn bench(c: &mut Criterion) {
    let fixture = common::fixture();
    let locater = ShardedLocaterService::new(fixture.store.clone(), LocaterConfig::default(), 1);
    let workload = generated_workload(&fixture.output, 2_000, 0xBA7C4);
    let queries: Vec<LocateRequest> = workload
        .queries
        .iter()
        .map(|q| LocateRequest::by_mac(&q.mac, q.t))
        .collect();
    // Warm the per-device coarse models once so every measured batch sees the
    // same model-cache state and the comparison isolates the sharded cleaning.
    let _ = locater.locate_batch(&queries, 8);

    let mut group = c.benchmark_group("batch_throughput");
    for jobs in [1usize, 2, 4, 8] {
        group.bench_function(format!("jobs_{jobs}/queries_{}", queries.len()), |b| {
            b.iter(|| criterion::black_box(locater.locate_batch(&queries, jobs)))
        });
    }
    group.finish();
}

fn benches() {
    let mut criterion = common::criterion();
    bench(&mut criterion);
}

criterion_main!(benches);
