//! Live-service bench: interleaved ingestion and querying through
//! a single-shard `ShardedLocaterService`, tracked alongside `batch_throughput` so the cost of
//! epoch-based cache invalidation shows up in the perf trajectory.
//!
//! Three measurements:
//! * `locate_warm`   — queries only, cache allowed to stay warm (baseline);
//! * `ingest_only`   — appending a batch of events (the write path alone);
//! * `ingest_then_locate` — a batch of appends followed by queries, so every
//!   round pays the invalidation the appends caused.

mod common;

use criterion::{criterion_main, Criterion};
use locater_core::system::{LocateRequest, LocaterConfig, ShardedLocaterService};
use locater_store::RawEvent;

/// The devices and query times the bench rounds cycle through, plus a cursor
/// generating fresh future events for those devices.
struct LiveWorkload {
    service: ShardedLocaterService,
    requests: Vec<LocateRequest>,
    macs: Vec<String>,
    ap: String,
    cursor: i64,
}

fn workload() -> LiveWorkload {
    let fixture = common::fixture();
    let service = ShardedLocaterService::new(fixture.store.clone(), LocaterConfig::default(), 1);
    let requests: Vec<LocateRequest> = fixture
        .university
        .queries
        .iter()
        .take(24)
        .map(|q| LocateRequest::by_mac(&q.mac, q.t))
        .collect();
    // The devices the queries target are the ones whose invalidation matters.
    let macs: Vec<String> = requests.iter().filter_map(|r| r.mac.clone()).collect();
    let ap = fixture.store.space().access_point(0.into()).name.clone();
    let cursor = fixture.store.time_span().map(|span| span.end).unwrap_or(0);
    LiveWorkload {
        service,
        requests,
        macs,
        ap,
        cursor,
    }
}

impl LiveWorkload {
    /// The next batch of future events: one fresh event per queried device,
    /// timestamps strictly advancing so every round appends at the log tail.
    fn next_chunk(&mut self) -> Vec<RawEvent> {
        let chunk: Vec<RawEvent> = self
            .macs
            .iter()
            .enumerate()
            .map(|(idx, mac)| RawEvent::new(mac, self.cursor + idx as i64, &self.ap))
            .collect();
        self.cursor += self.macs.len() as i64 + 60;
        chunk
    }

    fn locate_all(&self) -> usize {
        self.requests
            .iter()
            .filter(|request| self.service.locate(request).is_ok())
            .count()
    }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ingest_then_locate");

    let warm = workload();
    // Warm the models and the affinity graph once so `locate_warm` measures
    // the steady state the ingest rounds will keep invalidating.
    warm.locate_all();
    group.bench_function(
        format!("locate_warm/queries_{}", warm.requests.len()),
        |b| b.iter(|| criterion::black_box(warm.locate_all())),
    );

    let mut ingest = workload();
    group.bench_function(format!("ingest_only/events_{}", ingest.macs.len()), |b| {
        b.iter(|| {
            let chunk = ingest.next_chunk();
            criterion::black_box(ingest.service.ingest_batch(chunk.iter()).unwrap())
        })
    });

    let mut live = workload();
    live.locate_all();
    group.bench_function(
        format!(
            "ingest_then_locate/events_{}_queries_{}",
            live.macs.len(),
            live.requests.len()
        ),
        |b| {
            b.iter(|| {
                let chunk = live.next_chunk();
                live.service.ingest_batch(chunk.iter()).unwrap();
                criterion::black_box(live.locate_all())
            })
        },
    );

    group.finish();
}

fn benches() {
    let mut criterion = common::criterion();
    bench(&mut criterion);
}

criterion_main!(benches);
