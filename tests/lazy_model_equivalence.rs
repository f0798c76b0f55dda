//! **When a coarse model's classifiers are fitted cannot show in an answer.**
//!
//! The service caches a per-device coarse model as a *window* and fits its
//! classifiers the first time a gap needs them (one the duration thresholds
//! τ_l / τ_h leave undecided). The fitted part is a pure function of the
//! device's events in the window, the entry is dropped (by epoch) as soon as
//! the device gets another event, and compaction — the one mutation that
//! removes events without bumping an epoch — fits what it is about to take
//! inputs away from. So a lazy service must be indistinguishable from one
//! that fits every model the moment it is cached.
//!
//! That eager service is not a second implementation: it is the same service
//! with `fit_pending_models(i64::MAX)` called after every operation.

use locater::events::clock;
use locater::prelude::*;
use locater::proto::{encode_response, WireResponse};
use locater::sim::workload::generated_workload;
use locater::store::RawEvent;

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn wire(response: &Result<LocateResponse, impl std::fmt::Display>) -> String {
    match response {
        Ok(response) => encode_response(&WireResponse::located(response)),
        Err(e) => format!("error: {e}"),
    }
}

/// Applies `op` to the lazy service and to its eager twin (which then fits
/// everything pending) and returns both results.
fn on_both<R>(
    lazy: &ShardedLocaterService,
    eager: &ShardedLocaterService,
    op: impl Fn(&ShardedLocaterService) -> R,
) -> (R, R) {
    let a = op(lazy);
    let b = op(eager);
    eager.fit_pending_models(i64::MAX);
    (a, b)
}

/// One seeded interleaving of locates at generated (device, time) pairs —
/// uniform over the population and the span, so covered instants, decisive
/// gaps and ambiguous gaps all occur — frontier and late ingests, batches at
/// one and two jobs, and compaction runs, applied to a lazy service and its
/// eager twin. Returns the lazy service's answers as wire lines.
fn run_interleaving(out: &SimOutput, shards: usize, seed: u64) -> Vec<String> {
    let mut config = LocaterConfig::default();
    // Shorter than the data, so that compaction meets windows on both sides
    // of its horizon.
    config.coarse.history = clock::days(6);
    let retain = clock::days(9);

    // The first 70 % of the events boot both services, except every 23rd,
    // which arrives late; the rest arrives in order while queries run.
    let boot_len = out.events.len() * 7 / 10;
    let (boot, frontier) = out.events.split_at(boot_len);
    let (late, boot): (Vec<_>, Vec<_>) = boot.iter().enumerate().partition(|(i, _)| i % 23 == 7);
    let late: Vec<&RawEvent> = late.into_iter().map(|(_, e)| e).collect();
    let service = || {
        let mut store = EventStore::new(out.space.clone());
        store
            .ingest_batch(boot.iter().map(|(_, e)| *e))
            .expect("boot events ingest");
        store.estimate_deltas();
        ShardedLocaterService::new(store, config, shards)
    };
    let (lazy, eager) = (service(), service());

    let queries = generated_workload(out, 4_000, seed).queries;
    let mut queries = queries.iter().map(|q| LocateRequest::by_mac(&q.mac, q.t));
    let (mut frontier, mut late) = (frontier.iter(), late.into_iter());
    let mut rng = Lcg(seed);
    let mut transcript = Vec::new();
    let mut compactions = 0u64;
    for step in 0..420 {
        match rng.below(20) {
            0..=10 => {
                let request = queries.next().expect("enough queries");
                let (a, b) = on_both(&lazy, &eager, |s| s.locate(&request));
                assert_eq!(wire(&a), wire(&b), "locate diverged at step {step}");
                transcript.push(wire(&a));
            }
            11..=13 => {
                let chunk: Vec<&RawEvent> = frontier.by_ref().take(40).collect();
                on_both(&lazy, &eager, |s| {
                    s.ingest_batch(chunk.iter().copied()).expect("frontier")
                });
            }
            14 | 15 => {
                if let Some(event) = late.next() {
                    on_both(&lazy, &eager, |s| {
                        s.ingest(&event.mac, event.t, &event.ap).expect("late")
                    });
                }
            }
            16..=18 => {
                let requests: Vec<LocateRequest> =
                    queries.by_ref().take(5 + rng.below(20) as usize).collect();
                let jobs = 1 + rng.below(2) as usize;
                let (a, b) = on_both(&lazy, &eager, |s| s.locate_batch(&requests, jobs));
                for (a, b) in a.iter().zip(&b) {
                    assert_eq!(wire(a), wire(b), "batch diverged at step {step}");
                    transcript.push(wire(a));
                }
            }
            _ => {
                let (a, b) = on_both(&lazy, &eager, |s| s.compact_all(retain, None).unwrap());
                assert_eq!(a, b);
                compactions = a.runs;
            }
        }
    }
    assert!(
        compactions >= 2,
        "the interleaving must compact: {compactions}"
    );

    // Every entry the lazy service fitted — on an ambiguous query, in a batch
    // worker, or ahead of an eviction — holds what the twin fitted eagerly.
    let (mut fitted, mut unfitted) = (0, 0);
    for person in &out.people {
        let Some(device) = lazy.device_id(&person.mac) else {
            continue;
        };
        match (lazy.cached_model(device), eager.cached_model(device)) {
            (Some(a), Some(b)) => {
                assert_eq!((a.epoch, a.model.history), (b.epoch, b.model.history));
                if a.model.is_fitted() {
                    fitted += 1;
                    assert_eq!(*a.model, *b.model, "lazily fitted classifiers differ");
                } else {
                    unfitted += 1;
                }
            }
            (a, b) => assert!(a.is_none() && b.is_none(), "one side cached, one did not"),
        }
    }
    assert!(
        fitted >= 3 && unfitted >= 3,
        "both kinds of entry must occur: {fitted} fitted, {unfitted} not"
    );
    transcript
}

#[test]
fn a_lazy_service_and_its_eager_twin_answer_byte_identically() {
    let out = Simulator::new(3).run_campus(&CampusConfig::small().with_weeks(3));
    let one = run_interleaving(&out, 1, 0xFEED);
    let three = run_interleaving(&out, 3, 0xFEED);
    assert!(one.len() > 400);
    assert_eq!(one, three, "shard count showed in an answer");
}

/// A model cached by a query that never needed its classifiers, a compaction
/// that evicts most of what they would be fitted on, then the first query
/// that does need them: the answer must be the one an uncompacted service
/// gives, i.e. the classifiers must have been fitted before the eviction.
#[test]
fn compaction_fits_a_pending_model_before_evicting_its_inputs() {
    let space = SpaceBuilder::new("lazy-compaction")
        .add_access_point("wap0", &["office", "lounge"])
        .room_type("lounge", RoomType::Public)
        .build()
        .unwrap();
    let mut config = LocaterConfig::default();
    // Everything within one day and one region; δ is the default 600 s, so a
    // gap lasts its events' spacing − 1200 s.
    config.coarse.tau_low = 300;
    config.coarse.tau_high = 3_000;
    config.coarse.region_tau_low = 300;
    config.coarse.region_tau_high = 600;
    config.coarse.history = 40_000;
    config.fine.affinity_window = 2_000;
    let service = || {
        let store = EventStore::new(space.clone());
        let service = ShardedLocaterService::new(store, config, 2);
        // Below 9 000: two inside gaps and an outside one, the bulk of what a
        // window ending at 14 000 is fitted on. From 9 000: one ambiguous and
        // one outside gap (a single class: not enough to fit on).
        for t in [
            1_000, 2_400, 3_800, 8_300, 9_700, 11_700, 16_300, 17_700, 19_700, 21_100,
        ] {
            service.ingest("d", t, "wap0").unwrap();
        }
        service
    };
    let bytes = |service: &ShardedLocaterService, t| {
        let mut response = service.locate(&LocateRequest::by_mac("d", t)).unwrap();
        response.events_seen = 0; // the compacted store holds fewer by design
        encode_response(&WireResponse::located(&response))
    };
    let (compacted, reference) = (service(), service());
    let device = compacted.device_id("d").unwrap();
    let is_fitted = |service: &ShardedLocaterService| {
        let entry = service.cached_model(device).expect("cached");
        entry.model.is_fitted()
    };

    // 14 000 lies in the outside gap [12 300, 15 700): decided by duration.
    assert_eq!(bytes(&compacted, 14_000), bytes(&reference, 14_000));
    assert!(!is_fitted(&compacted) && !is_fitted(&reference));

    let status = compacted.compact_to(9_000, None).unwrap();
    assert_eq!(status.evicted_events, 4);
    assert!(is_fitted(&compacted), "fitted ahead of the eviction");
    assert!(!is_fitted(&reference));

    // 18 700 lies in the ambiguous gap [18 300, 19 100), covered by the entry
    // the first query cached.
    let response = compacted
        .locate(&LocateRequest::by_mac("d", 18_700).with_diagnostics())
        .unwrap();
    let diagnostics = response.diagnostics.expect("asked for");
    assert!(diagnostics.coarse_model_reused);
    assert_eq!(
        diagnostics.coarse.method,
        locater::core::coarse::CoarseMethod::Classifier
    );
    assert_eq!(bytes(&compacted, 18_700), bytes(&reference, 18_700));
    assert!(is_fitted(&reference));
}
