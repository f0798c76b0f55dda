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
//! with `fit_pending_models(i64::MAX)` called after every operation — the
//! twin of the shared harness in `support/twin.rs`, which also checks that a
//! model the lazy side fitted holds the twin's classifiers wherever both
//! sides hold a model of the same window (a lazy miss that fits nothing may
//! cache a newer window where the twin keeps its fitted one). Every run of
//! every covering row holds fitted and unfitted lazy models at its checks.

use crate::support::{fixture, twin};
use locater::prelude::*;
use locater::proto::encode_response;

/// The covering rows with one and two shards and no WAL, one in each fine
/// mode (R0, R3): every run holds fitted and unfitted lazy models at its
/// checks.
#[test]
fn a_lazy_service_and_its_eager_twin_answer_byte_identically() {
    twin::check(0);
    twin::check(3);
}

/// A model cached by a query that never needed its classifiers, a compaction
/// that evicts most of what they would be fitted on, then the first query
/// that does need them: the answer must be the one an uncompacted service
/// gives, i.e. the classifiers must have been fitted before the eviction.
#[test]
fn compaction_fits_a_pending_model_before_evicting_its_inputs() {
    let mut config = LocaterConfig::default();
    // Everything within one day and one region; δ is the default 600 s, so a
    // gap lasts its events' spacing − 1200 s.
    config.coarse.tau_low = 300;
    config.coarse.tau_high = 3_000;
    config.coarse.region_tau_low = 300;
    config.coarse.region_tau_high = 600;
    // The model grid is the history: queries in [40 000, 80 000) are
    // classified by the window [0, 40 000).
    config.coarse.history = 40_000;
    config.fine.affinity_window = 2_000;
    let service = || {
        let store = EventStore::new(fixture::space());
        let service = ShardedLocaterService::new(store, config, 2);
        // Below 9 000: two inside gaps and an outside one, the bulk of what
        // the window is fitted on. From 9 000: one ambiguous and one outside
        // gap (a single class: not enough to fit on). Then the two gaps the
        // queries fall in.
        for t in [1_000, 2_400, 3_800, 8_300, 9_700, 11_700, 41_000, 42_700] {
            service.ingest("d", t, "wap0").unwrap();
        }
        service
    };
    let bytes = |service: &ShardedLocaterService, t| {
        let mut response = service.locate(&LocateRequest::by_mac("d", t));
        if let Ok(response) = &mut response {
            response.events_seen = 0; // the compacted store holds fewer by design
        }
        encode_response(&twin::located(response))
    };
    let (compacted, reference) = (service(), service());
    let device = compacted.device_id("d").unwrap();
    let is_fitted = |service: &ShardedLocaterService| {
        let entry = service.cached_model(device).expect("cached");
        entry.model.is_fitted()
    };

    // 40 000 lies in the outside gap [12 300, 40 400): decided by duration.
    assert_eq!(bytes(&compacted, 40_000), bytes(&reference, 40_000));
    assert!(!is_fitted(&compacted) && !is_fitted(&reference));

    let status = compacted.compact(Cut::Horizon(9_000), None).unwrap();
    assert_eq!(status.evicted_events, 4);
    assert!(is_fitted(&compacted), "fitted ahead of the eviction");
    assert!(!is_fitted(&reference));

    // 41 850 lies in the ambiguous gap [41 600, 42 100), in the grid cell of
    // the entry the first query cached.
    let response = compacted
        .locate(&LocateRequest::by_mac("d", 41_850).with_diagnostics())
        .unwrap();
    let diagnostics = response.diagnostics.expect("asked for");
    assert!(diagnostics.coarse_model_reused);
    assert_eq!(
        diagnostics.coarse.method,
        locater::core::coarse::CoarseMethod::Classifier
    );
    assert_eq!(bytes(&compacted, 41_850), bytes(&reference, 41_850));
    assert!(is_fitted(&reference));
}
