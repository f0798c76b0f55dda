//! Integration tests of the public API surface exposed through the `locater` facade:
//! space metadata, CSV ingestion, query forms, configuration builders, baselines and
//! evaluation metrics — the pieces a downstream user composes.

use locater::core::baselines::{Baseline1, Baseline2, BaselineSystem};
use locater::core::metrics::{EvaluationReport, TruthLocation};
use locater::core::LocaterError;
use locater::prelude::*;
use locater::space::SpaceMetadata;
use locater::store::{parse_csv, RawEvent};

fn demo_space() -> Space {
    SpaceBuilder::new("demo")
        .add_access_point("wap-a", &["101", "102", "103", "kitchen"])
        .add_access_point("wap-b", &["103", "104", "105", "kitchen"])
        .room_type("kitchen", RoomType::Public)
        .room_owner("101", "aa:aa:aa:aa:aa:01")
        .room_owner("104", "aa:aa:aa:aa:aa:02")
        .build()
        .unwrap()
}

#[test]
fn space_metadata_roundtrips_through_json() {
    let space = demo_space();
    let metadata = SpaceMetadata::from_space(&space);
    let json = metadata.to_json().unwrap();
    let rebuilt = SpaceMetadata::from_json(&json).unwrap().build().unwrap();
    assert_eq!(rebuilt.num_rooms(), space.num_rooms());
    assert_eq!(rebuilt.num_access_points(), space.num_access_points());
    assert_eq!(
        rebuilt.preferred_rooms("aa:aa:aa:aa:aa:01").len(),
        space.preferred_rooms("aa:aa:aa:aa:aa:01").len()
    );
}

#[test]
fn csv_ingestion_and_store_roundtrip() {
    let csv = "\
mac,timestamp,ap
aa:aa:aa:aa:aa:01,1000,wap-a
aa:aa:aa:aa:aa:02,1100,wap-b
aa:aa:aa:aa:aa:01,5000,wap-b
";
    let rows = parse_csv(csv).unwrap();
    assert_eq!(rows.len(), 3);
    assert_eq!(rows[0], RawEvent::new("aa:aa:aa:aa:aa:01", 1000, "wap-a"));

    let store = EventStore::from_csv(demo_space(), csv).unwrap();
    assert_eq!(store.num_events(), 3);
    assert_eq!(store.num_devices(), 2);
    let exported = store.to_csv();
    let back = EventStore::from_csv(demo_space(), &exported).unwrap();
    assert_eq!(back.num_events(), store.num_events());
}

#[test]
fn query_by_mac_and_by_device_agree() {
    let mut store = EventStore::new(demo_space());
    store
        .ingest_raw("aa:aa:aa:aa:aa:01", 1_000, "wap-a")
        .unwrap();
    store
        .ingest_raw("aa:aa:aa:aa:aa:01", 9_000, "wap-a")
        .unwrap();
    let device = store.device_id("aa:aa:aa:aa:aa:01").unwrap();
    let locater = ShardedLocaterService::new(store, LocaterConfig::default(), 1);
    let by_mac = locater
        .locate(&LocateRequest::by_mac("aa:aa:aa:aa:aa:01", 5_000))
        .unwrap();
    let by_device = locater
        .locate(&LocateRequest::by_device(device, 5_000))
        .unwrap();
    assert_eq!(by_mac.location(), by_device.location());
    assert_eq!(by_mac.answer.device, by_device.answer.device);

    // Unknown devices produce a descriptive error, not a panic.
    let err = locater.locate(&LocateRequest::by_mac("ff:ff:ff:ff:ff:ff", 5_000));
    assert!(err.is_err());
    assert!(err.unwrap_err().to_string().contains("unknown device"));
}

#[test]
fn config_builders_cover_the_evaluation_matrix() {
    // The four system variants of the evaluation are all expressible through the
    // config builders.
    let variants = [
        ("I-LOCATER", FineMode::Independent, CacheMode::Disabled),
        ("I-LOCATER+C", FineMode::Independent, CacheMode::Enabled),
        ("D-LOCATER", FineMode::Dependent, CacheMode::Disabled),
        ("D-LOCATER+C", FineMode::Dependent, CacheMode::Enabled),
    ];
    for (_, mode, cache) in variants {
        let config = LocaterConfig::default()
            .with_fine_mode(mode)
            .with_cache(cache)
            .with_history(locater::events::clock::weeks(4));
        assert_eq!(config.fine.mode, mode);
        assert_eq!(config.cache, cache);
        assert_eq!(config.coarse.history, locater::events::clock::weeks(4));
    }
}

#[test]
fn baselines_and_metrics_compose_into_a_report() {
    let mut store = EventStore::new(demo_space());
    // A short day of data for the two office owners.
    for slot in 0..12 {
        store
            .ingest_raw("aa:aa:aa:aa:aa:01", 9 * 3600 + slot * 600, "wap-a")
            .unwrap();
        store
            .ingest_raw("aa:aa:aa:aa:aa:02", 9 * 3600 + slot * 600 + 30, "wap-b")
            .unwrap();
    }
    let space = store.space().clone();
    let room_101 = space.room_id("101").unwrap();
    let room_104 = space.room_id("104").unwrap();

    let mut report = EvaluationReport::new("Baseline comparison");
    let mut b1: Box<dyn BaselineSystem> = Box::new(Baseline1::default());
    let mut b2: Box<dyn BaselineSystem> = Box::new(Baseline2);
    let d1 = store.device_id("aa:aa:aa:aa:aa:01").unwrap();
    let d2 = store.device_id("aa:aa:aa:aa:aa:02").unwrap();

    for t in [9 * 3600 + 100, 9 * 3600 + 2_500, 10 * 3600] {
        report.record(
            "baseline2",
            &space,
            TruthLocation::Room(room_101),
            &b2.locate(&store, d1, t).location,
        );
        report.record(
            "baseline1",
            &space,
            TruthLocation::Room(room_104),
            &b1.locate(&store, d2, t).location,
        );
    }
    // Baseline2 places the owner of room 101 in their own office every time.
    assert_eq!(report.group("baseline2").unwrap().correct_room, 3);
    let markdown = report.to_markdown();
    assert!(markdown.contains("baseline1"));
    assert!(markdown.contains("baseline2"));
    assert!(report.overall().queries == 6);
}

#[test]
fn live_service_surface_ingest_locate_and_epochs() {
    // The ShardedLocaterService / LocateRequest / LocateResponse surface a downstream
    // deployment composes: build → serve → ingest → (epoch) invalidate.
    let service =
        ShardedLocaterService::new(EventStore::new(demo_space()), LocaterConfig::default(), 1);
    assert_eq!(service.num_events(), 0);
    assert_eq!(service.config().cache, CacheMode::Enabled);

    // Ingest by single event and by batch.
    service.ingest("aa:aa:aa:aa:aa:01", 1_000, "wap-a").unwrap();
    let batch = [
        RawEvent::new("aa:aa:aa:aa:aa:01", 9_000, "wap-a"),
        RawEvent::new("aa:aa:aa:aa:aa:02", 1_100, "wap-b"),
    ];
    assert_eq!(service.ingest_batch(batch.iter()).unwrap(), 2);
    assert_eq!(service.num_events(), 3);
    assert_eq!(service.num_devices(), 2);

    // Epoch observability: one counter per device, bumped per event.
    let d1 = service.device_id("aa:aa:aa:aa:aa:01").unwrap();
    let d2 = service.device_id("aa:aa:aa:aa:aa:02").unwrap();
    assert_eq!(service.device_epoch(d1), 2);
    assert_eq!(service.device_epoch(d2), 1);

    // Request builders: target forms, overrides, diagnostics opt-in.
    let request = LocateRequest::by_mac("aa:aa:aa:aa:aa:01", 5_000);
    let by_device = LocateRequest::by_device(d1, 5_000)
        .with_fine_mode(FineMode::Dependent)
        .with_diagnostics();
    let response = service.locate(&request).unwrap();
    let response_by_device = service.locate(&by_device).unwrap();
    assert_eq!(response.answer.device, response_by_device.answer.device);
    assert_eq!(response.device_epoch, 2);
    assert_eq!(response.events_seen, 3);
    assert!(response.diagnostics.is_none());
    assert!(response_by_device.diagnostics.is_some());
    assert_eq!(response.location(), response.answer.location);

    // Cache bypass per request leaves the caching engine untouched.
    let cold = service
        .locate(&LocateRequest::by_mac("aa:aa:aa:aa:aa:01", 5_000).bypass_cache())
        .unwrap();
    assert_eq!(cold.answer.t, 5_000);

    // Batch through the request layer, in request order with in-place errors.
    let requests = vec![
        LocateRequest::by_mac("aa:aa:aa:aa:aa:01", 5_000),
        LocateRequest::by_mac("ff:ff:ff:ff:ff:ff", 5_000),
    ];
    let responses = service.locate_batch(&requests, 2);
    assert!(responses[0].is_ok());
    assert!(responses[1].is_err());

    // A fresh ingest invalidates: the service stays queryable and the answer
    // tracks the new data (equivalence is covered by tests/equivalence/service.rs).
    service.ingest("aa:aa:aa:aa:aa:01", 5_500, "wap-b").unwrap();
    assert_eq!(service.device_epoch(d1), 3);
    let after = service.locate(&request).unwrap();
    assert_eq!(after.device_epoch, 3);
    assert!(after.answer.is_inside());

    // One service: by-MAC and by-device requests are the same query, and a
    // device the log never saw is a typed error on either form.
    let by_mac = service.locate(&request).unwrap();
    let by_id = service
        .locate(&LocateRequest::by_device(d1, request.t))
        .unwrap();
    assert_eq!(by_mac.answer, by_id.answer);
    assert!(matches!(
        service.locate(&LocateRequest::by_mac("ff:ff:ff:ff:ff:ff", 5_000)),
        Err(LocaterError::UnknownDevice(_))
    ));
    assert!(matches!(
        service.locate(&LocateRequest::by_device(DeviceId::new(99), 5_000)),
        Err(LocaterError::UnknownDevice(_))
    ));

    // Rebuilding from the store snapshot gives a service over the same data,
    // at any shard count.
    let rebuilt = ShardedLocaterService::new(service.store_snapshot(), *service.config(), 3);
    assert_eq!(rebuilt.num_events(), service.num_events());
    assert_eq!(rebuilt.locate(&request).unwrap().answer, by_mac.answer);
}

#[test]
fn simulator_output_feeds_directly_into_the_cleaning_engine() {
    let output = Simulator::new(1).run_scenario(
        &locater::sim::ScenarioConfig::new(ScenarioKind::Mall)
            .with_days(4)
            .with_scale(0.15),
    );
    let store = output.build_store();
    let locater = ShardedLocaterService::new(store, LocaterConfig::default(), 1);
    // Query every monitored person at noon of day 2; all answers must be well-formed.
    for person in output.monitored() {
        let t = locater::events::clock::at(2, 12, 0, 0);
        match locater.locate(&LocateRequest::by_mac(&person.mac, t)) {
            Ok(response) => assert!((0.0..=1.0).contains(&response.answer.confidence)),
            Err(e) => assert!(e.to_string().contains("unknown device")),
        }
    }
    // Ground truth, person records and events agree on the set of devices.
    for record in &output.people {
        assert!(record.measured_predictability >= 0.0 && record.measured_predictability <= 1.0);
    }
}
