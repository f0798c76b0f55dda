//! The bulk loaders — [`EventStore::ingest_batch`] and
//! [`EventStore::from_csv`] — build exactly the store that one
//! [`EventStore::ingest_raw`] per event builds: same device ids, event ids,
//! timelines, posting lists and snapshot bytes, and on a failing event the
//! same error, kept prefix and device table.

use locater_events::{SeededRng, EVENT_ID_LIMIT, EVENT_TIME_LIMIT};
use locater_space::{Space, SpaceBuilder};
use locater_store::{format_csv, EventStore, IngestError, RawEvent};

fn space() -> Space {
    SpaceBuilder::new("bulk")
        .add_access_point("wap0", &["a", "b"])
        .add_access_point("wap1", &["b", "c"])
        .add_access_point("wap2", &["c"])
        .build()
        .unwrap()
}

/// Several raw spellings of each of five devices: mixed case, padding,
/// and opaque identifiers, of which only some are in normal form.
const SPELLINGS: [&[&str]; 5] = [
    &[
        "aa:bb:cc:dd:ee:01",
        "AA:BB:CC:DD:EE:01",
        " aa:bb:cc:dd:ee:01 ",
    ],
    &["Aa:bB:cc:DD:ee:02", "aa:bb:cc:dd:ee:02"],
    &["dev-3", "DEV-3", "\tdev-3"],
    &["  Dev-4"],
    &["dev-5"],
];

/// `len` events over the spellings and APs above, a third of them earlier
/// than the ones before (splices).
fn events(seed: u64, len: usize) -> Vec<RawEvent> {
    let mut rng = SeededRng::new(seed);
    (0..len)
        .map(|i| {
            let spellings = SPELLINGS[rng.range(0..SPELLINGS.len())];
            let mac = spellings[rng.range(0..spellings.len())];
            let t = if rng.range(0usize..3) == 0 {
                rng.range(0..(i as i64 + 1) * 60)
            } else {
                i as i64 * 60
            };
            RawEvent::new(mac, t, format!("wap{}", rng.range(0usize..3)))
        })
        .collect()
}

/// One `ingest_raw` per event into `store`, stopping at the first error.
fn per_event(store: &mut EventStore, events: &[RawEvent]) -> Result<usize, IngestError> {
    let before = store.num_events();
    for (count, event) in events.iter().enumerate() {
        if let Err(err) = store.ingest_raw(&event.mac, event.t, &event.ap) {
            assert_eq!(store.num_events(), before + count);
            return Err(err);
        }
    }
    Ok(events.len())
}

fn snapshot(store: &EventStore) -> Vec<u8> {
    store.to_snapshot_bytes().unwrap()
}

fn assert_same_store(got: &EventStore, want: &EventStore, what: &str) {
    assert!(got == want, "{what}: the store differs");
    assert!(snapshot(got) == snapshot(want), "{what}: snapshot bytes");
}

#[test]
fn bulk_loads_equal_per_event_ingest() {
    for seed in 1..=16 {
        let events = events(seed, 40 * seed as usize);
        let mut reference = EventStore::new(space());
        per_event(&mut reference, &events).unwrap();
        let what = |path: &str| format!("{path}, seed {seed}");

        let mut batch = EventStore::new(space());
        assert_eq!(batch.ingest_batch(&events).unwrap(), events.len());
        assert_same_store(&batch, &reference, &what("ingest_batch"));

        let csv = EventStore::from_csv(space(), &format_csv(&events)).unwrap();
        assert_same_store(&csv, &reference, &what("from_csv"));

        // Batches of any size onto a store that already holds events.
        let mut chunked = EventStore::new(space());
        for chunk in events.chunks(1 + seed as usize) {
            assert_eq!(chunked.ingest_batch(chunk).unwrap(), chunk.len());
        }
        assert_same_store(&chunked, &reference, &what("chunked ingest_batch"));

        // A fresh bulk load ends at exact capacity, as a snapshot load does.
        let loaded = EventStore::from_snapshot_bytes(&snapshot(&reference)).unwrap();
        for (store, path) in [(&batch, "ingest_batch"), (&csv, "from_csv")] {
            assert_eq!(
                store.approx_resident_bytes(),
                loaded.approx_resident_bytes(),
                "{}",
                what(path)
            );
        }
        assert_eq!(loaded.approx_resident_bytes(), 20 * events.len());
    }
    // Arrays shorter than the smallest capacity `Vec` grows to are exact too.
    let few = [
        RawEvent::new("d1", 100, "wap0"),
        RawEvent::new("d1", 200, "wap0"),
        RawEvent::new("d2", 300, "wap1"),
    ];
    let mut batch = EventStore::new(space());
    batch.ingest_batch(&few).unwrap();
    let csv = EventStore::from_csv(space(), &format_csv(&few)).unwrap();
    for store in [&batch, &csv] {
        assert_eq!(store.approx_resident_bytes(), 20 * few.len());
    }
}

/// A failing event at `at` in an otherwise valid batch, loaded onto a
/// store whose id counter stands at `next_id`: the batch must fail like
/// per-event ingest, keeping the same prefix and device table.
fn check_error_mid_batch(bad: RawEvent, at: usize, next_id: u64, want: &IngestError) {
    let mut events = events(7, 30);
    events.insert(at, bad);
    let start = || {
        let mut store = EventStore::new(space());
        store.ingest_raw("old", 10, "wap0").unwrap();
        store.set_next_event_id(next_id);
        store
    };
    let mut reference = start();
    assert_eq!(per_event(&mut reference, &events).unwrap_err(), *want);
    assert_eq!(reference.num_events(), 1 + at);

    let mut batch = start();
    assert_eq!(batch.ingest_batch(&events).unwrap_err(), *want);
    assert_same_store(&batch, &reference, &format!("{want} at {at}"));
}

#[test]
fn errors_mid_batch_keep_the_prefix_and_device_table() {
    let cases = [
        // Its MAC is not interned: the access point is checked first.
        (
            RawEvent::new("unseen", 5, "wap9"),
            IngestError::UnknownAccessPoint("wap9".into()),
        ),
        (
            RawEvent::new("aa:bb:cc", 5, "wap1"),
            IngestError::from(locater_events::EventError::InvalidMac("aa:bb:cc".into())),
        ),
        (
            RawEvent::new("  ", 5, "wap1"),
            IngestError::from(locater_events::EventError::InvalidMac("  ".into())),
        ),
        (
            RawEvent::new("unseen", -1, "wap1"),
            IngestError::InvalidTimestamp(-1),
        ),
        (
            RawEvent::new("unseen", EVENT_TIME_LIMIT, "wap1"),
            IngestError::InvalidTimestamp(EVENT_TIME_LIMIT),
        ),
    ];
    for (bad, want) in &cases {
        for at in [0, 1, 17, 30] {
            check_error_mid_batch(bad.clone(), at, 1, want);
        }
    }
    // The id counter runs out at the event `at`, whatever it is.
    for at in [0, 1, 17, 30] {
        let next_id = EVENT_ID_LIMIT - at as u64;
        let bad = RawEvent::new("unseen", 5, "wap1");
        check_error_mid_batch(
            bad,
            at,
            next_id,
            &IngestError::InvalidEventId(EVENT_ID_LIMIT),
        );
    }
}

#[test]
fn csv_errors_keep_their_line_and_column() {
    let events = events(3, 12);
    let csv = |bad: &str| {
        let mut lines: Vec<String> = format_csv(&events).lines().map(str::to_string).collect();
        // After the header and five events: line 7.
        lines.insert(6, bad.to_string());
        EventStore::from_csv(space(), &lines.join("\n")).unwrap_err()
    };
    let past_the_limit = format!("unseen,{EVENT_TIME_LIMIT},wap1");
    let semantic = [
        (
            "unseen,5,wap9",
            IngestError::UnknownAccessPoint("wap9".into()),
        ),
        (
            "aa:bb:cc,5,wap1",
            IngestError::from(locater_events::EventError::InvalidMac("aa:bb:cc".into())),
        ),
        ("unseen,-1,wap1", IngestError::InvalidTimestamp(-1)),
        (
            past_the_limit.as_str(),
            IngestError::InvalidTimestamp(EVENT_TIME_LIMIT),
        ),
    ];
    for (line, want) in semantic {
        assert_eq!(csv(line), want.at_line(7), "{line}");
    }
    assert_eq!(
        csv("d1, abc,wap1"),
        IngestError::Malformed {
            line: 7,
            column: 4,
            reason: "invalid timestamp \"abc\"".into()
        }
    );
}

/// Repeated one-event batches grow each array by amortized doubling: no
/// trim per call, no more than twice the events plus a few of slack, and a
/// reallocation only every doubling.
#[test]
fn repeated_one_event_batches_keep_amortized_capacity() {
    let mut store = EventStore::new(space());
    let mut growths = 0;
    let mut last_bytes = 0;
    for i in 0..2_000i64 {
        let mac = ["dev-a", "dev-b"][(i % 3 == 0) as usize];
        let batch = [RawEvent::new(mac, i * 30, format!("wap{}", i % 2))];
        assert_eq!(store.ingest_batch(&batch).unwrap(), 1);
        for device in store.devices() {
            let timeline = store.timeline_of(device.id);
            assert!(
                timeline.approx_bytes() <= (2 * timeline.len() + 4) * 12,
                "{i}"
            );
        }
        let postings = store.timeline().approx_bytes() / 8;
        assert!(postings <= 2 * store.num_events() + 4 * 2, "{i}");
        let bytes = store.approx_resident_bytes();
        growths += usize::from(bytes != last_bytes);
        last_bytes = bytes;
    }
    // Four arrays, each reallocated about log2(2,000 / 4) ≈ 9 times.
    assert!(growths <= 4 * 12, "{growths} reallocations");
}
