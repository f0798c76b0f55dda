//! Property-based tests for the event store, each run over seeded random
//! cases.

use locater_events::{DeviceId, Interval, SeededRng};
use locater_space::{AccessPointId, RegionId, Space, SpaceBuilder};
use locater_store::{shard_of_device, EventRead, EventStore, NearbyDevice, ShardedRead};

fn space() -> Space {
    SpaceBuilder::new("prop")
        .add_access_point("wap0", &["a", "b"])
        .add_access_point("wap1", &["b", "c"])
        .add_access_point("wap2", &["c", "d"])
        // Regions that overlap no other: wap3's logs events in the region
        // tests, wap4's never does.
        .add_access_point("wap3", &["e"])
        .add_access_point("wap4", &["f"])
        .build()
        .unwrap()
}

/// 1–149 `(device, t, ap)` triples: six devices, three APs, `t` below
/// 500,000.
fn arb_events(rng: &mut SeededRng) -> Vec<(u8, i64, u8)> {
    let len = rng.range(1usize..150);
    (0..len)
        .map(|_| {
            (
                rng.range(0u8..6),
                rng.range(0i64..500_000),
                rng.range(0u8..3),
            )
        })
        .collect()
}

/// A store holding `events`, ingested in the given (arbitrary) order.
fn build_store(events: &[(u8, i64, u8)]) -> EventStore {
    let mut store = EventStore::new(space());
    for (dev, t, ap) in events {
        store
            .ingest_raw(&format!("device-{dev}"), *t, &format!("wap{ap}"))
            .unwrap();
    }
    store
}

/// Ingestion never loses events: per-device timeline lengths sum to the
/// total, and every device timeline is sorted by `(t, id)`.
#[test]
fn ingestion_preserves_and_sorts_events() {
    let mut rng = SeededRng::new(0x9dce_b4ef_a489_51bd);
    for _ in 0..64 {
        let events = arb_events(&mut rng);
        let store = build_store(&events);
        assert_eq!(store.num_events(), events.len());
        let mut total = 0usize;
        for device in store.devices() {
            let timeline = store.timeline_of(device.id);
            total += timeline.len();
            let keys: Vec<_> = timeline.iter().map(|e| (e.t(), e.id())).collect();
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            assert_eq!(&keys, &sorted);
        }
        assert_eq!(total, events.len());
    }
}

/// Window queries and windowed gap detection agree exactly with
/// brute-force filters over the full history.
#[test]
fn segment_pruned_queries_match_full_scans() {
    let mut rng = SeededRng::new(0xe318_c6d4_ae33_8373);
    for _ in 0..64 {
        let events = arb_events(&mut rng);
        let win_start = rng.range(-10_000i64..510_000);
        let win_len = rng.range(0i64..200_000);
        let store = build_store(&events);
        let window = Interval::new(win_start, win_start + win_len);
        for device in store.devices() {
            let timeline = store.timeline_of(device.id);
            let all: Vec<_> = timeline.iter().copied().collect();
            let expect_events: Vec<i64> = all
                .iter()
                .filter(|e| e.t() >= window.start && e.t() < window.end)
                .map(|e| e.t())
                .collect();
            let got_events: Vec<i64> = store
                .events_of_in(device.id, window)
                .map(|e| e.t())
                .collect();
            assert_eq!(got_events, expect_events);

            let full_gaps = store.gaps_of(device.id);
            let expect_gaps: Vec<_> = full_gaps
                .iter()
                .filter(|g| g.interval().overlaps(&window))
                .copied()
                .collect();
            assert_eq!(store.gaps_of_in(device.id, window), expect_gaps);
        }
    }
}

/// CSV roundtrips preserve the number of events and devices.
#[test]
fn csv_roundtrip() {
    let mut rng = SeededRng::new(0x226e_628a_b5d2_f333);
    for _ in 0..64 {
        let events = arb_events(&mut rng);
        let store = build_store(&events);
        let csv = store.to_csv();
        let back = EventStore::from_csv(space(), &csv).unwrap();
        assert_eq!(back.num_events(), store.num_events());
        assert_eq!(back.num_devices(), store.num_devices());
    }
}

/// Snapshot roundtrips are **bit-identical**: the reloaded store compares equal
/// (devices, deltas, event runs, event ids, global timeline order — the
/// ordering the service's epoch bookkeeping depends on) and re-encodes to the
/// same bytes.
#[test]
fn snapshot_roundtrip_is_bit_identical() {
    let mut rng = SeededRng::new(0x26b1_dd95_1d3e_b4c6);
    for _ in 0..64 {
        let events = arb_events(&mut rng);
        let mut store = build_store(&events);
        store.estimate_deltas();
        let bytes = store.to_snapshot_bytes().unwrap();
        let back = EventStore::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(&back, &store);
        assert_eq!(back.to_snapshot_bytes().unwrap(), bytes);
    }
}

/// Any truncation of a valid snapshot fails with a typed error — never a panic,
/// never a silently short store.
#[test]
fn truncated_snapshots_error_out() {
    let mut rng = SeededRng::new(0x72c1_ac03_b479_87f5);
    for _ in 0..64 {
        let events = arb_events(&mut rng);
        let cut_fraction = rng.range(0.0..1.0);
        let store = build_store(&events);
        let bytes = store.to_snapshot_bytes().unwrap();
        let cut = ((bytes.len() - 1) as f64 * cut_fraction) as usize;
        assert!(EventStore::from_snapshot_bytes(&bytes[..cut]).is_err());
    }
}

/// A probe instant is never both covered by an event and inside a gap, and
/// devices_online_at only reports devices with covering events.
#[test]
fn online_devices_are_covered() {
    let mut rng = SeededRng::new(0xc1ae_d6af_272b_ba4a);
    for _ in 0..64 {
        let events = arb_events(&mut rng);
        let probe = rng.range(0i64..500_000);
        let store = build_store(&events);
        for (device, region) in store.devices_online_at(probe, None) {
            let covering = store.covering_event(device, probe);
            assert!(covering.is_some());
            assert_eq!(covering.unwrap().1.region(), region);
            assert!(store.gap_at(device, probe).is_none());
        }
    }
}

/// Splitting a store into per-device shards and rejoining reproduces it
/// bit for bit — snapshot bytes included — for any shard count.
#[test]
fn split_rejoin_roundtrip_is_bit_identical() {
    let mut rng = SeededRng::new(0xbc22_acf5_5b31_7fc2);
    for _ in 0..64 {
        let events = arb_events(&mut rng);
        let shards = rng.range(1usize..9);
        let store = build_store(&events);
        let pieces = store.split(shards);
        assert_eq!(pieces.len(), shards);
        let rejoined = EventStore::rejoin(&pieces).unwrap();
        assert_eq!(&rejoined, &store);
        assert_eq!(
            rejoined.to_snapshot_bytes().unwrap(),
            store.to_snapshot_bytes().unwrap()
        );
    }
}

/// The multi-shard read view is indistinguishable from the combined store:
/// routed timeline reads and the merged per-shard neighbor scans agree
/// exactly (ties across devices included — `arb_events` produces plenty).
#[test]
fn sharded_read_is_indistinguishable_from_combined_store() {
    let mut rng = SeededRng::new(0x57d2_9d0d_9c1a_aa54);
    for _ in 0..64 {
        let events = arb_events(&mut rng);
        let shards = rng.range(1usize..9);
        let probe = rng.range(0i64..500_000);
        let slack = rng.range(1i64..50_000);
        let store = build_store(&events);
        let pieces = store.split(shards);
        let view = ShardedRead::new(pieces.iter().collect());
        assert_eq!(EventRead::num_events(&view), store.num_events());
        assert_eq!(
            view.devices_near(probe, slack, None),
            store.devices_near(probe, slack, None)
        );
        assert_eq!(
            view.devices_online_at(probe, None),
            store.devices_online_at(probe, None)
        );
        for device in store.devices() {
            assert_eq!(
                view.gap_at(device.id, probe),
                store.gap_at(device.id, probe)
            );
            assert_eq!(
                view.covering_event(device.id, probe),
                store.covering_event(device.id, probe)
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Compaction, tiered ageing, and the pinned-id backfill path
// ---------------------------------------------------------------------------

/// The backfill-splice path is fully order-independent: replaying the
/// same labelled event set in *any* permutation — devices pre-interned
/// in canonical order, each event ingested under its pinned id — yields
/// a bit-identical store, snapshot bytes included. This is the invariant
/// WAL replay and spill merging stand on.
#[test]
fn pinned_id_replay_is_permutation_invariant() {
    let mut rng = SeededRng::new(0xf2e4_014f_bfb0_1cd6);
    for _ in 0..64 {
        let events = arb_events(&mut rng);
        let perm_seed = rng.range(0..u64::MAX);
        let mut reference = EventStore::new(space());
        let mut labeled = Vec::with_capacity(events.len());
        for (dev, t, ap) in &events {
            let id = reference
                .ingest_raw(&mac_of(*dev), *t, &format!("wap{ap}"))
                .unwrap();
            labeled.push((id.0, mac_of(*dev), *t, format!("wap{ap}")));
        }

        SeededRng::new(perm_seed).shuffle(&mut labeled);

        let mut replay = EventStore::new(space());
        for (dev, _, _) in &events {
            replay.intern_device(&mac_of(*dev)).unwrap();
        }
        for (id, mac, t, ap) in &labeled {
            replay.set_next_event_id(*id);
            replay.ingest_raw(mac, *t, ap).unwrap();
        }
        replay.set_next_event_id(reference.next_event_id());

        assert_eq!(&replay, &reference);
        assert_eq!(
            replay.to_snapshot_bytes().unwrap(),
            reference.to_snapshot_bytes().unwrap()
        );
    }
}

/// Ordering ties need no stored event id. Events with the same
/// `(t, device)` on different APs, plus timestamp ties across devices,
/// are replayed under pinned ids in two permuted orders straight into 1
/// and 3 shards. Every neighbour scan equals the reference built from
/// per-device lookups alone, the answers are identical across the
/// permutations, and so are the snapshot bytes. The store loaded from
/// those bytes answers the same.
#[test]
fn ties_order_without_event_ids() {
    let mut rng = SeededRng::new(0x6c99_c0d6_f74e_ab54);
    for _ in 0..64 {
        let len = rng.range(1usize..80);
        let base: Vec<(u8, i64, u8, u8)> = (0..len)
            .map(|_| {
                (
                    rng.range(0u8..4),
                    rng.range(0i64..30),
                    rng.range(0u8..3),
                    rng.range(0u8..3),
                )
            })
            .collect();
        let seeds = (rng.range(0..u64::MAX), rng.range(0..u64::MAX));
        let len = rng.range(1usize..6);
        let probes: Vec<(i64, i64)> = (0..len)
            .map(|_| (rng.range(-700i64..3_700), rng.range(1i64..2_000)))
            .collect();
        // Slot times tie across devices; a non-zero `dup` adds a second
        // event at the same `(t, device)` on another AP.
        let mut events: Vec<(u8, i64, u8)> = Vec::new();
        for &(dev, slot, ap, dup) in &base {
            events.push((dev, slot * 100, ap));
            if dup > 0 {
                events.push((dev, slot * 100, (ap + dup) % 3));
            }
        }
        for shards in [1usize, 3] {
            let mut runs = Vec::new();
            for seed in [seeds.0, seeds.1] {
                let stores = replay_into_shards(&events, seed, shards);
                let view = ShardedRead::new(stores.iter().collect());
                let mut answers = Vec::new();
                for &(probe, slack) in &probes {
                    let near = view.devices_near(probe, slack, None);
                    assert_eq!(&near, &reference_near(&view, probe, slack));
                    let online = view.devices_online_at(probe, None);
                    assert_eq!(&online, &reference_online(&view, probe));
                    answers.push((near, online));
                }
                let bytes = view.to_snapshot_bytes().unwrap();
                let loaded = EventStore::from_snapshot_bytes(&bytes).unwrap();
                for (&(probe, slack), (near, online)) in probes.iter().zip(&answers) {
                    assert_eq!(&loaded.devices_near(probe, slack, None), near);
                    assert_eq!(&loaded.devices_online_at(probe, None), online);
                }
                runs.push((answers, bytes));
            }
            assert_eq!(&runs[0], &runs[1]);
        }
    }
}

/// Compaction's coordinated trim evicts exactly the events below the
/// horizon and nothing else: every timeline read and every global
/// timeline entry inside a window at or above the cut is identical to the
/// untrimmed store's.
#[test]
fn compaction_trim_never_drops_an_in_window_posting() {
    let mut rng = SeededRng::new(0x8da3_54fb_b0f1_9b5b);
    for _ in 0..64 {
        let events = arb_events(&mut rng);
        let horizon = rng.range(0i64..600_000);
        let start_off = rng.range(0i64..150_000);
        let width = rng.range(1i64..150_000);
        let full = build_store(&events);
        let mut compacted = build_store(&events);
        let report = compacted.compact(horizon);
        let cut = report.cut;
        assert_eq!(cut, horizon);
        assert_eq!(
            compacted.num_events(),
            events.iter().filter(|(_, t, _)| *t >= cut).count(),
            "the cut evicts exactly the events below it"
        );
        assert_eq!(
            report.evicted_events,
            full.num_events() - compacted.num_events()
        );

        let window = Interval::new(cut + start_off, cut + start_off + width);
        for device in full.devices() {
            assert_eq!(
                compacted
                    .events_of_in(device.id, window)
                    .copied()
                    .collect::<Vec<_>>(),
                full.events_of_in(device.id, window)
                    .copied()
                    .collect::<Vec<_>>()
            );
        }
        for ap in (0..3).map(AccessPointId::new) {
            let in_window = |store: &EventStore| -> Vec<_> {
                store
                    .timeline()
                    .entries(ap)
                    .filter(|&(t, _)| window.contains(t))
                    .collect()
            };
            assert_eq!(in_window(&compacted), in_window(&full));
        }
    }
}

/// Compact → snapshot → load is bit-identical, and the evicted runs the
/// report hands back are exactly the removed events (original ids): the
/// spill encoded from them is an ordinary round-trippable snapshot, and
/// the per-shard runs of a partitioned store encode to the same bytes.
#[test]
fn compact_snapshot_load_roundtrip_is_bit_identical() {
    let mut rng = SeededRng::new(0x9847_22e6_d3fe_0afd);
    for _ in 0..64 {
        let events = arb_events(&mut rng);
        let horizon = rng.range(0i64..600_000);
        let shards = rng.range(2usize..5);
        let mut full = build_store(&events);
        full.estimate_deltas();
        let mut store = full.clone();
        let report = store.compact(horizon);

        let bytes = store.to_snapshot_bytes().unwrap();
        let back = EventStore::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(&back, &store);
        assert_eq!(back.to_snapshot_bytes().unwrap(), bytes);

        // The runs, concatenated, are the events the hot tier lost.
        let mut evicted: Vec<_> = report
            .evicted
            .iter()
            .flat_map(|(device, events)| events.iter().map(move |e| (*device, *e)))
            .collect();
        assert_eq!(evicted.len(), report.evicted_events);
        assert!(evicted.iter().all(|(_, e)| e.t() < report.cut));
        let mut removed: Vec<_> = full
            .devices()
            .iter()
            .flat_map(|d| full.timeline_of(d.id).iter().map(move |e| (d.id, *e)))
            .filter(|(d, e)| !store.timeline_of(*d).iter().any(|kept| kept.id() == e.id()))
            .collect();
        evicted.sort_by_key(|(_, e)| e.id());
        removed.sort_by_key(|(_, e)| e.id());
        assert_eq!(&evicted, &removed);

        // The spill is a snapshot of exactly those events.
        let spill_bytes = ShardedRead::new(vec![&store])
            .spill_snapshot_bytes(&report.evicted)
            .unwrap();
        let spill = EventStore::from_snapshot_bytes(&spill_bytes).unwrap();
        assert_eq!(spill.num_events(), report.evicted_events);
        assert_eq!(spill.devices(), store.devices());
        assert_eq!(spill.next_event_id(), store.next_event_id());
        for (device, events) in &report.evicted {
            assert_eq!(spill.timeline_of(*device).events(), events.as_slice());
        }
        assert_eq!(spill.to_snapshot_bytes().unwrap(), &spill_bytes[..]);

        // Per-shard evictions concatenate (in any order) to the same file.
        let mut parts = full.split(shards);
        let mut runs = Vec::new();
        for part in parts.iter_mut().rev() {
            runs.extend(part.compact(horizon).evicted);
        }
        let view = ShardedRead::new(parts.iter().collect());
        assert_eq!(view.spill_snapshot_bytes(&runs).unwrap(), spill_bytes);
        assert_eq!(view.to_snapshot_bytes().unwrap(), bytes);
    }
}

// ---------------------------------------------------------------------------
// Durability: WAL round-trips and replay idempotence
// ---------------------------------------------------------------------------

use locater_store::{
    recover_store, write_checkpoint, Durability, FsyncPolicy, ShardWal, WalRecord,
};
use std::sync::atomic::{AtomicU64, Ordering};

static WAL_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique WAL scratch directory per property case.
fn wal_scratch() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "locater-store-prop-wal-{}-{}",
        std::process::id(),
        WAL_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Small segments and batched fsync so arbitrary traces exercise rotation
/// and the unsynced-append path, not just one fat segment.
fn wal_config(dir: &std::path::Path) -> Durability {
    Durability::new(dir)
        .with_fsync(FsyncPolicy::EveryN(16))
        .with_segment_max_bytes(256)
}

fn mac_of(dev: u8) -> String {
    format!("aa:00:00:00:00:{:02x}", dev + 1)
}

/// Ingests `events` (event `i` under pinned id `i`) in the order `seed`
/// permutes them, each into its owner among `shards` stores that share one
/// device table — four devices with distinct validity periods.
fn replay_into_shards(events: &[(u8, i64, u8)], seed: u64, shards: usize) -> Vec<EventStore> {
    let mut base = EventStore::new(space());
    for dev in 0..4u8 {
        let device = base.intern_device(&mac_of(dev)).unwrap();
        base.set_delta(device, 300 + 150 * i64::from(dev));
    }
    let mut stores = base.split(shards);
    let mut labeled: Vec<(u64, (u8, i64, u8))> = (0u64..).zip(events.iter().copied()).collect();
    SeededRng::new(seed).shuffle(&mut labeled);
    for (id, (dev, t, ap)) in labeled {
        let store = &mut stores[shard_of_device(DeviceId::new(u32::from(dev)), shards)];
        store.set_next_event_id(id);
        store
            .ingest_raw(&mac_of(dev), t, &format!("wap{ap}"))
            .unwrap();
    }
    for store in &mut stores {
        store.set_next_event_id(events.len() as u64);
    }
    stores
}

/// `devices_near` from per-device lookups alone: each device with an event
/// in `[t − slack, t + slack]`, with its event nearest `t` (the earlier in
/// timeline order on a tie), listed by `(first event time, device)`.
fn reference_near(view: &dyn EventRead, t: i64, slack: i64) -> Vec<NearbyDevice> {
    let window = Interval::new(t - slack, t + slack + 1);
    let mut found = Vec::new();
    for device in view.devices() {
        let mut events = view.events_of_in(device.id, window);
        let Some(&first) = events.next() else {
            continue;
        };
        let nearest = events.fold(first, |best, &e| {
            if (e.t() - t).abs() < (best.t() - t).abs() {
                e
            } else {
                best
            }
        });
        let near = NearbyDevice {
            device: device.id,
            ap: nearest.ap(),
            t: nearest.t(),
        };
        found.push((first.t(), near));
    }
    found.sort_by_key(|&(first_t, near)| (first_t, near.device));
    found.into_iter().map(|(_, near)| near).collect()
}

/// `devices_online_at` from per-device `covering_event` lookups alone,
/// listed by `(first event time in the max-δ window, device)`.
fn reference_online(view: &dyn EventRead, t: i64) -> Vec<(DeviceId, RegionId)> {
    let slack = view.max_delta();
    let window = Interval::new(t - slack, t + slack + 1);
    let mut found = Vec::new();
    for device in view.devices() {
        if let Some((_, event)) = view.covering_event(device.id, t) {
            let first = view.events_of_in(device.id, window).next();
            let first_t = first.expect("a covering event lies within max δ").t();
            found.push((first_t, device.id, event.region()));
        }
    }
    found.sort_by_key(|&(first_t, device, _)| (first_t, device));
    found
        .into_iter()
        .map(|(_, device, region)| (device, region))
        .collect()
}

/// Validate → append → apply for one generated event, the order the sharded
/// service's durable ingest keeps. Returns the id the frame carried.
fn log_then_apply(store: &mut EventStore, wal: &mut ShardWal, (dev, t, ap): (u8, i64, u8)) -> u64 {
    let ap_name = format!("wap{ap}");
    let ap = store.validate_raw(t, &ap_name).unwrap().raw();
    let (id, mac) = (store.next_event_id(), mac_of(dev));
    let record = WalRecord {
        id,
        t,
        ap,
        mac,
        request_id: None,
    };
    wal.append(&record).unwrap();
    let applied = store.ingest_raw(&record.mac, t, &ap_name).unwrap();
    assert_eq!(applied.0, id, "the store assigns the id the frame carries");
    id
}

/// Any trace — out-of-order *splice* ingests, cross-device timestamp
/// ties, arbitrary AP churn — written through the WAL recovers
/// byte-identically (snapshot bytes included) to a store that ingested
/// the same trace directly. Recovery is also idempotent: replaying the
/// same log twice yields the same bytes, and the log is untouched.
#[test]
fn wal_roundtrip_recovers_spliced_ingests_byte_identically() {
    let mut rng = SeededRng::new(0x9707_7c2c_cafe_5e80);
    for _ in 0..64 {
        let events = arb_events(&mut rng);
        let dir = wal_scratch();
        let mut expected = EventStore::new(space());
        {
            let mut store = EventStore::new(space());
            let (mut wal, _) = ShardWal::open(&wal_config(&dir), 0).unwrap();
            for (dev, t, ap) in &events {
                let appended = log_then_apply(&mut store, &mut wal, (*dev, *t, *ap));
                let direct = expected
                    .ingest_raw(&mac_of(*dev), *t, &format!("wap{ap}"))
                    .unwrap();
                assert_eq!(appended, direct.0, "ids advance in lockstep");
            }
            // Dropped without a checkpoint: a crash once the OS buffers land.
        }
        let expected_bytes = expected.to_snapshot_bytes().unwrap();
        let (first, report) = recover_store(&dir, EventStore::new(space())).unwrap();
        assert_eq!(report.replayed, events.len() as u64);
        assert_eq!(report.skipped, 0);
        assert_eq!(first.to_snapshot_bytes().unwrap(), expected_bytes.clone());
        // Read-only and repeatable: a second replay of the same log agrees.
        let (second, _) = recover_store(&dir, EventStore::new(space())).unwrap();
        assert_eq!(second.to_snapshot_bytes().unwrap(), expected_bytes);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The checkpoint/trim crash window: a checkpoint written *without*
/// trimming the log (the state left by a crash between the two steps)
/// replays idempotently — frames the checkpoint already covers are
/// skipped by id, the rest are applied, and the recovered bytes equal
/// the direct store's.
#[test]
fn checkpoint_crash_window_replay_is_idempotent() {
    let mut rng = SeededRng::new(0x5d73_17e3_a5f2_c6ff);
    for _ in 0..64 {
        let events = arb_events(&mut rng);
        let cut_seed = rng.range(0u64..1_000);
        let dir = wal_scratch();
        let cut = (cut_seed as usize) % (events.len() + 1);
        let mut expected = EventStore::new(space());
        {
            let mut store = EventStore::new(space());
            let (mut wal, _) = ShardWal::open(&wal_config(&dir), 0).unwrap();
            for (i, (dev, t, ap)) in events.iter().enumerate() {
                if i == cut {
                    // Checkpoint the prefix but leave every frame in place.
                    write_checkpoint(&dir, &store).unwrap();
                }
                log_then_apply(&mut store, &mut wal, (*dev, *t, *ap));
                expected
                    .ingest_raw(&mac_of(*dev), *t, &format!("wap{ap}"))
                    .unwrap();
            }
            if cut == events.len() {
                write_checkpoint(&dir, &store).unwrap();
            }
        }
        let (recovered, report) = recover_store(&dir, EventStore::new(space())).unwrap();
        assert_eq!(report.base_events, cut);
        assert_eq!(
            report.skipped, cut as u64,
            "covered frames are skipped by id"
        );
        assert_eq!(report.replayed, (events.len() - cut) as u64);
        assert_eq!(
            recovered.to_snapshot_bytes().unwrap(),
            expected.to_snapshot_bytes().unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------------
// The δ invariant: every device δ lies in [1, 2³²) however a store is built
// ---------------------------------------------------------------------------

fn assert_deltas_in_range(store: &EventStore, after: &str) {
    for device in store.devices() {
        assert!(
            (1..1i64 << 32).contains(&device.delta),
            "after {after}: {} has δ = {}",
            device.mac,
            device.delta
        );
    }
}

/// Any `i64`, with the extremes and the ends of the range drawn often.
fn arb_delta(rng: &mut SeededRng) -> i64 {
    let pick = rng.range(0u8..8);
    let any = rng.next_u64() as i64;
    match pick {
        0 => i64::MIN,
        1 => i64::MAX,
        2 => 0,
        3 => 1 << 32,
        _ => any,
    }
}

/// CSV load then δ estimation, `set_delta` with any value (both
/// extremes included), a snapshot round trip and WAL recovery from a
/// checkpoint all leave every device δ in `[1, 2³²)`.
#[test]
fn every_way_to_build_a_store_keeps_delta_in_range() {
    let mut rng = SeededRng::new(0x9a29_fe56_27f1_f82b);
    for _ in 0..64 {
        let events = arb_events(&mut rng);
        let period = rng.range(1i64..10_000);
        let len = rng.range(0usize..6);
        let overrides: Vec<(u8, i64)> = (0..len)
            .map(|_| (rng.range(0u8..6), arb_delta(&mut rng)))
            .collect();
        let mut store = build_store(&events);
        // One device reconnecting every `period` seconds on one AP, so the
        // estimate is not always the fallback.
        for i in 0..12 {
            store.ingest_raw("periodic", i * period, "wap0").unwrap();
        }
        let mut store = EventStore::from_csv(space(), &store.to_csv()).unwrap();
        store.estimate_deltas();
        assert_deltas_in_range(&store, "CSV load and estimate_deltas");

        let ids: Vec<DeviceId> = store.devices().iter().map(|d| d.id).collect();
        for (dev, delta) in overrides {
            let device = ids[usize::from(dev) % ids.len()];
            store.set_delta(device, delta);
            assert_eq!(store.delta(device), delta.clamp(1, (1 << 32) - 1));
        }
        store.set_delta(ids[0], i64::MIN);
        assert_eq!(store.delta(ids[0]), 1);
        store.set_delta(ids[ids.len() - 1], i64::MAX);
        assert_eq!(store.delta(ids[ids.len() - 1]), (1 << 32) - 1);
        assert_deltas_in_range(&store, "set_delta");

        let bytes = store.to_snapshot_bytes().unwrap();
        let loaded = EventStore::from_snapshot_bytes(&bytes).unwrap();
        assert_deltas_in_range(&loaded, "a snapshot round trip");
        assert_eq!(&loaded, &store);

        // Checkpoint the store, then log a tail of new devices and events.
        let dir = wal_scratch();
        write_checkpoint(&dir, &store).unwrap();
        {
            let mut live = store.clone();
            let (mut wal, _) = ShardWal::open(&wal_config(&dir), 0).unwrap();
            for event in events.iter().take(20) {
                log_then_apply(&mut live, &mut wal, *event);
            }
        }
        let (recovered, _) = recover_store(&dir, EventStore::new(space())).unwrap();
        assert_deltas_in_range(&recovered, "WAL recovery");
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------------
// The global timeline across its 65,536-second bucket boundaries
// ---------------------------------------------------------------------------

const BUCKET: i64 = 1 << 16;
const LAST_SECOND: i64 = (1 << 32) - 1;

/// Timestamps on and around bucket boundaries, both ends of the storable
/// range included.
fn boundary_times() -> Vec<i64> {
    let mut times = vec![0, 1, LAST_SECOND - 1, LAST_SECOND];
    for k in [1, 2, 3, 17, 65_535] {
        times.extend([k * BUCKET - 1, k * BUCKET, k * BUCKET + 1]);
    }
    times
}

/// One step of the timeline model test.
#[derive(Debug, Clone, Copy)]
enum Step {
    Ingest {
        dev: u8,
        t: i64,
        ap: u8,
    },
    Compact(i64),
    /// Every deployment rejoins its shards and splits them again.
    Rejoin,
    /// Every deployment reloads from its snapshot and splits it again.
    Reload,
}

/// A store and its 2- and 3-shard partitions, fed the same steps under one
/// shared id sequence, beside the events they should hold.
struct TimelineModel {
    stores: Vec<Vec<EventStore>>,
    /// `(t, device, id, ap)` of every event not compacted away.
    events: Vec<(i64, u32, u64, u32)>,
    next_id: u64,
}

impl TimelineModel {
    /// Four devices with the validity periods `deltas`.
    fn new(deltas: [i64; 4]) -> Self {
        let mut base = EventStore::new(space());
        for (dev, delta) in (0u8..).zip(deltas) {
            let device = base.intern_device(&mac_of(dev)).unwrap();
            base.set_delta(device, delta);
        }
        let stores = [1, 2, 3].iter().map(|&n| base.split(n)).collect();
        Self {
            stores,
            events: Vec::new(),
            next_id: 0,
        }
    }

    fn apply(&mut self, step: Step) {
        match step {
            Step::Ingest { dev, t, ap } => {
                let device = DeviceId::new(u32::from(dev));
                for shards in &mut self.stores {
                    let owner = shard_of_device(device, shards.len());
                    let store = &mut shards[owner];
                    store.set_next_event_id(self.next_id);
                    store
                        .ingest_raw(&mac_of(dev), t, &format!("wap{ap}"))
                        .unwrap();
                }
                self.events.push((t, device.0, self.next_id, u32::from(ap)));
                self.next_id += 1;
            }
            Step::Compact(cut) => {
                for store in self.stores.iter_mut().flatten() {
                    store.compact(cut);
                }
                self.events.retain(|&(t, ..)| t >= cut);
            }
            Step::Rejoin => {
                for shards in &mut self.stores {
                    *shards = EventStore::rejoin(&*shards).unwrap().split(shards.len());
                }
            }
            Step::Reload => {
                for shards in &mut self.stores {
                    let bytes = ShardedRead::new(shards.iter().collect())
                        .to_snapshot_bytes()
                        .unwrap();
                    *shards = EventStore::from_snapshot_bytes(&bytes)
                        .unwrap()
                        .split(shards.len());
                }
            }
        }
    }

    /// The region-scoped neighbor read and `devices_near` of every
    /// deployment equal the per-device references at `probe`, for every
    /// region and for `exclude`.
    fn check_region_reads(&self, probe: i64, exclude: Option<DeviceId>, step: Step) {
        let space = space();
        let without = |device: DeviceId| Some(device) != exclude;
        for shards in &self.stores {
            let view = ShardedRead::new(shards.iter().collect());
            let online = reference_online(&view, probe);
            for region in (0..space.num_regions() as u32).map(RegionId::new) {
                let expected: Vec<_> = online
                    .iter()
                    .copied()
                    .filter(|&(device, other)| {
                        without(device) && space.regions_overlap(region, other)
                    })
                    .collect();
                assert_eq!(
                    view.devices_online_near(probe, region, exclude),
                    expected,
                    "{} shard(s), probe {probe}, {region}, exclude {exclude:?}, after {step:?}",
                    shards.len()
                );
            }
            for slack in [0, 100, 700] {
                let mut expected = reference_near(&view, probe, slack);
                expected.retain(|near| without(near.device));
                assert_eq!(
                    view.devices_near(probe, slack, exclude),
                    expected,
                    "{} shard(s), probe {probe}, slack {slack}, after {step:?}",
                    shards.len()
                );
            }
        }
    }

    /// Every reader agrees with the model after `step`.
    fn check(&self, step: Step) {
        let expected = &self.events;
        // One entry per event, as `(t, device, ap)`, sorted.
        let entries = |from: i64, to: i64| -> Vec<(i64, u32, u32)> {
            let mut found: Vec<_> = expected
                .iter()
                .filter(|&&(t, ..)| from <= t && t < to)
                .map(|&(t, device, _, ap)| (t, device, ap))
                .collect();
            found.sort_unstable();
            found
        };
        let single = &self.stores[0][0];
        let range = |from: i64, to: i64| -> Vec<(i64, u32, u32)> {
            let mut found: Vec<_> = (0..3)
                .map(AccessPointId::new)
                .flat_map(|ap| {
                    single
                        .timeline()
                        .entries(ap)
                        .filter(move |&(t, _)| from <= t && t < to)
                        .map(move |(t, device)| (t, device.0, ap.raw()))
                })
                .collect();
            found.sort_unstable();
            found
        };
        assert_eq!(
            range(i64::MIN / 2, i64::MAX / 2),
            entries(0, 1 << 32),
            "after {step:?}"
        );
        let times = boundary_times();
        for &t in &times {
            assert_eq!(
                range(t, t + 2),
                entries(t, t + 2),
                "range at {t} after {step:?}"
            );
            assert_eq!(
                range(t - BUCKET, t),
                entries(t - BUCKET, t),
                "after {step:?}"
            );
        }
        for shards in &self.stores {
            let view = ShardedRead::new(shards.iter().collect());
            for &t in &times {
                for probe in [t - 400, t, t + 1] {
                    assert_eq!(
                        view.devices_online_at(probe, None),
                        reference_online(&view, probe),
                        "{} shard(s), probe {probe}, after {step:?}",
                        shards.len()
                    );
                }
                for slack in [0, 1, 700, BUCKET + 5] {
                    assert_eq!(
                        view.devices_near(t, slack, None),
                        reference_near(&view, t, slack),
                        "{} shard(s), probe {t}, slack {slack}, after {step:?}",
                        shards.len()
                    );
                }
            }
            // The incremental index equals the one a load rebuilds.
            assert_eq!(
                &EventStore::rejoin(shards).unwrap(),
                single,
                "after {step:?}"
            );
        }
    }
}

fn run_timeline_model(steps: &[Step]) {
    // Device 3's δ of two buckets makes every `devices_online_at` window
    // span three buckets or more.
    let mut model = TimelineModel::new([300, 450, 600, 2 * BUCKET]);
    for &step in steps {
        model.apply(step);
        model.check(step);
    }
    let single = &model.stores[0][0];
    let loaded = EventStore::from_snapshot_bytes(&single.to_snapshot_bytes().unwrap()).unwrap();
    assert_eq!(&loaded, single);
}

/// Boundary timestamps, late splices into earlier buckets, same-`t` ties of
/// one device and cuts on and inside a bucket boundary, in that order.
#[test]
fn timeline_matches_a_sorted_model_across_bucket_boundaries() {
    let ingest = |dev: u8, t: i64, ap: u8| Step::Ingest { dev, t, ap };
    run_timeline_model(&[
        ingest(0, 0, 0),
        ingest(1, BUCKET - 1, 1),
        ingest(2, BUCKET, 2),
        ingest(3, LAST_SECOND, 0),
        ingest(0, 3 * BUCKET + 1, 1),
        // Late splices: into an earlier bucket, into a bucket not yet held
        // and below everything.
        ingest(3, BUCKET - 1, 2),
        ingest(1, 2 * BUCKET - 1, 0),
        ingest(2, 17 * BUCKET, 1),
        ingest(2, 1, 0),
        ingest(0, 65_535 * BUCKET - 1, 2),
        ingest(1, 65_535 * BUCKET + 1, 1),
        // Same-`t` ties of one device, then across devices.
        ingest(0, BUCKET, 0),
        ingest(0, BUCKET, 2),
        ingest(0, BUCKET, 1),
        ingest(1, BUCKET, 1),
        ingest(3, LAST_SECOND, 2),
        ingest(3, LAST_SECOND - 1, 1),
        // A cut on a boundary, one inside a bucket, a splice below the
        // cut, and a cut that keeps only the last second.
        Step::Compact(BUCKET),
        Step::Compact(2 * BUCKET + 7),
        ingest(2, BUCKET + 3, 0),
        ingest(0, 3 * BUCKET - 1, 1),
        Step::Compact(3 * BUCKET),
        Step::Compact(LAST_SECOND),
        ingest(1, 0, 0),
        Step::Compact(1 << 32),
    ]);
}

/// Random steps over the boundary timestamps (and one second either
/// side): the index equals the sorted model after every step.
#[test]
fn timeline_model_holds_for_random_boundary_steps() {
    let mut rng = SeededRng::new(0x2883_9629_a8e5_c690);
    for _ in 0..24 {
        let len = rng.range(1usize..32);
        let raw: Vec<(u8, u8, usize, u8, i64)> = (0..len)
            .map(|_| {
                (
                    rng.range(0u8..10),
                    rng.range(0u8..4),
                    rng.range(0usize..19),
                    rng.range(0u8..3),
                    rng.range(0i64..3),
                )
            })
            .collect();
        let times = boundary_times();
        let steps: Vec<Step> = raw
            .iter()
            .map(|&(kind, dev, pick, ap, nudge)| {
                let t = (times[pick % times.len()] + nudge - 1).clamp(0, LAST_SECOND);
                if kind == 0 {
                    Step::Compact(t)
                } else {
                    Step::Ingest { dev, t, ap }
                }
            })
            .collect();
        run_timeline_model(&steps);
    }
}

// ---------------------------------------------------------------------------
// The region-scoped neighbor read against the per-device reference
// ---------------------------------------------------------------------------

/// Applies `steps` to 1-, 2- and 3-shard deployments of four devices with
/// δs of 300–900 s, and checks every region-scoped read at `probes` (and
/// around each ingest) after every step.
fn run_region_model(steps: &[Step], probes: &[i64], exclude: Option<DeviceId>) {
    let mut model = TimelineModel::new([300, 450, 600, 900]);
    for &step in steps {
        model.apply(step);
        let mut times = probes.to_vec();
        if let Step::Ingest { t, .. } | Step::Compact(t) = step {
            times.extend([t - 300, t - 1, t, t + 1, t + 450]);
        }
        for probe in times {
            model.check_region_reads(probe, exclude, step);
            model.check_region_reads(probe, None, step);
        }
    }
}

/// Late splices on several APs, one device at one `t` on two APs (the
/// closest-event tie of `devices_near`), a cut on an event, a rejoin and a
/// snapshot load, in that order.
#[test]
fn region_reads_match_the_reference_across_splices_cuts_and_rebuilds() {
    let ingest = |dev: u8, t: i64, ap: u8| Step::Ingest { dev, t, ap };
    let steps = [
        ingest(0, 1_000, 0),
        ingest(1, 1_200, 1),
        ingest(2, 1_500, 2),
        ingest(3, 2_000, 3),
        ingest(0, 2_400, 1),
        ingest(1, 3_000, 2),
        // Late splices on three APs.
        ingest(2, 900, 1),
        ingest(3, 1_100, 0),
        ingest(1, 1_900, 2),
        // Device 0 at one `t` on two APs; device 1 ties it on a third.
        ingest(0, 1_700, 2),
        ingest(0, 1_700, 0),
        ingest(1, 1_700, 1),
        // A cut on an event, then appends to exact-capacity lists after a
        // rejoin and after a load.
        Step::Compact(1_100),
        Step::Rejoin,
        ingest(2, 3_100, 0),
        ingest(3, 1_150, 2),
        Step::Reload,
        ingest(0, 3_200, 3),
        ingest(1, 1_300, 1),
        Step::Compact(1_700),
    ];
    let probes: Vec<i64> = (0..45).map(|k| 100 * k - 200).collect();
    for exclude in [0, 1, 3] {
        run_region_model(&steps, &probes, Some(DeviceId::new(exclude)));
    }
}

/// Random ingests (late ones and same-`t` ties included), cuts on
/// ingested times, rejoins and reloads: the region-scoped read equals
/// the reference after every step, for every region and a random
/// excluded device.
#[test]
fn region_reads_hold_for_random_steps() {
    let mut rng = SeededRng::new(0x3a40_79d1_2e14_edc9);
    for _ in 0..32 {
        let len = rng.range(1usize..40);
        let raw: Vec<(u8, u8, i64, u8)> = (0..len)
            .map(|_| {
                (
                    rng.range(0u8..16),
                    rng.range(0u8..4),
                    rng.range(0i64..40),
                    rng.range(0u8..4),
                )
            })
            .collect();
        let len = rng.range(1usize..4);
        let probes: Vec<i64> = (0..len).map(|_| rng.range(-500i64..4_500)).collect();
        let exclude = rng.range(0u32..5);
        let mut times = Vec::new();
        let steps: Vec<Step> = raw
            .iter()
            .map(|&(kind, dev, slot, ap)| match kind {
                0 => Step::Compact(
                    times
                        .get(slot as usize % times.len().max(1))
                        .copied()
                        .unwrap_or(0),
                ),
                1 => Step::Rejoin,
                2 => Step::Reload,
                _ => {
                    // Slots of 100 s make same-`t` ties across devices and APs.
                    let t = slot * 100;
                    times.push(t);
                    Step::Ingest { dev, t, ap }
                }
            })
            .collect();
        // Device 4 does not exist: no device is excluded.
        run_region_model(
            &steps,
            &probes,
            Some(DeviceId::new(exclude)).filter(|d| d.0 < 4),
        );
    }
}
