//! Property-based tests for the connectivity data model invariants, each
//! run over seeded random cases.

use locater_events::{clock, gaps_in, EventSeq, Interval, SeededRng};

/// 1–199 event times in `[0, 2_000_000)`.
fn arb_event_times(rng: &mut SeededRng) -> Vec<i64> {
    let len = rng.range(1usize..200);
    (0..len).map(|_| rng.range(0i64..2_000_000)).collect()
}

/// Gaps never overlap event validity: every gap lies strictly between the
/// timestamps of its bounding events, shrunk by delta on both sides.
#[test]
fn gaps_lie_between_their_bounding_events() {
    let mut rng = SeededRng::new(0x3190_715e_5fe7_12ea);
    for _ in 0..64 {
        let times = arb_event_times(&mut rng);
        let delta = rng.range(1i64..3_600);
        let pairs: Vec<(i64, u32)> = times.iter().map(|&t| (t, 0u32)).collect();
        let seq = EventSeq::from_pairs(&pairs);
        for gap in gaps_in(&seq, delta) {
            assert_eq!(gap.start, gap.prev_t + delta);
            assert_eq!(gap.end, gap.next_t - delta);
            assert!(gap.duration() > 0);
            assert!(gap.start > gap.prev_t);
            assert!(gap.end < gap.next_t);
        }
    }
}

/// The union of validity intervals and gaps covers the whole span between the
/// first and last event with no overlaps between consecutive gaps.
#[test]
fn gaps_are_disjoint_and_ordered() {
    let mut rng = SeededRng::new(0xba7d_0c51_fc48_465e);
    for _ in 0..64 {
        let times = arb_event_times(&mut rng);
        let delta = rng.range(1i64..3_600);
        let pairs: Vec<(i64, u32)> = times.iter().map(|&t| (t, 0u32)).collect();
        let seq = EventSeq::from_pairs(&pairs);
        let gaps = gaps_in(&seq, delta);
        for w in gaps.windows(2) {
            assert!(w[0].end <= w[1].start);
        }
    }
}

/// Any instant inside a detected gap is reported as uncovered by covering_event,
/// and any instant covered by an event is never inside a gap.
#[test]
fn coverage_and_gaps_are_mutually_exclusive() {
    let mut rng = SeededRng::new(0x2c46_cede_0a22_ccf3);
    for _ in 0..64 {
        let times = arb_event_times(&mut rng);
        let delta = rng.range(1i64..3_600);
        let probe = rng.range(0i64..2_000_000);
        let pairs: Vec<(i64, u32)> = times.iter().map(|&t| (t, 0u32)).collect();
        let seq = EventSeq::from_pairs(&pairs);
        let covered = seq.covering_event(probe, delta).is_some();
        let in_gap = locater_events::gap_containing(&seq, probe, delta).is_some();
        assert!(
            !(covered && in_gap),
            "probe {} both covered and in a gap",
            probe
        );
    }
}

/// EventSeq::push maintains sorted order regardless of insertion order.
#[test]
fn push_maintains_sorted_order() {
    let mut rng = SeededRng::new(0x3804_e76c_fd9f_3de3);
    for _ in 0..64 {
        let times = arb_event_times(&mut rng);
        use locater_events::{EventId, StoredEvent};
        use locater_space::AccessPointId;
        let mut seq = EventSeq::new();
        for (i, &t) in times.iter().enumerate() {
            seq.push(StoredEvent::new(
                EventId::new(i as u64),
                t,
                AccessPointId::new(0),
            ));
        }
        let ts: Vec<i64> = seq.events().iter().map(|e| e.t()).collect();
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        assert_eq!(ts, sorted);
    }
}

/// Interval intersection is commutative and contained in both operands.
#[test]
fn interval_intersection_properties() {
    let mut rng = SeededRng::new(0xc009_10b0_994f_f62c);
    for _ in 0..64 {
        let [a, b, c, d] = [(); 4].map(|()| rng.range(0i64..1_000));
        let x = Interval::new(a.min(b), a.max(b));
        let y = Interval::new(c.min(d), c.max(d));
        let xy = x.intersection(&y);
        let yx = y.intersection(&x);
        assert_eq!(xy, yx);
        if let Some(i) = xy {
            assert!(i.start >= x.start && i.end <= x.end);
            assert!(i.start >= y.start && i.end <= y.end);
            assert!(x.overlaps(&y));
        } else {
            assert!(!x.overlaps(&y) || x.is_empty() || y.is_empty());
        }
    }
}

/// Day/time decomposition reassembles to the original timestamp.
#[test]
fn clock_decomposition_roundtrips() {
    let mut rng = SeededRng::new(0x6ad2_19a4_b717_841a);
    for _ in 0..64 {
        let t = rng.range(0i64..100_000_000);
        let day = clock::day_index(t);
        let sod = clock::seconds_of_day(t);
        assert_eq!(day * clock::SECONDS_PER_DAY + sod, t);
        assert!((0..clock::SECONDS_PER_DAY).contains(&sod));
        assert_eq!(clock::day_of_week(t).index(), (day % 7) as usize);
    }
}
