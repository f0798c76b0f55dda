//! Property-based tests for the connectivity data model invariants.

use locater_events::{clock, gaps_in, EventSeq, Interval};
use proptest::prelude::*;

fn arb_event_times() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(0i64..2_000_000, 1..200)
}

proptest! {
    /// Gaps never overlap event validity: every gap lies strictly between the
    /// timestamps of its bounding events, shrunk by delta on both sides.
    #[test]
    fn gaps_lie_between_their_bounding_events(times in arb_event_times(), delta in 1i64..3_600) {
        let pairs: Vec<(i64, u32)> = times.iter().map(|&t| (t, 0u32)).collect();
        let seq = EventSeq::from_pairs(&pairs);
        for gap in gaps_in(&seq, delta) {
            prop_assert_eq!(gap.start, gap.prev_t + delta);
            prop_assert_eq!(gap.end, gap.next_t - delta);
            prop_assert!(gap.duration() > 0);
            prop_assert!(gap.start > gap.prev_t);
            prop_assert!(gap.end < gap.next_t);
        }
    }

    /// The union of validity intervals and gaps covers the whole span between the
    /// first and last event with no overlaps between consecutive gaps.
    #[test]
    fn gaps_are_disjoint_and_ordered(times in arb_event_times(), delta in 1i64..3_600) {
        let pairs: Vec<(i64, u32)> = times.iter().map(|&t| (t, 0u32)).collect();
        let seq = EventSeq::from_pairs(&pairs);
        let gaps = gaps_in(&seq, delta);
        for w in gaps.windows(2) {
            prop_assert!(w[0].end <= w[1].start);
        }
    }

    /// Any instant inside a detected gap is reported as uncovered by covering_event,
    /// and any instant covered by an event is never inside a gap.
    #[test]
    fn coverage_and_gaps_are_mutually_exclusive(times in arb_event_times(), delta in 1i64..3_600, probe in 0i64..2_000_000) {
        let pairs: Vec<(i64, u32)> = times.iter().map(|&t| (t, 0u32)).collect();
        let seq = EventSeq::from_pairs(&pairs);
        let covered = seq.covering_event(probe, delta).is_some();
        let in_gap = locater_events::gap_containing(&seq, probe, delta).is_some();
        prop_assert!(!(covered && in_gap), "probe {} both covered and in a gap", probe);
    }

    /// EventSeq::push maintains sorted order regardless of insertion order.
    #[test]
    fn push_maintains_sorted_order(times in arb_event_times()) {
        use locater_events::{EventId, StoredEvent};
        use locater_space::AccessPointId;
        let mut seq = EventSeq::new();
        for (i, &t) in times.iter().enumerate() {
            seq.push(StoredEvent::new(EventId::new(i as u64), t, AccessPointId::new(0)));
        }
        let ts: Vec<i64> = seq.events().iter().map(|e| e.t()).collect();
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        prop_assert_eq!(ts, sorted);
    }

    /// Interval intersection is commutative and contained in both operands.
    #[test]
    fn interval_intersection_properties(a in 0i64..1_000, b in 0i64..1_000, c in 0i64..1_000, d in 0i64..1_000) {
        let x = Interval::new(a.min(b), a.max(b));
        let y = Interval::new(c.min(d), c.max(d));
        let xy = x.intersection(&y);
        let yx = y.intersection(&x);
        prop_assert_eq!(xy, yx);
        if let Some(i) = xy {
            prop_assert!(i.start >= x.start && i.end <= x.end);
            prop_assert!(i.start >= y.start && i.end <= y.end);
            prop_assert!(x.overlaps(&y));
        } else {
            prop_assert!(!x.overlaps(&y) || x.is_empty() || y.is_empty());
        }
    }

    /// Day/time decomposition reassembles to the original timestamp.
    #[test]
    fn clock_decomposition_roundtrips(t in 0i64..100_000_000) {
        let day = clock::day_index(t);
        let sod = clock::seconds_of_day(t);
        prop_assert_eq!(day * clock::SECONDS_PER_DAY + sod, t);
        prop_assert!((0..clock::SECONDS_PER_DAY).contains(&sod));
        prop_assert_eq!(clock::day_of_week(t).index(), (day % 7) as usize);
    }
}
