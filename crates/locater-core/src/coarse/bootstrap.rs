//! Bootstrapping heuristics for labelling historical gaps (paper §3).
//!
//! The duration thresholds `τ_l` and `τ_h` split gaps into three classes: gaps shorter
//! than `τ_l` are labelled *inside* the building (a short silence almost never means
//! the person left), gaps longer than `τ_h` are labelled *outside*, and everything in
//! between stays *unlabeled* and is handed to the semi-supervised loop.
//!
//! Gaps labelled inside also need a region label to train the region classifier:
//!
//! * if the device reappears in the region it disappeared from (`g_str = g_end`), the
//!   gap is labelled with that region;
//! * otherwise the label is the region the device visits most often during the same
//!   time-of-day window on the other days of the history period (the "most visited
//!   region" heuristic);
//! * gaps longer than the region-level threshold `τ'_h` are left unlabeled at the
//!   region level even when they are labelled inside, since the device had plenty of
//!   time to move around.

use locater_events::clock::{self, Timestamp};
use locater_events::{Gap, StoredEvent};
use locater_space::RegionId;
use std::collections::HashMap;

/// Label assigned to a historical gap by the bootstrapping heuristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BootstrapLabel {
    /// The device was outside the building for the whole gap.
    Outside,
    /// The device was inside; the region label is `Some` when the region-level
    /// heuristics were confident, `None` when the gap must go through region-level
    /// self-training unlabelled.
    Inside(Option<RegionId>),
    /// The building-level heuristics could not decide.
    Unlabeled,
}

/// Counters describing a bootstrapping pass, used in reports and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BootstrapSummary {
    /// Gaps labelled inside the building.
    pub inside: usize,
    /// Gaps labelled outside the building.
    pub outside: usize,
    /// Gaps left unlabeled at the building level.
    pub unlabeled: usize,
    /// Inside gaps that also received a region label.
    pub with_region: usize,
}

/// The most visited region of the device during the gap's time-of-day window across
/// the history period, if any events fall in that window.
///
/// `events` must be the device's events *already restricted to the history window*
/// (the store produces exactly that, zero-copy, via
/// `EventStore::events_of_in(device, history)` without scanning older events).
pub(crate) fn most_visited_region<'a>(
    gap: &Gap,
    events: impl IntoIterator<Item = &'a StoredEvent>,
) -> Option<RegionId> {
    let window_start = clock::seconds_of_day(gap.start);
    let window_end = clock::seconds_of_day(gap.end);
    let mut counts: HashMap<RegionId, usize> = HashMap::new();
    for event in events {
        let sod = clock::seconds_of_day(event.t());
        let in_window = if window_start <= window_end {
            sod >= window_start && sod <= window_end
        } else {
            sod >= window_start || sod <= window_end
        };
        if in_window {
            *counts.entry(event.region()).or_insert(0) += 1;
        }
    }
    counts
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
        .map(|(region, _)| region)
}

/// Applies the bootstrapping heuristics to one gap.
///
/// * `events` — the device's events within the history window (see
///   [`most_visited_region`]).
/// * `tau_low` / `tau_high` — building-level thresholds (`τ_l`, `τ_h`).
/// * `region_tau_low` / `region_tau_high` — region-level thresholds (`τ'_l`, `τ'_h`).
pub(crate) fn bootstrap_label<'a>(
    gap: &Gap,
    events: impl IntoIterator<Item = &'a StoredEvent>,
    tau_low: Timestamp,
    tau_high: Timestamp,
    region_tau_low: Timestamp,
    region_tau_high: Timestamp,
) -> BootstrapLabel {
    let duration = gap.duration();
    if duration >= tau_high {
        return BootstrapLabel::Outside;
    }
    if duration > tau_low {
        return BootstrapLabel::Unlabeled;
    }
    // Inside the building; decide the region label.
    let region = if duration <= region_tau_low && gap.same_region() {
        Some(gap.start_region())
    } else if duration <= region_tau_high {
        if gap.same_region() {
            Some(gap.start_region())
        } else {
            most_visited_region(gap, events).or(Some(gap.start_region()))
        }
    } else {
        None
    };
    BootstrapLabel::Inside(region)
}

/// Labels every gap in `gaps` and returns the labels alongside summary counters.
/// `events` is re-iterated once per gap, so it must be cheaply cloneable (a
/// slice reference or the store's windowed iterator both are).
pub fn bootstrap_labels<'a>(
    gaps: &[Gap],
    events: impl IntoIterator<Item = &'a StoredEvent> + Clone,
    tau_low: Timestamp,
    tau_high: Timestamp,
    region_tau_low: Timestamp,
    region_tau_high: Timestamp,
) -> (Vec<BootstrapLabel>, BootstrapSummary) {
    let mut summary = BootstrapSummary::default();
    let labels: Vec<BootstrapLabel> = gaps
        .iter()
        .map(|gap| {
            let label = bootstrap_label(
                gap,
                events.clone(),
                tau_low,
                tau_high,
                region_tau_low,
                region_tau_high,
            );
            match label {
                BootstrapLabel::Outside => summary.outside += 1,
                BootstrapLabel::Inside(region) => {
                    summary.inside += 1;
                    if region.is_some() {
                        summary.with_region += 1;
                    }
                }
                BootstrapLabel::Unlabeled => summary.unlabeled += 1,
            }
            label
        })
        .collect();
    (labels, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use locater_events::clock::{at, minutes};
    use locater_events::{gaps_in, EventSeq};

    const TAU_L: Timestamp = minutes(20);
    const TAU_H: Timestamp = minutes(180);
    const RTAU_L: Timestamp = minutes(20);
    const RTAU_H: Timestamp = minutes(40);

    fn label_of(seq: &EventSeq, gap: &Gap) -> BootstrapLabel {
        bootstrap_label(gap, seq.events(), TAU_L, TAU_H, RTAU_L, RTAU_H)
    }

    #[test]
    fn short_same_region_gap_is_inside_with_region() {
        let seq = EventSeq::from_pairs(&[(at(0, 9, 0, 0), 2), (at(0, 9, 30, 0), 2)]);
        let gap = gaps_in(&seq, 300)[0];
        assert!(gap.duration() <= TAU_L);
        let label = label_of(&seq, &gap);
        assert_eq!(label, BootstrapLabel::Inside(Some(RegionId::new(2))));
    }

    #[test]
    fn long_gap_is_outside() {
        let seq = EventSeq::from_pairs(&[(at(0, 9, 0, 0), 2), (at(0, 16, 0, 0), 2)]);
        let gap = gaps_in(&seq, 300)[0];
        assert!(gap.duration() >= TAU_H);
        assert_eq!(label_of(&seq, &gap), BootstrapLabel::Outside);
    }

    #[test]
    fn medium_gap_is_unlabeled() {
        let seq = EventSeq::from_pairs(&[(at(0, 9, 0, 0), 2), (at(0, 10, 30, 0), 2)]);
        let gap = gaps_in(&seq, 300)[0];
        assert!(gap.duration() > TAU_L && gap.duration() < TAU_H);
        assert_eq!(label_of(&seq, &gap), BootstrapLabel::Unlabeled);
    }

    #[test]
    fn short_cross_region_gap_uses_most_visited_region() {
        // The device historically spends 10:00–10:20 in region 7 on other days.
        let seq = EventSeq::from_pairs(&[
            (at(1, 10, 5, 0), 7),
            (at(2, 10, 10, 0), 7),
            (at(3, 10, 2, 0), 5),
            (at(5, 10, 0, 0), 1),
            (at(5, 10, 18, 0), 3),
        ]);
        let gap = *gaps_in(&seq, 300).last().unwrap();
        assert!(!gap.same_region());
        let label = label_of(&seq, &gap);
        assert_eq!(label, BootstrapLabel::Inside(Some(RegionId::new(7))));
    }

    #[test]
    fn cross_region_gap_without_history_falls_back_to_start_region() {
        let seq = EventSeq::from_pairs(&[(at(0, 10, 0, 0), 1), (at(0, 10, 18, 0), 3)]);
        let gap = gaps_in(&seq, 300)[0];
        // Only the bounding events exist; they are outside the gap window, so the most
        // visited region is None and we fall back to the start region.
        let label = bootstrap_label(&gap, seq.events(), TAU_L, TAU_H, RTAU_L, RTAU_H);
        assert_eq!(label, BootstrapLabel::Inside(Some(RegionId::new(1))));
    }

    #[test]
    fn bootstrap_labels_summary_counts() {
        let seq = EventSeq::from_pairs(&[
            (at(0, 9, 0, 0), 2),
            (at(0, 9, 15, 0), 2), // short gap → inside
            (at(0, 11, 0, 0), 2), // 1h45 gap → unlabeled
            (at(0, 18, 0, 0), 2), // 7h gap → outside
        ]);
        let gaps = gaps_in(&seq, 300);
        assert_eq!(gaps.len(), 3);
        let (labels, summary) = bootstrap_labels(&gaps, seq.events(), TAU_L, TAU_H, RTAU_L, RTAU_H);
        assert_eq!(labels.len(), 3);
        assert_eq!(summary.inside, 1);
        assert_eq!(summary.unlabeled, 1);
        assert_eq!(summary.outside, 1);
        assert_eq!(summary.with_region, 1);
    }

    #[test]
    fn most_visited_region_breaks_ties_deterministically() {
        let seq = EventSeq::from_pairs(&[(at(1, 10, 5, 0), 4), (at(2, 10, 5, 0), 2)]);
        let probe = EventSeq::from_pairs(&[(at(5, 10, 0, 0), 0), (at(5, 10, 15, 0), 0)]);
        let gap = gaps_in(&probe, 300)[0];
        // Both regions seen once: the smaller region id wins (deterministic).
        assert_eq!(
            most_visited_region(&gap, seq.events()),
            Some(RegionId::new(2))
        );
    }
}
