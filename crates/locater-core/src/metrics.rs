//! Quality metrics of the evaluation (paper §6.1).
//!
//! Given a query set `Q` with ground truth, the paper reports three precision
//! numbers:
//!
//! * `P_c = (|Q_out| + |Q_region|) / |Q|` — coarse precision: queries answered
//!   correctly as *outside* plus queries whose *region* was correct;
//! * `P_f = |Q_room| / |Q_region|` — fine precision: among the queries whose region
//!   was correct, the fraction whose *room* was also correct;
//! * `P_o = (|Q_room| + |Q_out|) / |Q|` — overall precision: room-correct plus
//!   outside-correct over all queries.
//!
//! [`PrecisionCounts`] accumulates those counters from `(ground truth, answer)`
//! pairs; [`EvaluationReport`] groups counters by a label (predictability band, user
//! profile, scenario, …) the way Tables 3 and 4 do.

use crate::system::{Answer, Location};
use locater_space::{RoomId, Space};
use std::collections::BTreeMap;

/// Ground-truth location of a device at a query time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruthLocation {
    /// The person was outside the building.
    Outside,
    /// The person was in this room.
    Room(RoomId),
}

impl TruthLocation {
    /// `true` if the ground truth places the person inside the building.
    pub fn is_inside(&self) -> bool {
        matches!(self, TruthLocation::Room(_))
    }
}

/// Accumulated precision counters for one group of queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrecisionCounts {
    /// Total number of queries scored (`|Q|`).
    pub queries: usize,
    /// Queries whose ground truth was *outside*.
    pub truth_outside: usize,
    /// Queries answered *outside* correctly (`|Q_out|`).
    pub correct_outside: usize,
    /// Queries answered with the correct region (`|Q_region|`).
    pub correct_region: usize,
    /// Queries answered with the correct room (`|Q_room|`).
    pub correct_room: usize,
}

impl PrecisionCounts {
    /// Creates empty counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scores one `(ground truth, answer)` pair.
    ///
    /// The predicted region is counted as correct when the ground-truth room is one of
    /// the rooms covered by that region; the predicted room is counted as correct only
    /// when it equals the ground-truth room (and, per the paper's definition of `P_f`,
    /// only region-correct answers can be room-correct).
    pub fn record(&mut self, space: &Space, truth: TruthLocation, predicted: &Location) {
        self.queries += 1;
        match truth {
            TruthLocation::Outside => {
                self.truth_outside += 1;
                if !predicted.is_inside() {
                    self.correct_outside += 1;
                }
            }
            TruthLocation::Room(truth_room) => {
                let Some(region) = predicted.region() else {
                    return; // predicted outside while the person was inside
                };
                if !space.rooms_in_region(region).contains(&truth_room) {
                    return;
                }
                self.correct_region += 1;
                if predicted.room() == Some(truth_room) {
                    self.correct_room += 1;
                }
            }
        }
    }

    /// Convenience: scores a full [`Answer`].
    pub fn record_answer(&mut self, space: &Space, truth: TruthLocation, answer: &Answer) {
        self.record(space, truth, &answer.location);
    }

    /// Merges another set of counters into this one.
    pub fn merge(&mut self, other: &PrecisionCounts) {
        self.queries += other.queries;
        self.truth_outside += other.truth_outside;
        self.correct_outside += other.correct_outside;
        self.correct_region += other.correct_region;
        self.correct_room += other.correct_room;
    }

    /// Coarse precision `P_c`.
    pub fn pc(&self) -> f64 {
        ratio(self.correct_outside + self.correct_region, self.queries)
    }

    /// Fine precision `P_f`.
    pub fn pf(&self) -> f64 {
        ratio(self.correct_room, self.correct_region)
    }

    /// Overall precision `P_o`.
    pub fn po(&self) -> f64 {
        ratio(self.correct_room + self.correct_outside, self.queries)
    }

    /// `P_c`, `P_f`, `P_o` as percentages, the way the paper's tables print them.
    pub fn as_percentages(&self) -> (f64, f64, f64) {
        (self.pc() * 100.0, self.pf() * 100.0, self.po() * 100.0)
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Precision counters grouped by a label, the way Tables 3 and 4 report per
/// predictability band / user profile.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EvaluationReport {
    /// System or configuration name this report describes (e.g. "D-LOCATER").
    pub system: String,
    /// Counters per group label, ordered by label.
    pub groups: BTreeMap<String, PrecisionCounts>,
}

impl EvaluationReport {
    /// Creates an empty report for a system name.
    pub fn new(system: impl Into<String>) -> Self {
        Self {
            system: system.into(),
            groups: BTreeMap::new(),
        }
    }

    /// Scores one query under a group label.
    pub fn record(
        &mut self,
        group: &str,
        space: &Space,
        truth: TruthLocation,
        predicted: &Location,
    ) {
        self.groups
            .entry(group.to_string())
            .or_default()
            .record(space, truth, predicted);
    }

    /// The counters of one group, if present.
    pub fn group(&self, group: &str) -> Option<&PrecisionCounts> {
        self.groups.get(group)
    }

    /// Counters aggregated over all groups.
    pub fn overall(&self) -> PrecisionCounts {
        let mut total = PrecisionCounts::default();
        for counts in self.groups.values() {
            total.merge(counts);
        }
        total
    }

    /// Renders the report as a GitHub-flavoured markdown table with one row per group
    /// plus an overall row: `group | Pc | Pf | Po | queries`.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n", self.system));
        out.push_str("| group | Pc | Pf | Po | queries |\n|---|---|---|---|---|\n");
        for (group, counts) in &self.groups {
            let (pc, pf, po) = counts.as_percentages();
            out.push_str(&format!(
                "| {group} | {pc:.1} | {pf:.1} | {po:.1} | {} |\n",
                counts.queries
            ));
        }
        let overall = self.overall();
        let (pc, pf, po) = overall.as_percentages();
        out.push_str(&format!(
            "| **overall** | {pc:.1} | {pf:.1} | {po:.1} | {} |\n",
            overall.queries
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locater_space::{RegionId, SpaceBuilder};

    fn space() -> Space {
        SpaceBuilder::new("metrics")
            .add_access_point("wap0", &["r1", "r2", "r3"])
            .add_access_point("wap1", &["r3", "r4"])
            .build()
            .unwrap()
    }

    fn room(space: &Space, name: &str) -> RoomId {
        space.room_id(name).unwrap()
    }

    #[test]
    fn paper_metric_definitions() {
        let space = space();
        let g0 = RegionId::new(0);
        let mut counts = PrecisionCounts::new();
        // 1. truth outside, predicted outside → Q_out.
        counts.record(&space, TruthLocation::Outside, &Location::Outside);
        // 2. truth r1, predicted room r1 in g0 → Q_region and Q_room.
        counts.record(
            &space,
            TruthLocation::Room(room(&space, "r1")),
            &Location::Room {
                room: room(&space, "r1"),
                region: g0,
            },
        );
        // 3. truth r2, predicted room r1 in g0 → Q_region only.
        counts.record(
            &space,
            TruthLocation::Room(room(&space, "r2")),
            &Location::Room {
                room: room(&space, "r1"),
                region: g0,
            },
        );
        // 4. truth r4, predicted region g0 (wrong region) → nothing.
        counts.record(
            &space,
            TruthLocation::Room(room(&space, "r4")),
            &Location::Region(g0),
        );
        // 5. truth outside, predicted a room → nothing.
        counts.record(
            &space,
            TruthLocation::Outside,
            &Location::Room {
                room: room(&space, "r1"),
                region: g0,
            },
        );
        assert_eq!(counts.queries, 5);
        assert_eq!(counts.correct_outside, 1);
        assert_eq!(counts.correct_region, 2);
        assert_eq!(counts.correct_room, 1);
        assert!((counts.pc() - 3.0 / 5.0).abs() < 1e-12);
        assert!((counts.pf() - 1.0 / 2.0).abs() < 1e-12);
        assert!((counts.po() - 2.0 / 5.0).abs() < 1e-12);
        let (pc, pf, po) = counts.as_percentages();
        assert!((pc - 60.0).abs() < 1e-9);
        assert!((pf - 50.0).abs() < 1e-9);
        assert!((po - 40.0).abs() < 1e-9);
    }

    #[test]
    fn predicted_outside_while_inside_scores_nothing() {
        let space = space();
        let mut counts = PrecisionCounts::new();
        counts.record(
            &space,
            TruthLocation::Room(room(&space, "r1")),
            &Location::Outside,
        );
        assert_eq!(counts.correct_region, 0);
        assert_eq!(counts.correct_outside, 0);
        assert_eq!(counts.pc(), 0.0);
    }

    #[test]
    fn region_only_prediction_counts_for_pc_but_not_pf() {
        let space = space();
        let mut counts = PrecisionCounts::new();
        counts.record(
            &space,
            TruthLocation::Room(room(&space, "r3")),
            &Location::Region(RegionId::new(1)),
        );
        assert_eq!(counts.correct_region, 1);
        assert_eq!(counts.correct_room, 0);
        assert_eq!(counts.pf(), 0.0);
        assert_eq!(counts.pc(), 1.0);
    }

    #[test]
    fn empty_counts_have_zero_metrics() {
        let counts = PrecisionCounts::new();
        assert_eq!(counts.pc(), 0.0);
        assert_eq!(counts.pf(), 0.0);
        assert_eq!(counts.po(), 0.0);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = PrecisionCounts {
            queries: 10,
            truth_outside: 2,
            correct_outside: 2,
            correct_region: 6,
            correct_room: 4,
        };
        let b = PrecisionCounts {
            queries: 5,
            truth_outside: 1,
            correct_outside: 0,
            correct_region: 3,
            correct_room: 3,
        };
        a.merge(&b);
        assert_eq!(a.queries, 15);
        assert_eq!(a.correct_room, 7);
        assert_eq!(a.correct_region, 9);
        assert_eq!(a.truth_outside, 3);
    }

    #[test]
    fn report_groups_and_overall() {
        let space = space();
        let mut report = EvaluationReport::new("I-LOCATER");
        let g0 = RegionId::new(0);
        report.record(
            "[40,55)",
            &space,
            TruthLocation::Room(room(&space, "r1")),
            &Location::Room {
                room: room(&space, "r1"),
                region: g0,
            },
        );
        report.record(
            "[55,70)",
            &space,
            TruthLocation::Outside,
            &Location::Outside,
        );
        assert_eq!(report.groups.len(), 2);
        assert_eq!(report.group("[40,55)").unwrap().correct_room, 1);
        assert!(report.group("[85,100)").is_none());
        let overall = report.overall();
        assert_eq!(overall.queries, 2);
        assert_eq!(overall.correct_room, 1);
        assert_eq!(overall.correct_outside, 1);
        let md = report.to_markdown();
        assert!(md.contains("I-LOCATER"));
        assert!(md.contains("[40,55)"));
        assert!(md.contains("**overall**"));
        assert!(md.lines().count() >= 6);
    }
}
