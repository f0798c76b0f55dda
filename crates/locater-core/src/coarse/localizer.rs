//! The coarse-grained localizer (paper §3).
//!
//! For a query `Q = (d_i, t_q)` the localizer proceeds in three steps:
//!
//! 1. **Covered instant** — if some connectivity event of the device is valid at
//!    `t_q`, the device is in the region of that event's access point and no cleaning
//!    is needed.
//! 2. **Bootstrapping** — otherwise `t_q` falls in a *gap*. The device's historical
//!    gaps over the last `history` period are labelled by the duration heuristics
//!    (`τ_l`, `τ_h`, `τ'_l`, `τ'_h`; see [`super::bootstrap`]).
//! 3. **Semi-supervised classification** — two classifiers (inside/outside and
//!    region) are grown from the bootstrapped labels with the self-training loop of
//!    Algorithm 1 and applied to the query gap.
//!
//! Fitting the per-device classifiers is the expensive part, and only step 3
//! reads them: a [`DeviceCoarseModel`] is a `(device, history window)` pair whose
//! classifiers are fitted the first time [`CoarseLocalizer::classify_with_model`]
//! meets a gap the duration thresholds cannot decide. The window of a query is
//! fixed by its time alone ([`CoarseConfig::model_window`]), so a model is a
//! function of the device, the window's grid end and the device's events. The
//! service ([`crate::system::ShardedLocaterService`]) caches one model per
//! device; [`CoarseLocalizer::train_device_model`] is the eager form.

use crate::coarse::bootstrap::{bootstrap_labels, BootstrapLabel};
use crate::coarse::features::{connection_densities, GapFeatures};
use crate::error::LocaterError;
use locater_events::clock::{self, Timestamp};
use locater_events::{DeviceId, Gap, Interval, StoredEvent};
use locater_learn::{Dataset, LogisticRegression, SelfTrainingClassifier, SelfTrainingConfig};
use locater_space::RegionId;
use locater_store::EventRead;
use serde::{Deserialize, Serialize};
use std::ops::ControlFlow;
use std::sync::OnceLock;

/// Number of features of the gap feature vector (re-exported for dataset sizing).
use crate::coarse::features::NUM_GAP_FEATURES;

/// Configuration of the coarse-grained localization algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoarseConfig {
    /// Building-level lower threshold `τ_l`: gaps shorter than this are bootstrapped
    /// as *inside*. Default: 20 minutes (the paper's best value, Fig. 7).
    pub tau_low: Timestamp,
    /// Building-level upper threshold `τ_h`: gaps longer than this are bootstrapped as
    /// *outside*. Default: 180 minutes.
    pub tau_high: Timestamp,
    /// Region-level lower threshold `τ'_l`. Default: 20 minutes.
    pub region_tau_low: Timestamp,
    /// Region-level upper threshold `τ'_h`. Default: 40 minutes.
    pub region_tau_high: Timestamp,
    /// Length of the historical window `T` used to train the per-device models.
    /// Default: 8 weeks (where Fig. 8 plateaus).
    pub history: Timestamp,
    /// Upper bound on the number of historical gaps used for training (newest gaps are
    /// kept). Keeps per-device training time bounded on very chatty devices.
    pub max_training_gaps: usize,
    /// Configuration of the self-training loop (Algorithm 1).
    pub self_training: SelfTrainingConfig,
}

impl CoarseConfig {
    /// The history window that classifies a gap query at `t_q`:
    /// `[W − history, W)`, where `W` is `t_q` rounded down to a grid of one
    /// week, or of `history` when that is shorter. Every query of a device in
    /// one grid cell reads the same window, whichever query came first.
    pub fn model_window(&self, t_q: Timestamp) -> Interval {
        let end = t_q - t_q.rem_euclid(self.history.clamp(1, clock::weeks(1)));
        Interval::new(end - self.history, end)
    }
}

impl Default for CoarseConfig {
    fn default() -> Self {
        Self {
            tau_low: clock::minutes(20),
            tau_high: clock::minutes(180),
            region_tau_low: clock::minutes(20),
            region_tau_high: clock::minutes(40),
            history: clock::weeks(8),
            max_training_gaps: 600,
            self_training: SelfTrainingConfig::default(),
        }
    }
}

/// Coarse-level location decided for a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoarseLabel {
    /// The device was outside the building at the query time.
    Outside,
    /// The device was inside the building, in the given region.
    Inside(RegionId),
}

impl CoarseLabel {
    /// `true` if the label places the device inside the building.
    pub fn is_inside(&self) -> bool {
        matches!(self, CoarseLabel::Inside(_))
    }

    /// The region, if inside.
    pub fn region(&self) -> Option<RegionId> {
        match self {
            CoarseLabel::Inside(region) => Some(*region),
            CoarseLabel::Outside => None,
        }
    }
}

/// How the coarse label was derived. Reported for diagnostics and tested by the
/// evaluation harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoarseMethod {
    /// The query time was covered by a connectivity event's validity interval.
    CoveredByEvent,
    /// The query time lies before the first / after the last event of the device;
    /// treated as outside the building.
    OutOfSpan,
    /// The query gap was decided directly by the duration heuristics.
    BootstrapHeuristic,
    /// The query gap was decided by the trained (self-trained) classifiers.
    Classifier,
    /// Not enough history to train; fell back to the duration heuristic midpoint and
    /// the last known region.
    Fallback,
}

/// Result of coarse-grained localization for one query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoarseOutcome {
    /// The decided label.
    pub label: CoarseLabel,
    /// How the label was derived.
    pub method: CoarseMethod,
    /// Confidence in `[0, 1]`: 1.0 for covered instants and heuristic decisions, the
    /// classifier's winning-class probability otherwise.
    pub confidence: f64,
    /// The gap the query fell into, if any.
    pub gap: Option<Gap>,
}

impl CoarseOutcome {
    fn certain(label: CoarseLabel, method: CoarseMethod, gap: Option<Gap>) -> Self {
        Self {
            label,
            method,
            confidence: 1.0,
            gap,
        }
    }
}

/// The per-device model: a history window of one device and, once a gap needed
/// it, what was fitted on the device's events in that window — a pure function
/// of those events (`docs/ARCHITECTURE.md`, *The coarse-model cache contract*).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceCoarseModel {
    /// Device the model belongs to.
    pub device: DeviceId,
    /// History window the model is (to be) fitted on.
    pub history: Interval,
    /// Boxed, so a model never fitted stays a few words.
    fitted: OnceLock<Box<FittedModel>>,
}

impl DeviceCoarseModel {
    /// `true` once the classifiers have been fitted.
    pub fn is_fitted(&self) -> bool {
        self.fitted.get().is_some()
    }
}

/// What only ambiguous gaps (and the region fallback of short ones) read: the
/// classifiers Algorithm 1 ends with, without its per-sample labels.
#[derive(Debug, Clone, PartialEq)]
struct FittedModel {
    /// Inside/outside classifier (class 0 = inside, 1 = outside), if trainable.
    building: Option<LogisticRegression>,
    /// Region classifier and its class-index → region mapping, if trainable.
    region: Option<(LogisticRegression, Vec<RegionId>)>,
    /// The most frequently seen region in the history window (fallback label).
    dominant_region: Option<RegionId>,
}

/// The coarse-grained localizer.
///
/// Stateless apart from its configuration; per-device models are returned to the
/// caller so they can be cached across queries.
#[derive(Debug, Clone, Default)]
pub struct CoarseLocalizer {
    config: CoarseConfig,
}

impl CoarseLocalizer {
    /// Creates a localizer with the given configuration.
    pub fn new(config: CoarseConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CoarseConfig {
        &self.config
    }

    /// Full pipeline for one query: the device model of the query's window
    /// ([`CoarseConfig::model_window`]), fitted only if the gap needs it, and
    /// its classification. Use [`CoarseLocalizer::train_device_model`] +
    /// [`CoarseLocalizer::classify_with_model`] when issuing many queries
    /// against the same device.
    pub fn localize(
        &self,
        store: &dyn EventRead,
        device: DeviceId,
        t_q: Timestamp,
    ) -> Result<CoarseOutcome, LocaterError> {
        if device.index() >= store.num_devices() {
            return Err(LocaterError::UnknownDevice(device.to_string()));
        }
        let gap = match Self::query_gap(store, device, t_q) {
            ControlFlow::Continue(gap) => gap,
            ControlFlow::Break(certain) => return Ok(certain),
        };
        let model = self.prepare_device_model(device, self.config.model_window(t_q).end);
        Ok(self.classify_with_model(store, &model, &gap))
    }

    /// Steps 1–2 of every coarse query: a covered instant is certainly inside
    /// (`CoveredByEvent`), an instant outside the device's observed span
    /// certainly outside (`OutOfSpan`). Breaks with that certain outcome, or
    /// continues with the gap the query falls into, for a model to classify.
    pub(crate) fn query_gap(
        store: &dyn EventRead,
        device: DeviceId,
        t_q: Timestamp,
    ) -> ControlFlow<CoarseOutcome, Gap> {
        if let Some(region) = store.covering_region(device, t_q) {
            return ControlFlow::Break(CoarseOutcome::certain(
                CoarseLabel::Inside(region),
                CoarseMethod::CoveredByEvent,
                None,
            ));
        }
        match store.gap_at(device, t_q) {
            Some(gap) => ControlFlow::Continue(gap),
            None => ControlFlow::Break(CoarseOutcome::certain(
                CoarseLabel::Outside,
                CoarseMethod::OutOfSpan,
                None,
            )),
        }
    }

    /// The model of `device` for the `history` window ending at `until`, with
    /// nothing read or fitted yet.
    pub(crate) fn prepare_device_model(
        &self,
        device: DeviceId,
        until: Timestamp,
    ) -> DeviceCoarseModel {
        let history = Interval::new(until - self.config.history, until);
        DeviceCoarseModel {
            device,
            history,
            fitted: OnceLock::new(),
        }
    }

    /// Trains the per-device classifiers over the `history` window ending at
    /// `until`, eagerly. Both the event scan and the gap scan binary-search the
    /// window's ends, so a device with years of history costs the same as one with exactly
    /// `history` worth of data.
    pub fn train_device_model(
        &self,
        store: &dyn EventRead,
        device: DeviceId,
        until: Timestamp,
    ) -> DeviceCoarseModel {
        let model = self.prepare_device_model(device, until);
        self.fitted(store, &model);
        model
    }

    /// Fits `model` now if it is still unfitted and the fit reads an event an
    /// eviction of everything before `below` would take; returns whether it did.
    /// The oldest event a fit reads is the last one at or before
    /// `history.start + δ` (it opens the first gap that can overlap the window),
    /// or else the device's first.
    pub(crate) fn fit_before_eviction(
        &self,
        store: &dyn EventRead,
        model: &DeviceCoarseModel,
        below: Timestamp,
    ) -> bool {
        let timeline = store.timeline_of(model.device);
        let reach = model
            .history
            .start
            .saturating_add(store.delta(model.device));
        let oldest = timeline.get(timeline.partition_le(reach).saturating_sub(1));
        let fit = !model.is_fitted() && oldest.is_some_and(|event| event.t() < below);
        if fit {
            self.fitted(store, model);
        }
        fit
    }

    /// The fitted part of `model`, fitted on first use: concurrent callers
    /// block on one fit and share its result.
    fn fitted<'m>(&self, store: &dyn EventRead, model: &'m DeviceCoarseModel) -> &'m FittedModel {
        model
            .fitted
            .get_or_init(|| Box::new(self.fit(store, model.device, model.history)))
    }

    /// What a fit over `history` is grown from: the device's events in the
    /// window (one materialization, shared by the bootstrap heuristics and the
    /// gap densities) and the newest `max_training_gaps` gaps overlapping it.
    fn training_window(
        &self,
        store: &dyn EventRead,
        device: DeviceId,
        history: Interval,
    ) -> (Vec<StoredEvent>, Vec<Gap>) {
        let events = store.events_of_in(device, history).copied().collect();
        let mut gaps = store.gaps_of_in(device, history);
        gaps.drain(..gaps.len().saturating_sub(self.config.max_training_gaps));
        (events, gaps)
    }

    fn fit(&self, store: &dyn EventRead, device: DeviceId, history: Interval) -> FittedModel {
        let (events, gaps) = self.training_window(store, device, history);
        let (labels, _) = bootstrap_labels(
            &gaps,
            &events,
            self.config.tau_low,
            self.config.tau_high,
            self.config.region_tau_low,
            self.config.region_tau_high,
        );
        let densities = connection_densities(&gaps, &events, history);

        // One feature row per gap, routed to the building-level data set
        // (class 0 = inside, 1 = outside) and, for gaps labelled inside, to the
        // region-level one.
        let mut building_labeled = Dataset::new(NUM_GAP_FEATURES, 2);
        let mut building_unlabeled: Vec<Vec<f64>> = Vec::new();
        let mut region_classes: Vec<RegionId> = Vec::new();
        let mut region_rows: Vec<(Vec<f64>, usize)> = Vec::new();
        let mut region_unlabeled: Vec<Vec<f64>> = Vec::new();
        for ((gap, label), density) in gaps.iter().zip(&labels).zip(densities) {
            let features = GapFeatures::with_density(gap, density).to_vec();
            match label {
                BootstrapLabel::Unlabeled => building_unlabeled.push(features),
                BootstrapLabel::Outside => building_labeled.push(features, 1),
                BootstrapLabel::Inside(region) => {
                    building_labeled.push_row(&features, 0);
                    match region {
                        Some(region) => {
                            let known = region_classes.iter().position(|r| r == region);
                            let class = known.unwrap_or_else(|| {
                                region_classes.push(*region);
                                region_classes.len() - 1
                            });
                            region_rows.push((features, class));
                        }
                        None => region_unlabeled.push(features),
                    }
                }
            }
        }
        let train = |labeled: &Dataset, unlabeled: &[Vec<f64>]| {
            SelfTrainingClassifier::train(labeled, unlabeled, &self.config.self_training)
                .ok()
                .map(SelfTrainingClassifier::into_model)
        };
        let building = building_labeled
            .has_multiple_classes()
            .then(|| train(&building_labeled, &building_unlabeled))
            .flatten();
        let region = if region_classes.len() >= 2 {
            let mut labeled = Dataset::new(NUM_GAP_FEATURES, region_classes.len());
            for (row, class) in region_rows {
                labeled.push(row, class);
            }
            train(&labeled, &region_unlabeled).map(|clf| (clf, region_classes))
        } else {
            None
        };
        FittedModel {
            building,
            region,
            dominant_region: dominant_region(&events),
        }
    }

    /// Classifies the query gap with a device model, fitting the model's
    /// classifiers first if this is the first gap to need them. A gap the
    /// duration thresholds decide is outside, or inside with both ends in one
    /// region, reads no event of the history window. A short gap between two
    /// regions does: the region heuristic scans the window for the gap's
    /// time-of-day region and, when it finds none, reads the fitted model's
    /// dominant region, which fits the classifiers.
    pub fn classify_with_model(
        &self,
        store: &dyn EventRead,
        model: &DeviceCoarseModel,
        gap: &Gap,
    ) -> CoarseOutcome {
        let duration = gap.duration();

        // Decisive durations are handled by the same heuristics used to bootstrap the
        // training labels: a classifier trained on those labels would agree.
        if duration >= self.config.tau_high {
            return CoarseOutcome::certain(
                CoarseLabel::Outside,
                CoarseMethod::BootstrapHeuristic,
                Some(*gap),
            );
        }
        if duration <= self.config.tau_low {
            let region = self.heuristic_region(store, model, gap);
            return CoarseOutcome::certain(
                CoarseLabel::Inside(region),
                CoarseMethod::BootstrapHeuristic,
                Some(*gap),
            );
        }

        // Ambiguous duration: ask the classifiers. The density feature scans
        // the model's history window through the zero-copy window iterator;
        // older events stay cold and nothing is materialized.
        let features = GapFeatures::extract(
            gap,
            store.events_of_in(model.device, model.history),
            model.history,
        )
        .to_vec();
        let fitted = self.fitted(store, model);
        match &fitted.building {
            Some(classifier) => {
                let prediction = classifier.predict(&features);
                if prediction.label == 1 {
                    return CoarseOutcome {
                        label: CoarseLabel::Outside,
                        method: CoarseMethod::Classifier,
                        confidence: prediction.confidence(),
                        gap: Some(*gap),
                    };
                }
                // Inside: pick the region.
                let (region, region_confidence) = match &fitted.region {
                    Some((clf, classes)) => {
                        let p = clf.predict(&features);
                        (classes[p.label], p.confidence())
                    }
                    None => (self.heuristic_region(store, model, gap), 1.0),
                };
                CoarseOutcome {
                    label: CoarseLabel::Inside(region),
                    method: CoarseMethod::Classifier,
                    confidence: prediction.confidence() * region_confidence,
                    gap: Some(*gap),
                }
            }
            None => {
                // Not enough history: split the ambiguous range at its midpoint.
                let midpoint = (self.config.tau_low + self.config.tau_high) / 2;
                let label = if duration >= midpoint {
                    CoarseLabel::Outside
                } else {
                    CoarseLabel::Inside(self.heuristic_region(store, model, gap))
                };
                CoarseOutcome {
                    label,
                    method: CoarseMethod::Fallback,
                    confidence: 0.5,
                    gap: Some(*gap),
                }
            }
        }
    }

    /// Region heuristic for gaps decided to be inside: same region if the gap starts
    /// and ends in the same region, otherwise the most visited region of the device in
    /// the gap's time-of-day window, otherwise the dominant region of the history,
    /// otherwise the gap's start region.
    fn heuristic_region(
        &self,
        store: &dyn EventRead,
        model: &DeviceCoarseModel,
        gap: &Gap,
    ) -> RegionId {
        if gap.same_region() {
            return gap.start_region();
        }
        crate::coarse::bootstrap::most_visited_region(
            gap,
            store.events_of_in(model.device, model.history),
        )
        .or_else(|| self.fitted(store, model).dominant_region)
        .unwrap_or_else(|| gap.start_region())
    }
}

/// The region with the most connectivity events among `events` (the device's
/// history window).
fn dominant_region(events: &[StoredEvent]) -> Option<RegionId> {
    let mut counts: std::collections::HashMap<RegionId, usize> = std::collections::HashMap::new();
    for event in events {
        *counts.entry(event.region()).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
        .map(|(region, _)| region)
}

#[cfg(test)]
mod tests {
    use super::*;
    use locater_events::clock::at;
    use locater_space::{Space, SpaceBuilder};
    use locater_store::EventStore;

    fn space() -> Space {
        SpaceBuilder::new("coarse-test")
            .add_access_point("wap0", &["a", "b"])
            .add_access_point("wap1", &["b", "c"])
            .add_access_point("wap2", &["c", "d"])
            .build()
            .unwrap()
    }

    /// A device with a predictable weekday pattern over `weeks` weeks:
    /// * 09:00–12:00 connected to wap0 every ~15 minutes,
    /// * a 1-hour lunch gap (inside, returns to wap0),
    /// * 13:00–17:00 connected to wap0 every ~15 minutes,
    /// * overnight absence (outside).
    fn predictable_store(weeks: i64) -> EventStore {
        let mut store = EventStore::new(space());
        for week in 0..weeks {
            for day in 0..5 {
                let d = week * 7 + day;
                for slot in 0..12 {
                    store
                        .ingest_raw("worker", at(d, 9, slot * 15, 0), "wap0")
                        .unwrap();
                }
                for slot in 0..16 {
                    store
                        .ingest_raw("worker", at(d, 13, slot * 15, 0), "wap0")
                        .unwrap();
                }
            }
        }
        store
    }

    #[test]
    fn queries_in_one_grid_cell_share_a_window() {
        let weekly = CoarseConfig::default();
        let week_start = at(14, 0, 0, 0);
        for t_q in [week_start, at(16, 12, 0, 0), at(21, 0, 0, 0) - 1] {
            assert_eq!(
                weekly.model_window(t_q),
                Interval::new(week_start - clock::weeks(8), week_start)
            );
        }
        assert_eq!(weekly.model_window(week_start - 1).end, at(7, 0, 0, 0));
        // A history shorter than a week is its own grid.
        let short = CoarseConfig {
            history: 3_000,
            ..CoarseConfig::default()
        };
        for t_q in [6_000, 8_999] {
            assert_eq!(short.model_window(t_q), Interval::new(3_000, 6_000));
        }
        assert_eq!(short.model_window(-1), Interval::new(-6_000, -3_000));
    }

    #[test]
    fn covered_instant_needs_no_cleaning() {
        let store = predictable_store(2);
        let device = store.device_id("worker").unwrap();
        let localizer = CoarseLocalizer::default();
        let out = localizer.localize(&store, device, at(8, 9, 5, 0)).unwrap();
        assert_eq!(out.method, CoarseMethod::CoveredByEvent);
        assert!(out.label.is_inside());
        assert_eq!(out.label.region(), Some(RegionId::new(0)));
    }

    #[test]
    fn out_of_span_is_outside() {
        let store = predictable_store(1);
        let device = store.device_id("worker").unwrap();
        let localizer = CoarseLocalizer::default();
        let out = localizer
            .localize(&store, device, at(300, 12, 0, 0))
            .unwrap();
        assert_eq!(out.method, CoarseMethod::OutOfSpan);
        assert_eq!(out.label, CoarseLabel::Outside);
        let out = localizer.localize(&store, device, 0).unwrap();
        assert_eq!(out.label, CoarseLabel::Outside);
    }

    #[test]
    fn unknown_device_is_an_error() {
        let store = predictable_store(1);
        let localizer = CoarseLocalizer::default();
        assert!(matches!(
            localizer.localize(&store, DeviceId::new(99), 100),
            Err(LocaterError::UnknownDevice(_))
        ));
    }

    #[test]
    fn lunch_gap_is_classified_inside() {
        let store = predictable_store(6);
        let device = store.device_id("worker").unwrap();
        let localizer = CoarseLocalizer::default();
        // Query in the middle of the lunch gap of the last Friday.
        let out = localizer
            .localize(&store, device, at(39, 12, 30, 0))
            .unwrap();
        assert!(out.label.is_inside(), "lunch gap should be inside: {out:?}");
        assert_eq!(out.label.region(), Some(RegionId::new(0)));
        assert!(out.gap.is_some());
    }

    #[test]
    fn overnight_gap_is_classified_outside() {
        let store = predictable_store(6);
        let device = store.device_id("worker").unwrap();
        let localizer = CoarseLocalizer::default();
        // Query at 03:00 between two workdays.
        let out = localizer.localize(&store, device, at(39, 3, 0, 0)).unwrap();
        assert_eq!(out.label, CoarseLabel::Outside, "{out:?}");
    }

    #[test]
    fn model_reuse_matches_full_pipeline() {
        let store = predictable_store(6);
        let device = store.device_id("worker").unwrap();
        let localizer = CoarseLocalizer::default();
        let t_q = at(39, 12, 30, 0);
        let until = localizer.config().model_window(t_q).end;
        let model = localizer.train_device_model(&store, device, until);
        assert!(model.is_fitted());
        let gap = store.gap_at(device, t_q).unwrap();
        let from_model = localizer.classify_with_model(&store, &model, &gap);
        let from_pipeline = localizer.localize(&store, device, t_q).unwrap();
        assert_eq!(from_model.label, from_pipeline.label);
    }

    #[test]
    fn sparse_history_falls_back_gracefully() {
        let mut store = EventStore::new(space());
        store.ingest_raw("ghost", at(0, 9, 0, 0), "wap1").unwrap();
        store.ingest_raw("ghost", at(0, 11, 0, 0), "wap1").unwrap();
        let device = store.device_id("ghost").unwrap();
        let localizer = CoarseLocalizer::default();
        let out = localizer.localize(&store, device, at(0, 10, 0, 0)).unwrap();
        // 2-hour gap, no history: ambiguous → fallback path, but must still answer.
        assert!(matches!(
            out.method,
            CoarseMethod::Fallback | CoarseMethod::Classifier | CoarseMethod::BootstrapHeuristic
        ));
    }

    #[test]
    fn short_gap_heuristic_keeps_region() {
        let mut store = EventStore::new(space());
        store.ingest_raw("d", at(0, 9, 0, 0), "wap2").unwrap();
        store.ingest_raw("d", at(0, 9, 40, 0), "wap2").unwrap();
        let device = store.device_id("d").unwrap();
        let localizer = CoarseLocalizer::default();
        let out = localizer.localize(&store, device, at(0, 9, 20, 0)).unwrap();
        assert_eq!(out.label, CoarseLabel::Inside(RegionId::new(2)));
        assert_eq!(out.method, CoarseMethod::BootstrapHeuristic);
    }

    /// A weekday pattern with all three bootstrap labels: three 5-minute gaps
    /// in the morning (inside), a 2h25 one to the 13:00 event (unlabeled) and
    /// the night (outside) — so the building classifier is trainable.
    fn gappy_store(weeks: i64) -> EventStore {
        gappy_store_on(0..weeks * 7)
    }

    /// [`gappy_store`] over the weekdays among `days`.
    fn gappy_store_on(days: impl Iterator<Item = i64>) -> EventStore {
        let mut store = EventStore::new(space());
        for day in days.filter(|day| day % 7 < 5) {
            for (hour, minute) in [(9, 0), (9, 25), (9, 50), (10, 15), (13, 0)] {
                store
                    .ingest_raw("worker", at(day, hour, minute, 0), "wap0")
                    .unwrap();
            }
        }
        store
    }

    /// Number of gaps a fit of `model` is grown from: each one is a row of
    /// the building classifier's data, labelled or not.
    fn training_gaps(
        localizer: &CoarseLocalizer,
        store: &EventStore,
        model: &DeviceCoarseModel,
    ) -> usize {
        let fitted = localizer.fitted(store, model);
        assert!(fitted.building.is_some(), "two classes");
        localizer
            .training_window(store, model.device, model.history)
            .1
            .len()
    }

    #[test]
    fn bigger_history_window_sees_more_gaps() {
        let store = gappy_store(8);
        let device = store.device_id("worker").unwrap();
        let short = CoarseLocalizer::new(CoarseConfig {
            history: clock::weeks(1),
            ..CoarseConfig::default()
        });
        let long = CoarseLocalizer::new(CoarseConfig {
            history: clock::weeks(8),
            ..CoarseConfig::default()
        });
        let t_q = at(55, 12, 0, 0);
        let short_model = short.prepare_device_model(device, t_q);
        let long_model = long.prepare_device_model(device, t_q);
        assert!(
            training_gaps(&long, &store, &long_model) > training_gaps(&short, &store, &short_model)
        );
    }

    #[test]
    fn max_training_gaps_caps_the_dataset() {
        let store = gappy_store(8);
        let device = store.device_id("worker").unwrap();
        let capped = CoarseLocalizer::new(CoarseConfig {
            max_training_gaps: 10,
            ..CoarseConfig::default()
        });
        let model = capped.prepare_device_model(device, at(55, 12, 0, 0));
        assert_eq!(training_gaps(&capped, &store, &model), 10);
    }

    /// A store view that counts the gap scans of model fits (`fit` is the only
    /// caller of `gaps_of_in` on the classify path).
    struct CountingRead<'a> {
        inner: &'a EventStore,
        fits: std::sync::atomic::AtomicUsize,
    }

    impl EventRead for CountingRead<'_> {
        fn space(&self) -> &std::sync::Arc<Space> {
            self.inner.space()
        }
        fn devices(&self) -> &[locater_events::Device] {
            self.inner.devices()
        }
        fn device_id(&self, mac: &str) -> Option<DeviceId> {
            self.inner.device_id(mac)
        }
        fn num_events(&self) -> usize {
            self.inner.num_events()
        }
        fn max_delta(&self) -> Timestamp {
            self.inner.max_delta()
        }
        fn timeline_of(&self, device: DeviceId) -> &locater_events::EventSeq {
            self.inner.timeline_of(device)
        }
        fn devices_seen_by(
            &self,
            aps: &[locater_space::AccessPointId],
            window: Interval,
            out: &mut Vec<DeviceId>,
        ) {
            self.inner.devices_seen_by(aps, window, out)
        }
        fn gaps_of_in(&self, device: DeviceId, window: Interval) -> Vec<Gap> {
            self.fits.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            self.inner.gaps_of_in(device, window)
        }
    }

    #[test]
    fn decisive_gaps_fit_nothing_and_racing_ambiguous_ones_fit_once() {
        let store = gappy_store(6);
        let view = CountingRead {
            inner: &store,
            fits: std::sync::atomic::AtomicUsize::new(0),
        };
        let device = store.device_id("worker").unwrap();
        let localizer = CoarseLocalizer::default();
        let model = localizer.prepare_device_model(device, at(39, 23, 0, 0));
        let fits = || view.fits.load(std::sync::atomic::Ordering::SeqCst);

        // The night (≥ τ_h) and a 5-minute same-region gap (≤ τ_l) are decided
        // by duration alone.
        let night = store.gap_at(device, at(38, 3, 0, 0)).unwrap();
        let short = store.gap_at(device, at(38, 9, 12, 0)).unwrap();
        for gap in [&night, &short] {
            let out = localizer.classify_with_model(&view, &model, gap);
            assert_eq!(out.method, CoarseMethod::BootstrapHeuristic);
        }
        assert!(!model.is_fitted());
        assert_eq!(fits(), 0);

        // Two threads released together onto the same ambiguous gap.
        let ambiguous = store.gap_at(device, at(38, 11, 30, 0)).unwrap();
        let barrier = std::sync::Barrier::new(2);
        let classify = || {
            barrier.wait();
            localizer.classify_with_model(&view, &model, &ambiguous)
        };
        let (a, b) = std::thread::scope(|scope| {
            let other = scope.spawn(classify);
            (classify(), other.join().unwrap())
        });
        assert_eq!(a.method, CoarseMethod::Classifier);
        assert_eq!(a, b);
        assert!(model.is_fitted());
        assert_eq!(fits(), 1);
        // And what they fitted is what an eager caller gets.
        assert_eq!(
            model,
            localizer.train_device_model(&store, device, at(39, 23, 0, 0))
        );
    }

    #[test]
    fn fit_before_eviction_fits_exactly_the_models_an_eviction_would_change() {
        // Weeks 0–1 and 4–5 present, weeks 2–3 absent: the absence is a gap
        // that overlaps a window starting inside it, opened by an event (the
        // Friday 13:00 of week 1) well before that window.
        let mut store = gappy_store_on((0..14).chain(28..42));
        let device = store.device_id("worker").unwrap();
        let localizer = CoarseLocalizer::new(CoarseConfig {
            history: clock::weeks(3),
            ..CoarseConfig::default()
        });
        let until = at(40, 12, 0, 0); // window starts on day 19, mid-absence
        let opener = at(11, 13, 0, 0);
        let eager = localizer.train_device_model(&store, device, until);

        // Evicting strictly below the opener takes nothing the fit reads …
        let model = localizer.prepare_device_model(device, until);
        assert!(!localizer.fit_before_eviction(&store, &model, opener));
        let mut kept = store.clone();
        assert!(kept.compact(opener).evicted_events > 0);
        assert_eq!(localizer.train_device_model(&kept, device, until), eager);

        // … evicting the opener does, although the window starts above the cut.
        let cut = at(12, 0, 0, 0);
        assert!(model.history.start > cut);
        assert!(localizer.fit_before_eviction(&store, &model, cut));
        assert!(
            !localizer.fit_before_eviction(&store, &model, cut),
            "already fitted"
        );
        store.compact(cut);
        assert_ne!(localizer.train_device_model(&store, device, until), eager);
        assert_eq!(model, eager, "fitted before the eviction");
    }
}
