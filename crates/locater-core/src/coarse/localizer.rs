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
//! Training the per-device models is the expensive part, so the localizer exposes
//! [`CoarseLocalizer::train_device_model`] separately from
//! [`CoarseLocalizer::classify_with_model`]; the service
//! ([`crate::system::ShardedLocaterService`]) caches one [`DeviceCoarseModel`]
//! per device and retrains lazily.

use crate::coarse::bootstrap::{bootstrap_labels, BootstrapLabel, BootstrapSummary};
use crate::coarse::features::GapFeatures;
use crate::error::LocaterError;
use locater_events::clock::{self, Timestamp};
use locater_events::{DeviceId, Gap, Interval, StoredEvent};
use locater_learn::{Dataset, SelfTrainingClassifier, SelfTrainingConfig, TrainConfig};
use locater_space::RegionId;
use locater_store::EventRead;
use serde::{Deserialize, Serialize};

/// Number of features of the gap feature vector (re-exported for dataset sizing).
use crate::coarse::features::NUM_GAP_FEATURES;

/// Configuration of the coarse-grained localization algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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

impl Default for CoarseConfig {
    fn default() -> Self {
        Self {
            tau_low: clock::minutes(20),
            tau_high: clock::minutes(180),
            region_tau_low: clock::minutes(20),
            region_tau_high: clock::minutes(40),
            history: clock::weeks(8),
            max_training_gaps: 600,
            self_training: SelfTrainingConfig {
                train: TrainConfig {
                    epochs: 80,
                    ..TrainConfig::default()
                },
                // The paper promotes one gap per round; batching keeps query latency
                // practical on large histories without changing the fixed point much.
                promote_per_round: 20,
                max_rounds: 400,
            },
        }
    }
}

/// Coarse-level location decided for a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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

/// Per-device trained models: the inside/outside classifier and the region classifier
/// with its class → region mapping, plus bookkeeping about the training data.
#[derive(Debug, Clone)]
pub struct DeviceCoarseModel {
    /// Device the model belongs to.
    pub device: DeviceId,
    /// History window the model was trained on.
    pub history: Interval,
    /// Inside/outside classifier (class 0 = inside, 1 = outside), if trainable.
    building: Option<SelfTrainingClassifier>,
    /// Region classifier and its class-index → region mapping, if trainable.
    region: Option<(SelfTrainingClassifier, Vec<RegionId>)>,
    /// Bootstrapping counters for the training window.
    pub bootstrap: BootstrapSummary,
    /// Number of gaps used for training.
    pub training_gaps: usize,
    /// The most frequently seen region in the training history (fallback label).
    pub dominant_region: Option<RegionId>,
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

    /// Full pipeline for one query: train (or retrain) the device model and classify.
    /// Use [`CoarseLocalizer::train_device_model`] + [`CoarseLocalizer::classify_with_model`]
    /// when issuing many queries against the same device.
    pub fn localize(
        &self,
        store: &dyn EventRead,
        device: DeviceId,
        t_q: Timestamp,
    ) -> Result<CoarseOutcome, LocaterError> {
        if device.index() >= store.num_devices() {
            return Err(LocaterError::UnknownDevice(device.to_string()));
        }
        // Step 1: covered instant.
        if let Some(region) = store.covering_region(device, t_q) {
            return Ok(CoarseOutcome::certain(
                CoarseLabel::Inside(region),
                CoarseMethod::CoveredByEvent,
                None,
            ));
        }
        // Step 2: find the gap. Outside the observed span ⇒ outside the building.
        let Some(gap) = store.gap_at(device, t_q) else {
            return Ok(CoarseOutcome::certain(
                CoarseLabel::Outside,
                CoarseMethod::OutOfSpan,
                None,
            ));
        };
        let model = self.train_device_model(store, device, t_q);
        Ok(self.classify_with_model(store, &model, &gap))
    }

    /// Trains the per-device classifiers over the `history` window ending at `until`.
    ///
    /// Training reads only the segments of the device timeline that overlap the
    /// history window: both the event scan and the gap scan are segment-pruned,
    /// so a device with years of history costs the same as one with exactly
    /// `history` worth of data.
    pub fn train_device_model(
        &self,
        store: &dyn EventRead,
        device: DeviceId,
        until: Timestamp,
    ) -> DeviceCoarseModel {
        let history = Interval::new(until - self.config.history, until);
        // One segment-pruned materialization of the window, shared by the
        // bootstrap heuristics and every per-gap feature extraction below.
        let events: Vec<StoredEvent> = store.events_of_in(device, history).copied().collect();
        let mut gaps: Vec<Gap> = store.gaps_of_in(device, history);
        if gaps.len() > self.config.max_training_gaps {
            let skip = gaps.len() - self.config.max_training_gaps;
            gaps.drain(..skip);
        }
        let (labels, bootstrap) = bootstrap_labels(
            &gaps,
            &events,
            self.config.tau_low,
            self.config.tau_high,
            self.config.region_tau_low,
            self.config.region_tau_high,
        );

        // Dominant region over the history window (fallback region label).
        let dominant_region = dominant_region(&events);

        // ---- Building-level classifier: class 0 = inside, 1 = outside. ----
        let mut building_labeled = Dataset::new(NUM_GAP_FEATURES, 2);
        let mut building_unlabeled: Vec<Vec<f64>> = Vec::new();
        for (gap, label) in gaps.iter().zip(&labels) {
            let features = GapFeatures::extract(gap, &events, history).to_vec();
            match label {
                BootstrapLabel::Inside(_) => building_labeled.push(features, 0),
                BootstrapLabel::Outside => building_labeled.push(features, 1),
                BootstrapLabel::Unlabeled => building_unlabeled.push(features),
            }
        }
        let building = if building_labeled.has_multiple_classes() {
            SelfTrainingClassifier::train(
                &building_labeled,
                &building_unlabeled,
                &self.config.self_training,
            )
            .ok()
        } else {
            None
        };

        // ---- Region-level classifier over the gaps labelled inside. ----
        let mut region_classes: Vec<RegionId> = Vec::new();
        let mut region_rows: Vec<(Vec<f64>, usize)> = Vec::new();
        let mut region_unlabeled: Vec<Vec<f64>> = Vec::new();
        for (gap, label) in gaps.iter().zip(&labels) {
            match label {
                BootstrapLabel::Inside(Some(region)) => {
                    let class = match region_classes.iter().position(|r| r == region) {
                        Some(idx) => idx,
                        None => {
                            region_classes.push(*region);
                            region_classes.len() - 1
                        }
                    };
                    region_rows.push((GapFeatures::extract(gap, &events, history).to_vec(), class));
                }
                BootstrapLabel::Inside(None) => {
                    region_unlabeled.push(GapFeatures::extract(gap, &events, history).to_vec());
                }
                _ => {}
            }
        }
        let region = if region_classes.len() >= 2 {
            let mut labeled = Dataset::new(NUM_GAP_FEATURES, region_classes.len());
            for (row, class) in region_rows {
                labeled.push(row, class);
            }
            SelfTrainingClassifier::train(&labeled, &region_unlabeled, &self.config.self_training)
                .ok()
                .map(|clf| (clf, region_classes.clone()))
        } else {
            None
        };

        DeviceCoarseModel {
            device,
            history,
            building,
            region,
            bootstrap,
            training_gaps: gaps.len(),
            dominant_region,
        }
    }

    /// Classifies the query gap with an already-trained device model.
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
        // the model's history window through the zero-copy, segment-pruned
        // iterator; older segments stay cold and nothing is materialized.
        let features = GapFeatures::extract(
            gap,
            store.events_of_in(model.device, model.history),
            model.history,
        )
        .to_vec();
        match &model.building {
            Some(classifier) => {
                let prediction = classifier.model().predict(&features);
                if prediction.label == 1 {
                    return CoarseOutcome {
                        label: CoarseLabel::Outside,
                        method: CoarseMethod::Classifier,
                        confidence: prediction.confidence(),
                        gap: Some(*gap),
                    };
                }
                // Inside: pick the region.
                let (region, region_confidence) = match &model.region {
                    Some((clf, classes)) => {
                        let p = clf.model().predict(&features);
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
        .or(model.dominant_region)
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
        let model = localizer.train_device_model(&store, device, t_q);
        assert!(model.training_gaps > 0);
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

    #[test]
    fn bigger_history_window_sees_more_gaps() {
        let store = predictable_store(8);
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
        let short_model = short.train_device_model(&store, device, t_q);
        let long_model = long.train_device_model(&store, device, t_q);
        assert!(long_model.training_gaps > short_model.training_gaps);
    }

    #[test]
    fn max_training_gaps_caps_the_dataset() {
        let store = predictable_store(8);
        let device = store.device_id("worker").unwrap();
        let capped = CoarseLocalizer::new(CoarseConfig {
            max_training_gaps: 10,
            ..CoarseConfig::default()
        });
        let model = capped.train_device_model(&store, device, at(55, 12, 0, 0));
        assert!(model.training_gaps <= 10);
    }
}
