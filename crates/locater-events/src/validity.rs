//! Estimation of the per-device validity period `δ(d)`.
//!
//! The paper (Appendix 9.1, "Event validity") notes that δ "can be extracted directly
//! from the WiFi connectivity data": while a device sits in one place, the log shows
//! how often it reconnects, and the typical spacing between those events is how long a
//! single event should be trusted.
//!
//! [`estimate_delta_events`] implements that idea: it looks at the distribution of
//! inter-event times of a device restricted to *stationary stretches* (consecutive
//! events on the same access point), takes a configurable percentile of it, and clamps
//! the result to a `[min, max]` range so that chatty devices do not get a
//! uselessly-small δ and silent devices do not get an enormous one.

use crate::clock::Timestamp;
use serde::{Deserialize, Serialize};

/// Configuration for validity-period estimation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ValidityConfig {
    /// Fallback δ for devices without enough history, in seconds. Default: 10 minutes.
    pub default_delta: Timestamp,
    /// Lower clamp for the estimate, in seconds. Default: 2 minutes.
    pub min_delta: Timestamp,
    /// Upper clamp for the estimate, in seconds. Default: 30 minutes.
    pub max_delta: Timestamp,
    /// Percentile of the stationary inter-event time distribution to use, in `[0, 1]`.
    /// Default: 0.75.
    pub percentile: f64,
    /// Minimum number of stationary inter-event samples required before trusting the
    /// estimate. Default: 5.
    pub min_samples: usize,
}

impl Default for ValidityConfig {
    fn default() -> Self {
        Self {
            default_delta: 600,
            min_delta: 120,
            max_delta: 1_800,
            percentile: 0.75,
            min_samples: 5,
        }
    }
}

/// Estimates the validity period `δ(d)` of a device from its time-sorted events.
///
/// Only inter-event times between consecutive events logged by the *same* access point
/// are considered (the device was most likely stationary), and only those below
/// `config.max_delta * 4` (larger spacings are treated as absences, not as connection
/// periodicity).
pub fn estimate_delta_events<'a>(
    events: impl IntoIterator<Item = &'a crate::event::StoredEvent>,
    config: &ValidityConfig,
) -> Timestamp {
    let cap = config.max_delta.saturating_mul(4);
    let mut samples: Vec<Timestamp> = Vec::new();
    let mut prev: Option<&crate::event::StoredEvent> = None;
    for event in events {
        if let Some(p) = prev {
            if p.ap() == event.ap() {
                let dt = event.t() - p.t();
                if dt > 0 && dt <= cap {
                    samples.push(dt);
                }
            }
        }
        prev = Some(event);
    }
    if samples.len() < config.min_samples {
        return config.default_delta;
    }
    samples.sort_unstable();
    let p = config.percentile.clamp(0.0, 1.0);
    let idx = ((samples.len() - 1) as f64 * p).round() as usize;
    samples[idx].clamp(config.min_delta, config.max_delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventSeq;

    #[test]
    fn defaults_are_sane() {
        let c = ValidityConfig::default();
        assert!(c.min_delta < c.default_delta);
        assert!(c.default_delta < c.max_delta);
        assert!(c.percentile > 0.0 && c.percentile < 1.0);
    }

    #[test]
    fn sparse_history_falls_back_to_default() {
        let seq = EventSeq::from_pairs(&[(0, 0), (100, 0)]);
        let c = ValidityConfig::default();
        assert_eq!(estimate_delta_events(seq.events(), &c), c.default_delta);
        assert_eq!(
            estimate_delta_events(EventSeq::new().events(), &c),
            c.default_delta
        );
    }

    #[test]
    fn regular_reconnections_produce_their_period() {
        // Device reconnects every 5 minutes on the same AP.
        let pairs: Vec<(Timestamp, u32)> = (0..20).map(|i| (i * 300, 0u32)).collect();
        let seq = EventSeq::from_pairs(&pairs);
        let c = ValidityConfig::default();
        assert_eq!(estimate_delta_events(seq.events(), &c), 300);
    }

    #[test]
    fn estimate_is_clamped_to_bounds() {
        // Very chatty device: every 10 seconds → clamped up to min_delta.
        let chatty: Vec<(Timestamp, u32)> = (0..50).map(|i| (i * 10, 0u32)).collect();
        let c = ValidityConfig::default();
        assert_eq!(
            estimate_delta_events(EventSeq::from_pairs(&chatty).events(), &c),
            c.min_delta
        );

        // Very quiet device: every 40 minutes (below the 4× cap) → clamped to max.
        let quiet: Vec<(Timestamp, u32)> = (0..20).map(|i| (i * 2_400, 0u32)).collect();
        assert_eq!(
            estimate_delta_events(EventSeq::from_pairs(&quiet).events(), &c),
            c.max_delta
        );
    }

    #[test]
    fn roaming_pairs_are_ignored() {
        // Alternating APs: no same-AP pair, falls back to default.
        let pairs: Vec<(Timestamp, u32)> = (0..20).map(|i| (i * 300, (i % 2) as u32)).collect();
        let c = ValidityConfig::default();
        assert_eq!(
            estimate_delta_events(EventSeq::from_pairs(&pairs).events(), &c),
            c.default_delta
        );
    }

    #[test]
    fn long_absences_do_not_skew_the_estimate() {
        // Regular 5-minute reconnections with one overnight absence.
        let mut pairs: Vec<(Timestamp, u32)> = (0..10).map(|i| (i * 300, 0u32)).collect();
        pairs.extend((0..10).map(|i| (100_000 + i * 300, 0u32)));
        let c = ValidityConfig::default();
        assert_eq!(
            estimate_delta_events(EventSeq::from_pairs(&pairs).events(), &c),
            300
        );
    }
}
