//! Estimation of the per-device validity period `δ(d)`.
//!
//! The paper (Appendix 9.1, "Event validity") notes that δ "can be extracted directly
//! from the WiFi connectivity data": while a device sits in one place, the log shows
//! how often it reconnects, and the typical spacing between those events is how long a
//! single event should be trusted.
//!
//! [`estimate_delta_events`] implements that idea: it looks at the distribution of
//! inter-event times of a device restricted to *stationary stretches* (consecutive
//! events on the same access point), takes their 75th percentile, and clamps the
//! result to `[2 min, 30 min]` so that chatty devices do not get a uselessly-small δ
//! and silent devices do not get an enormous one.

use crate::clock::Timestamp;

/// δ of a device without enough history to estimate one: 10 minutes. New devices
/// start with it.
pub const DEFAULT_DELTA: Timestamp = 600;
/// Lower clamp of the estimate: 2 minutes.
const MIN_DELTA: Timestamp = 120;
/// Upper clamp of the estimate: 30 minutes.
const MAX_DELTA: Timestamp = 1_800;
/// Percentile of the stationary inter-event time distribution the estimate takes.
const PERCENTILE: f64 = 0.75;
/// Stationary inter-event samples needed before the estimate is trusted.
const MIN_SAMPLES: usize = 5;

/// Estimates the validity period `δ(d)` of a device from its time-sorted events.
///
/// Only inter-event times between consecutive events logged by the *same* access point
/// are considered (the device was most likely stationary), and only those up to
/// four times the upper clamp, 2 hours (larger spacings are treated as absences, not
/// as connection periodicity). Fewer than 5 such spacings give [`DEFAULT_DELTA`].
pub fn estimate_delta_events<'a>(
    events: impl IntoIterator<Item = &'a crate::event::StoredEvent>,
) -> Timestamp {
    let cap = MAX_DELTA * 4;
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
    if samples.len() < MIN_SAMPLES {
        return DEFAULT_DELTA;
    }
    samples.sort_unstable();
    let idx = ((samples.len() - 1) as f64 * PERCENTILE).round() as usize;
    samples[idx].clamp(MIN_DELTA, MAX_DELTA)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventSeq;

    #[test]
    fn defaults_are_sane() {
        const {
            assert!(MIN_DELTA < DEFAULT_DELTA);
            assert!(DEFAULT_DELTA < MAX_DELTA);
            assert!(PERCENTILE > 0.0 && PERCENTILE < 1.0);
        }
    }

    #[test]
    fn sparse_history_falls_back_to_default() {
        let seq = EventSeq::from_pairs(&[(0, 0), (100, 0)]);
        assert_eq!(estimate_delta_events(seq.events()), DEFAULT_DELTA);
        assert_eq!(
            estimate_delta_events(EventSeq::new().events()),
            DEFAULT_DELTA
        );
    }

    #[test]
    fn regular_reconnections_produce_their_period() {
        // Device reconnects every 5 minutes on the same AP.
        let pairs: Vec<(Timestamp, u32)> = (0..20).map(|i| (i * 300, 0u32)).collect();
        let seq = EventSeq::from_pairs(&pairs);
        assert_eq!(estimate_delta_events(seq.events()), 300);
    }

    #[test]
    fn estimate_is_clamped_to_bounds() {
        // Very chatty device: every 10 seconds → clamped up to min_delta.
        let chatty: Vec<(Timestamp, u32)> = (0..50).map(|i| (i * 10, 0u32)).collect();
        assert_eq!(
            estimate_delta_events(EventSeq::from_pairs(&chatty).events()),
            MIN_DELTA
        );

        // Very quiet device: every 40 minutes (below the 4× cap) → clamped to max.
        let quiet: Vec<(Timestamp, u32)> = (0..20).map(|i| (i * 2_400, 0u32)).collect();
        assert_eq!(
            estimate_delta_events(EventSeq::from_pairs(&quiet).events()),
            MAX_DELTA
        );
    }

    #[test]
    fn roaming_pairs_are_ignored() {
        // Alternating APs: no same-AP pair, falls back to default.
        let pairs: Vec<(Timestamp, u32)> = (0..20).map(|i| (i * 300, (i % 2) as u32)).collect();
        assert_eq!(
            estimate_delta_events(EventSeq::from_pairs(&pairs).events()),
            DEFAULT_DELTA
        );
    }

    #[test]
    fn long_absences_do_not_skew_the_estimate() {
        // Regular 5-minute reconnections with one overnight absence.
        let mut pairs: Vec<(Timestamp, u32)> = (0..10).map(|i| (i * 300, 0u32)).collect();
        pairs.extend((0..10).map(|i| (100_000 + i * 300, 0u32)));
        assert_eq!(
            estimate_delta_events(EventSeq::from_pairs(&pairs).events()),
            300
        );
    }
}
