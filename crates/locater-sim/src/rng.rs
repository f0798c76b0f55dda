//! Small random-sampling helpers shared by the generators.
//!
//! Every draw comes from [`SeededRng`]; approximately normal samples are produced
//! with an Irwin–Hall sum of uniforms, which is more than adequate for arrival-time
//! and stay-length jitter.

use locater_events::clock::Timestamp;
use locater_events::SeededRng;

/// An approximately normal sample with the given mean and standard deviation
/// (Irwin–Hall with 12 uniforms, variance 1 before scaling).
pub(crate) fn approx_normal(rng: &mut SeededRng, mean: f64, std: f64) -> f64 {
    let sum: f64 = (0..12).map(|_| rng.unit_f64()).sum();
    mean + (sum - 6.0) * std
}

/// An approximately normal timestamp sample, clamped to `[min, max]`.
pub(crate) fn normal_timestamp(
    rng: &mut SeededRng,
    mean: Timestamp,
    std: Timestamp,
    min: Timestamp,
    max: Timestamp,
) -> Timestamp {
    let sample = approx_normal(rng, mean as f64, std as f64).round() as Timestamp;
    sample.clamp(min, max)
}

/// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
pub(crate) fn chance(rng: &mut SeededRng, p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    if p >= 1.0 {
        return true;
    }
    rng.unit_f64() < p
}

/// A uniform duration in `[lo, hi]` seconds.
pub(crate) fn duration_between(rng: &mut SeededRng, lo: Timestamp, hi: Timestamp) -> Timestamp {
    if hi <= lo {
        return lo.max(1);
    }
    rng.range(lo..=hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_normal_has_roughly_the_requested_moments() {
        let mut rng = SeededRng::new(42);
        let samples: Vec<f64> = (0..5_000)
            .map(|_| approx_normal(&mut rng, 10.0, 2.0))
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        assert!((mean - 10.0).abs() < 0.2, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.2, "std {}", var.sqrt());
    }

    #[test]
    fn normal_timestamp_is_clamped() {
        let mut rng = SeededRng::new(1);
        for _ in 0..200 {
            let t = normal_timestamp(&mut rng, 100, 1_000, 50, 150);
            assert!((50..=150).contains(&t));
        }
    }

    #[test]
    fn chance_handles_degenerate_probabilities() {
        let mut rng = SeededRng::new(2);
        assert!(!chance(&mut rng, 0.0));
        assert!(!chance(&mut rng, -1.0));
        assert!(chance(&mut rng, 1.0));
        assert!(chance(&mut rng, 2.0));
        let hits = (0..2_000).filter(|_| chance(&mut rng, 0.25)).count();
        assert!((hits as f64 / 2_000.0 - 0.25).abs() < 0.05);
    }

    #[test]
    fn duration_between_respects_bounds() {
        let mut rng = SeededRng::new(3);
        for _ in 0..100 {
            let d = duration_between(&mut rng, 60, 120);
            assert!((60..=120).contains(&d));
        }
        assert_eq!(duration_between(&mut rng, 100, 50), 100);
        assert_eq!(duration_between(&mut rng, 0, 0), 1);
    }
}
