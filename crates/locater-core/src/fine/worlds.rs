//! Possible-world probability bounds (paper §4.2, Theorems 1–3).
//!
//! Algorithm 2 processes neighbor devices iteratively. After processing a subset
//! `D̄_n ⊆ D_n`, it must decide whether the unprocessed devices `D_n \ D̄_n` could
//! still change the winning room. The paper bounds the posterior of a room over all
//! *possible worlds* (assignments of unprocessed devices to rooms):
//!
//! * the **maximum** is attained in the world where every unprocessed device is in the
//!   candidate room (Theorem 1);
//! * the **minimum** is attained in the world where every unprocessed device is in the
//!   strongest competing room (Theorem 2);
//! * the **expected** posterior over worlds equals the posterior given only the
//!   processed devices (Theorem 3).
//!
//! We do not know the exact group affinity an unprocessed device will contribute until
//! we process it (computing it requires a history scan), so the bounds are evaluated
//! with assumed per-device extremes: a high affinity (0.8 in Algorithm 2) for the
//! most-favourable world and a low one (0.05) for the least-favourable one.
//! The resulting `min ≤ expected ≤ max` envelope is what the loosened stop conditions
//! of §4.2 compare.

/// Accumulated evidence for one candidate room under the independence assumption.
///
/// The posterior of Eq. 3 can be written as `support / (support + against)` where
/// `support = P(r_j) · Π_k α_k` and `against = (1 − P(r_j)) · Π_k (1 − α_k)` over the
/// processed neighbors `k`; this form avoids the numerically delicate ratio of the
/// paper's formula.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoomPosterior {
    /// Product of the prior and the group affinities of processed neighbors.
    pub support: f64,
    /// Product of the complement prior and the complements of the group affinities.
    pub against: f64,
}

impl RoomPosterior {
    /// Starts from the room-affinity prior `P(r_j)`.
    pub fn from_prior(prior: f64) -> Self {
        let prior = prior.clamp(0.0, 1.0);
        Self {
            support: prior,
            against: 1.0 - prior,
        }
    }

    /// Folds in the group affinity of one processed neighbor.
    pub fn observe(&mut self, group_affinity: f64) {
        let alpha = group_affinity.clamp(0.0, 1.0);
        self.support *= alpha;
        self.against *= 1.0 - alpha;
    }

    /// A copy of the posterior with `count` additional hypothetical observations of
    /// affinity `alpha` folded in (used by the possible-world bounds).
    pub(crate) fn with_hypothetical(&self, alpha: f64, count: usize) -> Self {
        let alpha = alpha.clamp(0.0, 1.0);
        Self {
            support: self.support * alpha.powi(count as i32),
            against: self.against * (1.0 - alpha).powi(count as i32),
        }
    }

    /// The posterior probability `P(r_j | D̄_n)` (Eq. 3 with the prior folded in).
    /// Returns 0 when both accumulators have collapsed to zero.
    pub fn probability(&self) -> f64 {
        let total = self.support + self.against;
        if total <= 0.0 {
            0.0
        } else {
            self.support / total
        }
    }
}

/// The `min ≤ expected ≤ max` envelope of a room's posterior over the possible worlds
/// of the unprocessed neighbors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PosteriorBounds {
    /// `minP(r_j | D̄_n)` — Theorem 2's least-favourable world.
    pub min: f64,
    /// `expP(r_j | D̄_n)` — Theorem 3: the current posterior.
    pub expected: f64,
    /// `maxP(r_j | D̄_n)` — Theorem 1's most-favourable world.
    pub max: f64,
}

impl PosteriorBounds {
    /// Computes the envelope for a room given its current posterior, the number of
    /// unprocessed neighbor devices and the per-device affinity extremes.
    ///
    /// `min_affinity` must not exceed `max_affinity`; both are clamped to `[0, 1]`.
    pub fn compute(
        posterior: &RoomPosterior,
        unprocessed: usize,
        min_affinity: f64,
        max_affinity: f64,
    ) -> Self {
        let lo = min_affinity
            .clamp(0.0, 1.0)
            .min(max_affinity.clamp(0.0, 1.0));
        let hi = max_affinity.clamp(0.0, 1.0).max(lo);
        let expected = posterior.probability();
        if unprocessed == 0 {
            return Self {
                min: expected,
                expected,
                max: expected,
            };
        }
        let max = posterior.with_hypothetical(hi, unprocessed).probability();
        let min = posterior.with_hypothetical(lo, unprocessed).probability();
        Self {
            min: min.min(expected),
            expected,
            max: max.max(expected),
        }
    }

    /// `true` when the envelope is internally consistent (`min ≤ expected ≤ max`).
    pub fn is_consistent(&self) -> bool {
        self.min <= self.expected + 1e-12 && self.expected <= self.max + 1e-12
    }
}

/// The loosened stop conditions of §4.2: given the envelopes of the two currently
/// best rooms `a` (leader) and `b` (runner-up), the iteration may stop when either
///
/// 1. `minP(a) ≥ expP(b)`, or
/// 2. `expP(a) ≥ maxP(b)`.
pub(crate) fn stop_condition_met(leader: &PosteriorBounds, runner_up: &PosteriorBounds) -> bool {
    leader.min >= runner_up.expected || leader.expected >= runner_up.max
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prior_only_posterior_equals_prior() {
        let p = RoomPosterior::from_prior(0.3);
        assert!((p.probability() - 0.3).abs() < 1e-12);
        let p = RoomPosterior::from_prior(1.5); // clamped
        assert!((p.probability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn observations_shift_the_posterior_monotonically() {
        // A strong co-location signal (α close to 1) raises the posterior; a weak one
        // (α close to 0) lowers it.
        let mut up = RoomPosterior::from_prior(0.5);
        up.observe(0.9);
        assert!(up.probability() > 0.5);
        let mut down = RoomPosterior::from_prior(0.5);
        down.observe(0.1);
        assert!(down.probability() < 0.5);
        // Rooms with larger affinities end up with larger posteriors.
        let mut a = RoomPosterior::from_prior(0.5);
        let mut b = RoomPosterior::from_prior(0.5);
        a.observe(0.4);
        b.observe(0.2);
        assert!(a.probability() > b.probability());
    }

    #[test]
    fn zero_affinity_collapses_support() {
        let mut p = RoomPosterior::from_prior(0.8);
        p.observe(0.0);
        assert_eq!(p.probability(), 0.0);
        // Degenerate: both accumulators zero.
        let mut p = RoomPosterior::from_prior(1.0);
        p.observe(0.0);
        assert_eq!(p.probability(), 0.0);
    }

    #[test]
    fn bounds_envelope_is_ordered() {
        let mut p = RoomPosterior::from_prior(0.4);
        p.observe(0.3);
        for unprocessed in 0..6 {
            let bounds = PosteriorBounds::compute(&p, unprocessed, 0.05, 0.8);
            assert!(bounds.is_consistent(), "{bounds:?}");
            if unprocessed == 0 {
                assert_eq!(bounds.min, bounds.max);
            } else {
                assert!(bounds.min < bounds.max);
            }
        }
    }

    #[test]
    fn more_unprocessed_devices_widen_the_envelope() {
        let p = RoomPosterior::from_prior(0.5);
        let narrow = PosteriorBounds::compute(&p, 1, 0.05, 0.8);
        let wide = PosteriorBounds::compute(&p, 5, 0.05, 0.8);
        assert!(wide.max >= narrow.max);
        assert!(wide.min <= narrow.min);
    }

    #[test]
    fn inverted_extremes_are_reordered() {
        let p = RoomPosterior::from_prior(0.5);
        let bounds = PosteriorBounds::compute(&p, 3, 0.9, 0.1);
        assert!(bounds.is_consistent());
    }

    #[test]
    fn stop_conditions_follow_the_paper() {
        let leader = PosteriorBounds {
            min: 0.6,
            expected: 0.7,
            max: 0.9,
        };
        let runner = PosteriorBounds {
            min: 0.1,
            expected: 0.3,
            max: 0.5,
        };
        // minP(a)=0.6 ≥ expP(b)=0.3 → stop.
        assert!(stop_condition_met(&leader, &runner));
        // Overlapping envelopes → keep processing.
        let close_runner = PosteriorBounds {
            min: 0.5,
            expected: 0.65,
            max: 0.95,
        };
        assert!(!stop_condition_met(&leader, &close_runner));
        // Second condition: expP(a) ≥ maxP(b).
        let far_runner = PosteriorBounds {
            min: 0.0,
            expected: 0.65,
            max: 0.69,
        };
        assert!(stop_condition_met(&leader, &far_runner));
    }
}
