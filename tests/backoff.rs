//! Property-based tests for the retry client's backoff schedule: across
//! arbitrary policies, delays stay inside their jitter envelope, the
//! envelope itself is monotone and capped, and equal seeds reproduce the
//! schedule byte-for-byte (the determinism the chaos tests lean on). Each
//! property runs over seeded random cases.

use locater::client::BackoffPolicy;
use locater::events::SeededRng;
use std::time::Duration;

/// A base of 1–4,999 ms, a cap up to a minute above it, and any seed.
fn arb_policy(rng: &mut SeededRng) -> BackoffPolicy {
    let base_ms = rng.range(1u64..5_000);
    let extra_ms = rng.range(1u64..60_000);
    BackoffPolicy {
        base: Duration::from_millis(base_ms),
        // The cap is at least the base, so the envelope always has room.
        cap: Duration::from_millis(base_ms + extra_ms),
        seed: rng.next_u64(),
    }
}

/// Every delay sits inside `[envelope/2, envelope]` and never exceeds
/// the cap; the pre-jitter envelope is monotone non-decreasing and
/// saturates exactly at the cap.
#[test]
fn delays_respect_the_envelope_and_the_cap() {
    let mut rng = SeededRng::new(0xd37c_ee97_8999_b344);
    for _ in 0..64 {
        let policy = arb_policy(&mut rng);
        let attempts = rng.range(1u32..64);
        let mut previous_envelope = Duration::ZERO;
        for n in 0..attempts {
            let envelope = policy.envelope(n);
            assert!(envelope <= policy.cap);
            assert!(envelope >= previous_envelope, "envelope must be monotone");
            previous_envelope = envelope;

            let delay = policy.delay(n);
            assert!(delay <= envelope, "attempt {n}: {delay:?} > {envelope:?}");
            assert!(
                delay >= envelope / 2,
                "attempt {n}: {delay:?} below half envelope"
            );
            assert!(delay <= policy.cap);
        }
        // Enough doublings always reach the cap exactly.
        assert_eq!(policy.envelope(80), policy.cap);
    }
}

/// The schedule is a pure function of the policy: the same policy yields
/// a byte-identical schedule every time, and changing only the seed
/// yields a different one (jitter decorrelates distinct clients).
#[test]
fn schedules_are_seed_deterministic() {
    let mut rng = SeededRng::new(0xe04d_2204_c6d1_9d49);
    for _ in 0..64 {
        let policy = arb_policy(&mut rng);
        let attempts = rng.range(8u32..64);
        let first = policy.schedule(attempts);
        let second = policy.schedule(attempts);
        assert_eq!(&first, &second, "same policy, same schedule");
        assert_eq!(first.len(), attempts as usize);

        let reseeded = BackoffPolicy {
            seed: policy.seed.wrapping_add(1),
            ..policy
        };
        // With ≥ 8 jittered draws, two adjacent seeds colliding on every
        // draw would mean the mixer is broken.
        assert_ne!(first, reseeded.schedule(attempts));
    }
}
