//! # locater-events
//!
//! The *WiFi connectivity data model* substrate of the LOCATER reproduction
//! (paper §2, "WiFi Connectivity Data Model").
//!
//! The raw input to LOCATER is a log of **connectivity events**: tuples
//! `⟨mac address, timestamp, wap⟩` emitted whenever a device associates with an
//! access point, probes the network, changes state, etc. Events are *sporadic*: a
//! device that sits in one room for an hour may produce only a handful of events.
//! This crate models:
//!
//! * [`MacAddress`] / [`Device`] / [`DeviceId`] — devices identified by MAC address,
//!   each with a device-specific **validity period** `δ(d)`: an event at time `t` is
//!   considered valid evidence of the device's region during `(t − δ, t + δ)`,
//!   truncated at the next event of the same device.
//! * [`EventSeq`] — one device's events (`E(d_i)`) as one array sorted by
//!   `(t, id)`: appends, range slices, partition points and windowed counts,
//!   each a binary search or two. The store keeps one per device. Each
//!   [`StoredEvent`] is 12 bytes: a timestamp below [`EVENT_TIME_LIMIT`]
//!   (2³² s after the epoch), an id below [`EVENT_ID_LIMIT`] (2⁴⁸) and an
//!   access point below 2¹⁶.
//! * [`Gap`] — a maximal period during which no event of a device is valid. Gaps are
//!   the *missing values* the coarse-grained localization must repair
//!   ([`gaps_in`], [`gaps_in_window`], [`gap_containing`]).
//! * [`Timestamp`] helpers ([`clock`]) — day-of-week / time-of-day arithmetic on the
//!   integer-second timeline used throughout the project.
//! * [`validity`] — estimation of `δ(d)` from the log itself (paper Appendix 9.1).
//! * [`SeededRng`] — the seeded generator every simulated world, query
//!   workload and random baseline draws from.
//!
//! ```
//! use locater_events::{gaps_in, EventSeq, Timestamp};
//! use locater_space::AccessPointId;
//!
//! // Three events of one device on AP 0, with a validity period of 60 s.
//! let seq = EventSeq::from_pairs(&[(100, 0), (220, 0), (1_000, 0)]);
//! let gaps = gaps_in(&seq, 60);
//! // 100 and 220 are within 2δ of each other: no gap. 220 → 1000 leaves one.
//! assert_eq!(gaps.len(), 1);
//! assert_eq!(gaps[0].start, 280);   // 220 + δ
//! assert_eq!(gaps[0].end, 940);     // 1000 - δ
//! assert_eq!(gaps[0].start_ap, AccessPointId::new(0));
//! let _: Timestamp = gaps[0].duration();
//! ```
//!
//! Validity intervals answer "where was the device at `t`?" directly when an
//! event covers `t`, and δ itself is estimated from the log's stationary
//! reconnection rhythm:
//!
//! ```
//! use locater_events::validity::estimate_delta_events;
//! use locater_events::EventSeq;
//!
//! // A device reconnecting every 5 minutes on the same AP...
//! let pairs: Vec<(i64, u32)> = (0..20).map(|i| (i * 300, 0)).collect();
//! let seq = EventSeq::from_pairs(&pairs);
//! // ...earns a 5-minute validity period (clamped to [2 min, 30 min]).
//! let delta = estimate_delta_events(seq.events());
//! assert_eq!(delta, 300);
//! // An instant shortly after an event is covered by it; instants past the
//! // last event's validity are not.
//! assert!(seq.covering_event(1_300, delta).is_some());
//! assert_eq!(seq.covering_event(19 * 300 + delta + 1, delta), None);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
mod device;
mod error;
mod event;
mod gap;
mod interval;
mod rng;
pub mod validity;

pub use clock::{DayOfWeek, Timestamp, SECONDS_PER_DAY, SECONDS_PER_WEEK};
pub use device::{Device, DeviceId, MacAddress};
pub use error::EventError;
pub use event::{EventId, EventSeq, StoredEvent, EVENT_ID_LIMIT, EVENT_TIME_LIMIT};
pub use gap::{gap_containing, gaps_in, gaps_in_window, Gap};
pub use interval::Interval;
pub use rng::{SeededRng, UniformRange};

#[cfg(test)]
mod tests {
    use super::SeededRng;

    /// The first outputs for three seeds, recorded when the generator was
    /// introduced: `(seed, three next_u64, the bits of a unit f64, a usize
    /// in 0..10, an i64 in -900..=900)`, drawn in that order. Every
    /// simulated world is a function of these sequences.
    const PINS: [(u64, [u64; 3], u64, usize, i64); 3] = [
        (
            0,
            [
                0x5317_5d61_490b_23df,
                0x61da_6f3d_c380_d507,
                0x5c0f_df91_ec9a_7bfc,
            ],
            0x3f87_75fc_61dd_f2c0,
            4,
            403,
        ),
        (
            1,
            [
                0xcfc5_d07f_6f03_c29b,
                0xbf42_4132_963f_e08d,
                0x19a3_7d57_57aa_f520,
            ],
            0x3fe7_e102_33e0_b9aa,
            0,
            -193,
        ),
        (
            42,
            [
                0xd076_4d4f_4476_689f,
                0x519e_4174_576f_3791,
                0xfbe0_7cfb_0c24_ed8c,
            ],
            0x3fe6_6fb3_ec01_9b06,
            1,
            433,
        ),
    ];

    #[test]
    fn generator_outputs_are_pinned() {
        for (seed, words, unit_bits, index, jitter) in PINS {
            let mut rng = SeededRng::new(seed);
            let drawn = [rng.next_u64(), rng.next_u64(), rng.next_u64()];
            assert_eq!(drawn, words, "seed {seed}: next_u64");
            assert_eq!(rng.unit_f64().to_bits(), unit_bits, "seed {seed}: unit_f64");
            assert_eq!(rng.range(0usize..10), index, "seed {seed}: usize range");
            assert_eq!(rng.range(-900i64..=900), jitter, "seed {seed}: i64 range");
        }
    }

    #[test]
    fn shuffles_are_pinned() {
        let pins: [(u64, [u32; 10]); 3] = [
            (0, [0, 5, 1, 2, 9, 7, 6, 8, 4, 3]),
            (1, [1, 4, 5, 3, 6, 2, 9, 0, 8, 7]),
            (42, [6, 9, 7, 8, 0, 5, 3, 4, 2, 1]),
        ];
        for (seed, expected) in pins {
            let mut items: [u32; 10] = std::array::from_fn(|i| i as u32);
            SeededRng::new(seed).shuffle(&mut items);
            assert_eq!(items, expected, "seed {seed}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = SeededRng::new(7);
        let mut b = SeededRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SeededRng::new(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn unit_floats_stay_in_range() {
        let mut rng = SeededRng::new(1);
        for _ in 0..10_000 {
            assert!((0.0..1.0).contains(&rng.unit_f64()));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = SeededRng::new(2);
        for _ in 0..10_000 {
            let v = rng.range(-5i64..5);
            assert!((-5..5).contains(&v));
            let w = rng.range(10u32..=12);
            assert!((10..=12).contains(&w));
            let f = rng.range(1.0f64..2.0);
            assert!((1.0..2.0).contains(&f));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = SeededRng::new(3);
        let hits = (0..10_000).filter(|_| rng.unit_f64() < 0.3).count();
        assert!((hits as f64 / 10_000.0 - 0.3).abs() < 0.03);
    }
}
