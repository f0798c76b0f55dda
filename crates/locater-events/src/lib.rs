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
pub mod validity;

pub use clock::{DayOfWeek, Timestamp, SECONDS_PER_DAY, SECONDS_PER_WEEK};
pub use device::{Device, DeviceId, MacAddress};
pub use error::EventError;
pub use event::{EventId, EventSeq, StoredEvent, EVENT_ID_LIMIT, EVENT_TIME_LIMIT};
pub use gap::{gap_containing, gaps_in, gaps_in_window, Gap};
pub use interval::Interval;
