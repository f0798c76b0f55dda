//! # locater-core
//!
//! The LOCATER cleaning engine (the paper's primary contribution): semantic indoor
//! localization of devices from WiFi connectivity logs, framed as two data cleaning
//! problems plus a caching layer that makes query answering near real-time.
//!
//! * [`coarse`] — **missing-value detection and repair** (paper §3). When a query time
//!   falls in a *gap* of a device's log, a bootstrapped, semi-supervised classifier
//!   pipeline decides whether the device was outside the building or inside, and in
//!   which region.
//! * [`fine`] — **location disambiguation** (paper §4). Given the region (one AP's
//!   coverage, typically ~11 rooms), the most probable room is selected by combining
//!   *room affinities* (space metadata: preferred / public / private rooms) and *group
//!   affinities* (co-location patterns of devices) in an iterative Bayesian algorithm
//!   with early-stopping bounds. Both the independent (`I-FINE`) and the dependent,
//!   cluster-based (`D-FINE`) variants are implemented.
//! * [`cache`] — the **caching engine** (paper §5): local affinity graphs produced by
//!   each query are merged into a global affinity graph whose temporally-weighted
//!   edges drive the neighbor processing order of later queries.
//! * [`system`] — the one service tying the engines together behind the query
//!   API `Q = (device, time)`:
//!   [`ShardedLocaterService`](system::ShardedLocaterService) — online ingestion,
//!   epoch-based cache invalidation, and `N ≥ 1` per-device partitions, each with
//!   its own store, lock, epochs and caches.
//! * [`baselines`] — the two baselines of the evaluation (§6.1).
//! * [`metrics`] — the `P_c` / `P_f` / `P_o` precision metrics of §6.1.
//!
//! ## Ingest-then-locate
//!
//! The service routes each event to its device's home shard, so
//! concurrent ingests for different devices never contend on a lock — and
//! answers stay byte-identical to a single-shard deployment:
//!
//! ```
//! use locater_core::system::{LocateRequest, LocaterConfig, ShardedLocaterService};
//! use locater_space::SpaceBuilder;
//! use locater_store::EventStore;
//!
//! let space = SpaceBuilder::new("demo")
//!     .add_access_point("wap1", &["101", "102"])
//!     .build()
//!     .unwrap();
//! let service =
//!     ShardedLocaterService::new(EventStore::new(space), LocaterConfig::default(), 4);
//!
//! // Ingest: write-locks only the device's home shard once the device is known.
//! service.ingest("aa:bb:cc:dd:ee:01", 1_000, "wap1").unwrap();
//! service.ingest("aa:bb:cc:dd:ee:01", 4_000, "wap1").unwrap();
//! service.ingest("aa:bb:cc:dd:ee:02", 1_500, "wap1").unwrap();
//!
//! // Locate: answers over the read-only multi-shard view.
//! let response = service
//!     .locate(&LocateRequest::by_mac("aa:bb:cc:dd:ee:01", 2_500))
//!     .unwrap();
//! assert!(response.answer.is_inside());
//! assert_eq!(response.events_seen, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod cache;
pub mod coarse;
mod error;
pub mod fine;
pub mod metrics;
pub mod system;

pub use error::LocaterError;
