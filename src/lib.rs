//! # LOCATER
//!
//! A from-scratch Rust reproduction of **LOCATER: Cleaning WiFi Connectivity Datasets
//! for Semantic Localization** (Lin et al., VLDB 2020).
//!
//! LOCATER locates devices (and hence the people carrying them) at *semantic* indoor
//! granularities — building, region, room — using nothing but the association logs that
//! every enterprise WiFi deployment already produces, i.e. tuples of
//! `⟨mac address, timestamp, access point⟩`. It treats localization as two data
//! cleaning problems:
//!
//! 1. **Coarse-grained localization** (missing-value detection and repair): the log is
//!    sporadic, so between two connectivity events of a device there are *gaps* during
//!    which its location is unknown. LOCATER classifies each gap as
//!    outside-the-building or inside a specific *region* (the coverage area of one AP)
//!    using bootstrapped heuristics plus a semi-supervised logistic-regression
//!    self-training loop ([`locater_core::coarse`]).
//! 2. **Fine-grained localization** (disambiguation): an AP covers many rooms, so the
//!    region must be disambiguated to a single room. LOCATER combines *room affinities*
//!    (derived from space metadata: preferred / public / private rooms) with *group
//!    affinities* (how often devices are co-located) in an iterative Bayesian algorithm
//!    with early-stopping bounds ([`locater_core::fine`]).
//!
//! A *caching engine* ([`locater_core::cache`]) accumulates pairwise device affinities
//! across queries into a global affinity graph so that later queries converge faster.
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`locater_space`] | space model: buildings, regions, rooms, APs, coverage, metadata |
//! | [`locater_events`] | connectivity events, devices, validity periods, gap detection |
//! | [`locater_store`] | per-device event timelines, indices, per-device sharding, CSV ingestion, binary snapshots, statistics |
//! | [`locater_learn`] | logistic regression + semi-supervised self-training (Algorithm 1) |
//! | [`locater_core`] | coarse & fine localization, caching, baselines, metrics, the `ShardedLocaterService` |
//! | [`locater_sim`] | SmartBench-style scenario simulator + DBH-like campus dataset generator |
//! | [`locater_proto`] | versioned NDJSON wire protocol: `WireRequest`/`WireResponse` frames, codec, REPL syntax |
//! | [`locater_client`] | resilient TCP client: reconnect, per-request timeouts, seeded backoff, idempotent retries |
//! | [`locater_server`] | std-net TCP server: one thread per connection, pipelining, admission control, graceful drain |
//!
//! ## Quickstart
//!
//! ```
//! use locater::prelude::*;
//!
//! // Build a small space: one building, 2 APs, a handful of rooms.
//! let space = SpaceBuilder::new("demo-building")
//!     .add_access_point("wap1", &["1001", "1002", "1003"])
//!     .add_access_point("wap2", &["1003", "1004", "1005"])
//!     .room_type("1003", RoomType::Public)
//!     .preferred_room("aa:bb:cc:dd:ee:01", "1001")
//!     .build()
//!     .expect("valid space");
//!
//! // One service (here with a single shard) over an initially empty store.
//! let service = ShardedLocaterService::new(EventStore::new(space), LocaterConfig::default(), 1);
//!
//! // Ingest connectivity events.
//! service.ingest("aa:bb:cc:dd:ee:01", 1_000, "wap1").unwrap();
//! service.ingest("aa:bb:cc:dd:ee:01", 4_000, "wap1").unwrap();
//!
//! // Ask LOCATER where the device was between the two events.
//! let response = service
//!     .locate(&LocateRequest::by_mac("aa:bb:cc:dd:ee:01", 2_500).with_diagnostics())
//!     .unwrap();
//! assert!(response.answer.is_inside());
//! assert!(response.diagnostics.is_some());
//! ```
//!
//! ## One service
//!
//! [`ShardedLocaterService`](locater_core::system::ShardedLocaterService) is
//! the only service type. It keeps ingesting WiFi events while answering
//! queries: events appended through `ingest`/`ingest_batch` bump per-device
//! *epoch counters* that invalidate exactly the cached state (affinity-graph
//! edges, per-device coarse models) derived from the touched device's history
//! — answers after any ingest sequence are identical to those of a freshly
//! built service over the same data. A dataset that never grows is the same
//! service without ingests. When concurrent ingest throughput matters, build
//! it with more shards (`N` per-device partitions, byte-identical answers for
//! every `N`).

pub use locater_client as client;
pub use locater_core as core;
pub use locater_events as events;
pub use locater_learn as learn;
pub use locater_proto as proto;
pub use locater_server as server;
pub use locater_sim as sim;
pub use locater_space as space;
pub use locater_store as store;

/// Convenience re-exports of the most commonly used types across all LOCATER crates.
pub mod prelude {
    pub use locater_client::{BackoffPolicy, ClientConfig, ClientError, RetryClient};
    pub use locater_core::baselines::{Baseline1, Baseline2, BaselineSystem};
    pub use locater_core::metrics::{EvaluationReport, PrecisionCounts};
    pub use locater_core::system::{
        Answer, CacheMode, Cut, FineMode, LocateRequest, LocateResponse, LocaterConfig, ShardStats,
        ShardedLocaterService,
    };
    pub use locater_events::{Device, DeviceId, EventId, Gap, Timestamp};
    pub use locater_proto::{WireError, WireRequest, WireResponse, WireStats, PROTOCOL_VERSION};
    pub use locater_server::{Server, ServerConfig, ServerReport, ServerState};
    pub use locater_sim::{
        campus::CampusConfig, scenario::ScenarioKind, GroundTruth, SimOutput, Simulator,
    };
    pub use locater_space::{AccessPointId, RegionId, RoomId, RoomType, Space, SpaceBuilder};
    pub use locater_store::{EventStore, IngestError, StoreError};
}
