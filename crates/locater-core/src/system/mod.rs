//! The LOCATER system (paper §5): query engine + cleaning engine + caching
//! engine behind the query API `Q = (device, time)`.
//!
//! There is one service type, [`ShardedLocaterService`]: it owns a *mutable*
//! event store partitioned per device into `N ≥ 1` shards, ingests
//! connectivity events while answering queries, and keeps the caching engine
//! correct through per-device epoch invalidation ([`epoch`]). Queries go
//! through the typed request/response layer ([`request`]):
//! [`LocateRequest`] → [`LocateResponse`]. Offline evaluation over a dataset
//! that never grows is the same service with one shard and no ingests.
//!
//! Answering a query runs in two steps:
//!
//! 1. the **coarse** step ([`crate::coarse`]) decides whether the device was outside
//!    the building at the query time or inside a specific region — either trivially
//!    (a connectivity event is valid at that time) or by classifying the gap;
//! 2. the **fine** step ([`crate::fine`]) disambiguates the region to a room, using
//!    room and group affinities of the devices online around the query time;
//!
//! and the **caching engine** ([`crate::cache`]) persists the pairwise affinities
//! computed for the answer into the global affinity graph and uses it to order
//! neighbor processing for subsequent queries. Per-device coarse models are
//! trained lazily and cached; a query's model window is fixed by its time
//! alone (rounded down to a week), and a cached model is replaced when a query
//! needs another window — or when ingestion bumps the device's epoch
//! ([`epoch`]). One function sequences those steps
//! (`engine::Engine::locate_detailed`), and one parallel map calls it for
//! every query (`batch::run_batch`): `locate` is a batch of one.

mod batch;
mod engine;
pub mod epoch;
pub mod request;
pub mod shard;

pub use epoch::{EpochRead, EpochTable, ModelEntry};
pub use request::{LocateRequest, LocateResponse};
pub use shard::{CompactionStatus, Cut, ShardStats, ShardedLocaterService, WalStatus};

use crate::coarse::{CoarseConfig, CoarseLabel, CoarseMethod, CoarseOutcome};
use crate::fine::{FineConfig, FineOutcome};
use locater_events::clock::Timestamp;
use locater_events::DeviceId;
use locater_space::{RegionId, RoomId};
use serde::{Deserialize, Serialize};
use std::time::Duration;

pub use crate::fine::FineMode;

/// Whether the caching engine (global affinity graph) is used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum CacheMode {
    /// Affinities are cached and used to order neighbor processing (`+C` systems).
    #[default]
    Enabled,
    /// Every query recomputes affinities and processes neighbors in natural order.
    Disabled,
}

/// A semantic location at one of the three granularities of the space model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Location {
    /// Outside the building.
    Outside,
    /// Inside the building, in this region, room unknown (coarse-only answers).
    Region(RegionId),
    /// Inside the building, in this room of this region.
    Room {
        /// The selected room.
        room: RoomId,
        /// The region the room was selected from.
        region: RegionId,
    },
}

impl Location {
    /// `true` if the location is inside the building.
    pub fn is_inside(&self) -> bool {
        !matches!(self, Location::Outside)
    }

    /// The region, if inside.
    pub fn region(&self) -> Option<RegionId> {
        match self {
            Location::Outside => None,
            Location::Region(region) => Some(*region),
            Location::Room { region, .. } => Some(*region),
        }
    }

    /// The room, if resolved to room level.
    pub fn room(&self) -> Option<RoomId> {
        match self {
            Location::Room { room, .. } => Some(*room),
            _ => None,
        }
    }
}

/// The answer to a [`LocateRequest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Answer {
    /// The resolved device.
    pub device: DeviceId,
    /// The query time.
    pub t: Timestamp,
    /// The cleaned semantic location.
    pub location: Location,
    /// How the coarse step decided the building/region label.
    pub coarse_method: CoarseMethod,
    /// Combined confidence of the answer in `[0, 1]`.
    pub confidence: f64,
}

impl Answer {
    /// `true` if the device was located inside the building.
    pub fn is_inside(&self) -> bool {
        self.location.is_inside()
    }

    /// `true` if the device was located outside the building.
    pub fn is_outside(&self) -> bool {
        !self.is_inside()
    }

    /// The region, if inside.
    pub fn region(&self) -> Option<RegionId> {
        self.location.region()
    }

    /// The room, if resolved to room level.
    pub fn room(&self) -> Option<RoomId> {
        self.location.room()
    }
}

/// Diagnostics collected while answering one query; used by the evaluation
/// harness and returned to [`LocateRequest::with_diagnostics`] callers.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryDiagnostics {
    /// Outcome of the coarse step.
    pub coarse: CoarseOutcome,
    /// Outcome of the fine step (absent for outside answers).
    pub fine: Option<FineOutcome>,
    /// Wall-clock time spent answering the query.
    pub elapsed: Duration,
    /// Whether a cached per-device coarse model was reused.
    pub coarse_model_reused: bool,
    /// Whether the global affinity graph already had a live edge for the
    /// queried device.
    pub cache_warm: bool,
}

/// Configuration of the full LOCATER system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocaterConfig {
    /// Coarse-grained localization parameters (§3).
    pub coarse: CoarseConfig,
    /// Fine-grained localization parameters (§4).
    pub fine: FineConfig,
    /// Whether the caching engine is active (§5).
    pub cache: CacheMode,
}

impl Default for LocaterConfig {
    fn default() -> Self {
        Self {
            coarse: CoarseConfig::default(),
            fine: FineConfig::default(),
            cache: CacheMode::Enabled,
        }
    }
}

impl LocaterConfig {
    /// Returns a copy configured for the given fine-grained mode (I-FINE / D-FINE).
    pub fn with_fine_mode(mut self, mode: FineMode) -> Self {
        self.fine.mode = mode;
        self
    }

    /// Returns a copy with the caching engine enabled or disabled.
    pub fn with_cache(mut self, cache: CacheMode) -> Self {
        self.cache = cache;
        self
    }

    /// Returns a copy with the given amount of history: both the coarse
    /// training history and the fine affinity window are set to it, whether
    /// that widens or narrows them (Fig. 8 varies both together). Used by the
    /// Fig. 8 experiment.
    pub fn with_history(mut self, history: Timestamp) -> Self {
        self.coarse.history = history.max(1);
        self.fine.affinity_window = history.max(1);
        self
    }
}

/// Builds the [`Answer`] for one query from its coarse outcome and, when the
/// fine step ran, its fine outcome — the single place the answer/confidence
/// composition lives. An inside answer without a fine outcome (the
/// coarse-only degraded path) stays at region granularity.
pub(crate) fn assemble_answer(
    device: DeviceId,
    t_q: Timestamp,
    coarse: &CoarseOutcome,
    fine: Option<&FineOutcome>,
) -> Answer {
    let (location, confidence) = match (coarse.label, fine) {
        (CoarseLabel::Outside, _) => (Location::Outside, coarse.confidence),
        (CoarseLabel::Inside(region), None) => (Location::Region(region), coarse.confidence),
        (CoarseLabel::Inside(region), Some(fine)) => (
            Location::Room {
                room: fine.room,
                region,
            },
            coarse.confidence * fine.confidence(),
        ),
    };
    Answer {
        device,
        t: t_q,
        location,
        coarse_method: coarse.method,
        confidence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locater_events::clock;

    #[test]
    fn config_builders_adjust_modes() {
        let config = LocaterConfig::default()
            .with_fine_mode(FineMode::Dependent)
            .with_cache(CacheMode::Disabled)
            .with_history(clock::weeks(2));
        assert_eq!(config.fine.mode, FineMode::Dependent);
        assert_eq!(config.cache, CacheMode::Disabled);
        assert_eq!(config.coarse.history, clock::weeks(2));
    }

    #[test]
    fn with_history_widens_and_narrows_both_windows() {
        let default_window = FineConfig::default().affinity_window;

        // Narrower than the default affinity window (3 weeks): both shrink.
        let narrow = LocaterConfig::default().with_history(clock::weeks(1));
        assert_eq!(narrow.coarse.history, clock::weeks(1));
        assert_eq!(narrow.fine.affinity_window, clock::weeks(1));
        assert!(narrow.fine.affinity_window < default_window);

        // Wider than the default: the fine window must *widen* too (a past bug
        // clamped it down to the default, so Fig. 8's long-history points never
        // saw a wider affinity window).
        let wide = LocaterConfig::default().with_history(clock::weeks(10));
        assert_eq!(wide.coarse.history, clock::weeks(10));
        assert_eq!(wide.fine.affinity_window, clock::weeks(10));
        assert!(wide.fine.affinity_window > default_window);

        // Degenerate input is clamped to at least one second.
        let floor = LocaterConfig::default().with_history(0);
        assert_eq!(floor.coarse.history, 1);
        assert_eq!(floor.fine.affinity_window, 1);
    }

    #[test]
    fn location_accessors() {
        let outside = Location::Outside;
        assert!(!outside.is_inside());
        assert_eq!(outside.room(), None);
        let region = Location::Region(RegionId::new(2));
        assert!(region.is_inside());
        assert_eq!(region.region(), Some(RegionId::new(2)));
        assert_eq!(region.room(), None);
        let room = Location::Room {
            room: RoomId::new(5),
            region: RegionId::new(2),
        };
        assert_eq!(room.room(), Some(RoomId::new(5)));
        assert_eq!(room.region(), Some(RegionId::new(2)));
    }
}
