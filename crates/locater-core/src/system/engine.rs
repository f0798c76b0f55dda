//! The query engine behind [`ShardedLocaterService`](super::ShardedLocaterService):
//! the one function that answers a query ([`Engine::locate_detailed`]) and
//! the steps it sequences.
//!
//! The engine itself is stateless — configuration plus the two localizers.
//! The state a query reads and warms (per-device coarse models, affinity
//! edges) is handed in by its one caller, the parallel map every query runs
//! through ([`super::batch`]): the queried device's home-shard model map, and
//! the plan closure of the verb — `locate` read-locks the service's one
//! affinity graph for the plan alone, `locate_batch` plans over the graph it
//! holds read-locked for the whole run.

use super::epoch::{EpochRead, ModelEntry};
use super::request::LocateRequest;
use super::{assemble_answer, Answer, CacheMode, LocaterConfig, QueryDiagnostics};
use crate::cache::FinePlan;
use crate::coarse::{CoarseLabel, CoarseLocalizer, CoarseOutcome};
use crate::error::LocaterError;
use crate::fine::{FineConfig, FineLocalizer, FineOutcome};
use locater_events::clock::Timestamp;
use locater_events::DeviceId;
use locater_space::RegionId;
use locater_store::EventRead;
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::{Arc, LockResult, PoisonError, RwLock};
use std::time::Instant;

/// Takes a lock whether or not a previous holder panicked. Every mutation
/// made under the service's locks is a whole step (one event appended, one
/// epoch bumped, one edge or model inserted), so the data is valid after a
/// panicked holder — and the server's per-request `catch_unwind` isolation
/// depends on one panicking request not wedging every later one.
pub(crate) fn relock<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Per-device coarse models, epoch-stamped: one map per shard, holding the
/// models of the devices it owns.
pub(crate) type ModelCache = RwLock<HashMap<DeviceId, ModelEntry>>;

/// The stateless half of the service: the configuration and the two
/// localizers built from it.
#[derive(Debug)]
pub(crate) struct Engine {
    pub(crate) config: LocaterConfig,
    pub(crate) coarse: CoarseLocalizer,
    fine: FineLocalizer,
}

/// The per-request view of the engine configuration: the fine localizer to
/// run, whether the caching engine may be consulted, and whether the answer
/// stops after the coarse step. Computed once per request from the service
/// config plus the request overrides.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Effective {
    pub(crate) fine: FineLocalizer,
    pub(crate) cache: CacheMode,
    pub(crate) coarse_only: bool,
}

/// Resolves a (mac, device-id) target against a store.
pub(crate) fn resolve_target(
    store: &dyn EventRead,
    mac: Option<&str>,
    device: Option<DeviceId>,
) -> Result<DeviceId, LocaterError> {
    if let Some(device) = device {
        if device.index() < store.num_devices() {
            return Ok(device);
        }
        return Err(LocaterError::UnknownDevice(device.to_string()));
    }
    match mac {
        Some(mac) => store
            .device_id(mac)
            .ok_or_else(|| LocaterError::UnknownDevice(mac.to_string())),
        None => Err(LocaterError::MissingDevice),
    }
}

impl Engine {
    pub(crate) fn new(config: LocaterConfig) -> Self {
        Self {
            config,
            coarse: CoarseLocalizer::new(config.coarse),
            fine: FineLocalizer::new(config.fine),
        }
    }

    /// The per-request engine view for one request's overrides.
    pub(crate) fn effective_for(&self, request: &LocateRequest, coarse_only: bool) -> Effective {
        let fine = match request.fine_mode {
            Some(mode) if mode != self.config.fine.mode => FineLocalizer::new(FineConfig {
                mode,
                ..self.config.fine
            }),
            _ => self.fine,
        };
        Effective {
            fine,
            cache: request.cache.unwrap_or(self.config.cache),
            coarse_only,
        }
    }

    /// Answers one query: coarse step, then — for an inside answer that is
    /// not coarse-only — neighbor scan, plan extraction, fine step, and the
    /// answer assembled from both outcomes. The neighbor scan and the fine
    /// localization run lock-free; `cache_plan` (called only when the request
    /// may consult the caching engine) is where the caller reads the affinity
    /// graph.
    ///
    /// Nothing is written back to an affinity cache here: the fine outcome's
    /// contributions are returned in the diagnostics and the caller merges
    /// them where its cache state lives.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn locate_detailed(
        &self,
        store: &dyn EventRead,
        epochs: &dyn EpochRead,
        device: DeviceId,
        t_q: Timestamp,
        eff: &Effective,
        models: &ModelCache,
        cache_plan: &dyn Fn(&[DeviceId]) -> FinePlan,
    ) -> (Answer, QueryDiagnostics) {
        let start = Instant::now();
        let (coarse, coarse_model_reused) = self.coarse_outcome(store, epochs, device, t_q, models);
        let (fine, cache_warm) = match coarse.label {
            CoarseLabel::Inside(region) if !eff.coarse_only => {
                let (fine, warm) = self.fine_exec(store, eff, device, t_q, region, cache_plan);
                (Some(fine), warm)
            }
            _ => (None, false),
        };
        let answer = assemble_answer(device, t_q, &coarse, fine.as_ref());
        let diagnostics = QueryDiagnostics {
            coarse,
            fine,
            elapsed: start.elapsed(),
            coarse_model_reused,
            cache_warm,
        };
        (answer, diagnostics)
    }

    /// Runs the coarse step, reusing the cached per-device model when it is
    /// epoch-live and its window is the query's
    /// ([`CoarseConfig::model_window`](crate::coarse::CoarseConfig::model_window)).
    /// Returns the outcome and whether a cached model was reused. On a miss
    /// the new model (a window — its classifiers are fitted by the first gap
    /// the duration thresholds leave undecided) replaces the entry unless it
    /// stayed unfitted and the entry is a live fitted model: two models of
    /// one window are equal, so which one is kept moves no answer, and a
    /// placeholder never throws a fit away.
    ///
    /// The map lock is held only to look an entry up or to insert one;
    /// classification, and with it any fit, runs on the `Arc` taken out of
    /// the map, and racing callers of one entry share one fit.
    fn coarse_outcome(
        &self,
        store: &dyn EventRead,
        epochs: &dyn EpochRead,
        device: DeviceId,
        t_q: Timestamp,
        models: &ModelCache,
    ) -> (CoarseOutcome, bool) {
        let gap = match CoarseLocalizer::query_gap(store, device, t_q) {
            ControlFlow::Continue(gap) => gap,
            ControlFlow::Break(certain) => return (certain, false),
        };
        let epoch = epochs.epoch_of(device);
        let window = self.coarse.config().model_window(t_q);
        let cached = relock(models.read())
            .get(&device)
            .filter(|entry| entry.epoch == epoch && entry.model.history == window)
            .map(|entry| Arc::clone(&entry.model));
        if let Some(model) = cached {
            return (self.coarse.classify_with_model(store, &model, &gap), true);
        }
        // Classify with the model just made — never a re-read of the shared
        // map, which a concurrent query for the same device in another grid
        // cell could have overwritten with a model of another window.
        let model = Arc::new(self.coarse.prepare_device_model(device, window.end));
        let outcome = self.coarse.classify_with_model(store, &model, &gap);
        let mut map = relock(models.write());
        let keep = |entry: &ModelEntry| entry.epoch == epoch && entry.model.is_fitted();
        if model.is_fitted() || !map.get(&device).is_some_and(keep) {
            map.insert(device, ModelEntry { model, epoch });
        }
        (outcome, false)
    }

    /// Runs the fine step. The neighbor scan (a store read that needs no
    /// lock) runs once: with the cache enabled its devices go to
    /// `cache_plan`, and the scanned list itself to Algorithm 2. Returns the
    /// outcome and whether the affinity graph was warm for the queried device.
    fn fine_exec(
        &self,
        store: &dyn EventRead,
        eff: &Effective,
        device: DeviceId,
        t_q: Timestamp,
        region: RegionId,
        cache_plan: &dyn Fn(&[DeviceId]) -> FinePlan,
    ) -> (FineOutcome, bool) {
        let neighbors = eff.fine.candidate_neighbors(store, device, t_q, region);
        let plan = (eff.cache == CacheMode::Enabled).then(|| {
            let devices: Vec<DeviceId> = neighbors.iter().map(|&(d, _)| d).collect();
            cache_plan(&devices)
        });
        let warm = plan.as_ref().is_some_and(|plan| !plan.cached.is_empty());
        let fine = eff
            .fine
            .locate_among(store, device, t_q, region, neighbors, plan.as_ref());
        (fine, warm)
    }
}
