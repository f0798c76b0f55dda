//! The parallel map behind every query of
//! [`ShardedLocaterService`](super::ShardedLocaterService): `locate` and
//! `locate_coarse` run it with one item, `locate_batch` with many.
//!
//! Each resolved item is answered once, through [`Engine::locate_detailed`],
//! and its answer and diagnostics go into the item's own slot, so the results
//! come back in request order however the work was split. Unresolvable items
//! error in place and never reach a worker.
//!
//! Items are split into one run per device (in request order within a run),
//! so one device's queries share its model. Workers claim runs from one
//! shared atomic index over the runs sorted by decreasing length (ties by
//! device id): the longest runs start first, and a worker that drew cheap
//! devices takes more. With one worker the map runs on the calling thread and
//! spawns nothing.
//!
//! Results are identical for every `jobs` value. Coarse models are a function
//! of the device, its query's grid window and the device's events, so workers
//! share the live model maps of the devices' home shards. The affinity graph
//! is only read here, through the caller's `plan`: `locate_batch` plans every
//! item over one read guard held for the whole run, and the caller merges the
//! fine steps' contributions into the graph afterwards, in request order.

use super::engine::{Effective, Engine, ModelCache};
use super::epoch::EpochRead;
use super::{Answer, QueryDiagnostics};
use crate::cache::FinePlan;
use crate::error::LocaterError;
use locater_events::clock::Timestamp;
use locater_events::DeviceId;
use locater_store::EventRead;
use std::cmp::Reverse;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// One query: the query time, the resolved device (or the error to report in
/// place), and the per-request effective engine view.
#[derive(Debug)]
pub(crate) struct BatchItem {
    pub(crate) t: Timestamp,
    pub(crate) device: Result<DeviceId, LocaterError>,
    pub(crate) eff: Effective,
}

/// One item's result: its answer and the diagnostics of the query that gave
/// it, or the item's resolution error.
pub(crate) type Answered = Result<(Answer, QueryDiagnostics), LocaterError>;

/// The live coarse-model map of a device's home shard.
type ModelsOf<'s> = dyn Fn(DeviceId) -> &'s ModelCache + Sync + 's;

/// The fine step's plan for `(device, t_q, neighbors)`: where the caller
/// reads the affinity graph.
type PlanOf<'s> = dyn Fn(DeviceId, Timestamp, &[DeviceId]) -> FinePlan + Sync + 's;

/// Answers `items` across at most `jobs` workers, the calling thread
/// included, and returns one result per item, in request order.
pub(crate) fn run_batch(
    engine: &Engine,
    store: &dyn EventRead,
    epochs: &dyn EpochRead,
    items: &[BatchItem],
    jobs: usize,
    models_of: &ModelsOf<'_>,
    plan: &PlanOf<'_>,
) -> Vec<Answered> {
    // (device, item index) of every resolved item, sorted: one run per
    // device, in request order within it. The pairs are distinct, so the
    // unstable sort is the stable sort by device, without its scratch buffer.
    let mut resolved: Vec<(DeviceId, usize)> = (items.iter().enumerate())
        .filter_map(|(idx, item)| Some((*item.device.as_ref().ok()?, idx)))
        .collect();
    resolved.sort_unstable();
    let mut runs: Vec<&[(DeviceId, usize)]> = resolved.chunk_by(|a, b| a.0 == b.0).collect();
    runs.sort_unstable_by_key(|run| (Reverse(run.len()), run[0].0));

    let slots: Vec<OnceLock<(Answer, QueryDiagnostics)>> =
        items.iter().map(|_| OnceLock::new()).collect();
    // `Relaxed` suffices: the index publishes no data — `runs` is frozen
    // before any worker starts, and the scope's join orders the slots.
    let next = AtomicUsize::new(0);
    let work = || {
        while let Some(run) = runs.get(next.fetch_add(1, Ordering::Relaxed)) {
            let models = models_of(run[0].0);
            for &(device, idx) in *run {
                let item = &items[idx];
                let plan = |neighbors: &[DeviceId]| plan(device, item.t, neighbors);
                let answered =
                    engine.locate_detailed(store, epochs, device, item.t, &item.eff, models, &plan);
                slots[idx]
                    .set(answered)
                    .expect("each item is in exactly one run");
            }
        }
    };
    // A worker is a real thread, so there are never more workers than runs.
    // The scope joins every worker and re-raises a worker's panic here.
    let jobs = jobs.clamp(1, runs.len().max(1));
    if jobs == 1 {
        work();
    } else {
        std::thread::scope(|scope| {
            for _ in 1..jobs {
                scope.spawn(work);
            }
            work();
        });
    }

    items
        .iter()
        .zip(slots)
        .map(|(item, slot)| match &item.device {
            Ok(_) => Ok(slot.into_inner().expect("every resolved item is answered")),
            Err(e) => Err(e.clone()),
        })
        .collect()
}
