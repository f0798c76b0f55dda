//! The deterministic batch pipeline behind
//! [`ShardedLocaterService::locate_batch`](super::ShardedLocaterService::locate_batch).
//!
//! The pipeline is built for determinism: results are **identical for every
//! `jobs` value** (including the sequential `jobs = 1` path) and are returned
//! in query order. Two properties make that hold:
//!
//! 1. every query is answered against the same state of the global affinity
//!    graph (the caller holds the service's one graph read-locked for the
//!    whole run), so no worker observes another worker's cache warming —
//!    and, unlike per-query `locate` loops, no query observes warming from
//!    *earlier batch queries* either;
//! 2. the worker-local affinity contributions are handed back in ascending
//!    query order (`BatchOutcome::contributions`) and the caller applies
//!    them to the graph only after all workers join and it has dropped its
//!    read guard.
//!
//! Coarse models need no such care: a model is a function of the device, its
//! query's grid window and the device's events, so workers read and write the
//! live model maps of the devices' home shards, as `locate` does.
//!
//! Queries are grouped by device, so one device's queries share its model.
//! Workers claim device groups as they free up, from one shared atomic index
//! over the groups sorted by decreasing query count (ties by device id): the
//! largest groups start first, and a worker that drew cheap devices takes
//! more. The calling thread is one of the `jobs` workers, so `jobs = 1`
//! spawns no thread.

use super::engine::{Effective, Engine, ModelCache};
use super::epoch::EpochRead;
use super::{Answer, CacheMode};
use crate::cache::GlobalAffinityGraph;
use crate::error::LocaterError;
use crate::fine::NeighborContribution;
use locater_events::clock::Timestamp;
use locater_events::DeviceId;
use locater_store::EventRead;
use std::cmp::Reverse;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One batch entry: the query time, the resolved device (or the error to
/// report in place), and the per-request effective engine view.
#[derive(Debug)]
pub(crate) struct BatchItem {
    pub(crate) t: Timestamp,
    pub(crate) device: Result<DeviceId, LocaterError>,
    pub(crate) eff: Effective,
}

/// The local affinity graph of one batch-answered query, queued for the
/// post-join merge into the global affinity graph.
#[derive(Debug, Clone)]
pub(crate) struct BatchContribution {
    query_index: usize,
    pub(crate) device: DeviceId,
    pub(crate) t: Timestamp,
    pub(crate) neighbors: Vec<NeighborContribution>,
}

/// One device's share of a batch: its query indices in query order.
#[derive(Debug)]
struct DeviceGroup {
    device: DeviceId,
    indices: Vec<usize>,
}

/// Everything one worker produces: answers (tagged with their query index)
/// and affinity contributions.
#[derive(Debug, Default)]
struct WorkerOutput {
    answers: Vec<(usize, Answer)>,
    contributions: Vec<BatchContribution>,
}

/// What a batch run hands back to its caller: in-order answers and affinity
/// contributions sorted by query index (apply them to the live cache in this
/// order).
#[derive(Debug)]
pub(crate) struct BatchOutcome {
    pub(crate) answers: Vec<Result<Answer, LocaterError>>,
    pub(crate) contributions: Vec<BatchContribution>,
}

/// The live coarse-model map of a device's home shard.
pub(crate) type ModelsOf<'s> = dyn Fn(DeviceId) -> &'s ModelCache + Sync + 's;

/// Answers a batch of resolved items across `jobs` workers, the calling
/// thread included. Unresolvable items error in place and never reach a
/// worker.
///
/// `models_of` gives each device's live model map. `graph` is the global
/// affinity graph every worker reads; nothing here locks or writes it. The
/// caller owns applying [`BatchOutcome::contributions`] back to it.
pub(crate) fn run_batch(
    engine: &Engine,
    store: &dyn EventRead,
    epochs: &dyn EpochRead,
    items: &[BatchItem],
    jobs: usize,
    models_of: &ModelsOf<'_>,
    graph: &GlobalAffinityGraph,
) -> BatchOutcome {
    let mut by_device: HashMap<DeviceId, Vec<usize>> = HashMap::new();
    for (idx, item) in items.iter().enumerate() {
        if let Ok(device) = item.device {
            by_device.entry(device).or_default().push(idx);
        }
    }
    let mut groups: Vec<DeviceGroup> = by_device
        .into_iter()
        .map(|(device, indices)| DeviceGroup { device, indices })
        .collect();
    groups.sort_by_key(|group| (Reverse(group.indices.len()), group.device));

    // Parallel phase: all workers answer against the same graph, whose epoch
    // stamps keep stale edges invisible inside the batch too. A worker is a
    // real thread, so there are never more workers than groups. The scope
    // joins every worker and re-raises a worker's panic on this thread.
    let jobs = jobs.clamp(1, groups.len().max(1));
    let next = AtomicUsize::new(0);
    let work = || {
        run_worker(
            engine, store, epochs, items, &groups, &next, models_of, graph,
        )
    };
    let mut outputs: Vec<WorkerOutput> = Vec::new();
    outputs.resize_with(jobs, WorkerOutput::default);
    std::thread::scope(|scope| {
        let (caller, spawned) = outputs.split_first_mut().expect("jobs >= 1");
        for out in spawned {
            scope.spawn(move || *out = work());
        }
        *caller = work();
    });

    // Deterministic merge: contributions in query order.
    let mut answers: Vec<Option<Answer>> = vec![None; items.len()];
    let mut contributions: Vec<BatchContribution> = Vec::new();
    for output in outputs {
        for (idx, answer) in output.answers {
            answers[idx] = Some(answer);
        }
        contributions.extend(output.contributions);
    }
    contributions.sort_by_key(|c| c.query_index);

    let answers = answers
        .into_iter()
        .zip(items)
        .map(|(answer, item)| match &item.device {
            Ok(_) => Ok(answer.expect("every resolved query is answered by its worker")),
            Err(e) => Err(e.clone()),
        })
        .collect();
    BatchOutcome {
        answers,
        contributions,
    }
}

/// Claims device groups until none is left and answers each group's queries
/// (in query order) through the one locate path
/// ([`Engine::locate_detailed`]), with the model state in the live maps and
/// the cache state in the shared graph; collects answers and affinity
/// contributions.
#[allow(clippy::too_many_arguments)]
fn run_worker(
    engine: &Engine,
    store: &dyn EventRead,
    epochs: &dyn EpochRead,
    items: &[BatchItem],
    groups: &[DeviceGroup],
    next: &AtomicUsize,
    models_of: &ModelsOf<'_>,
    graph: &GlobalAffinityGraph,
) -> WorkerOutput {
    let mut output = WorkerOutput::default();
    // `Relaxed` suffices: the index publishes no data — `groups` is frozen
    // before the spawn, and the scope's join orders the outputs.
    while let Some(group) = groups.get(next.fetch_add(1, Ordering::Relaxed)) {
        let device = group.device;
        let models = models_of(device);
        for &idx in &group.indices {
            let item = &items[idx];
            let t_q = item.t;
            let plan = |neighbors: &[DeviceId]| graph.plan(device, neighbors, t_q, epochs);
            let (answer, diagnostics) =
                engine.locate_detailed(store, epochs, device, t_q, &item.eff, models, &plan);
            output.answers.push((idx, answer));
            let neighbors = diagnostics
                .fine
                .map_or_else(Vec::new, |fine| fine.contributions);
            if item.eff.cache == CacheMode::Enabled && !neighbors.is_empty() {
                output.contributions.push(BatchContribution {
                    query_index: idx,
                    device,
                    t: t_q,
                    neighbors,
                });
            }
        }
    }
    output
}
