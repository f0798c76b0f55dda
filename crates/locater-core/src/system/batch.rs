//! The deterministic batch pipeline behind
//! [`ShardedLocaterService::locate_batch`](super::ShardedLocaterService::locate_batch).
//!
//! The pipeline is built for determinism: results are **identical for every
//! `jobs` value** (including the sequential `jobs = 1` path) and are returned
//! in query order. Three properties make that hold:
//!
//! 1. every query is answered against the same state of the global affinity
//!    graph (the caller holds the service's one graph read-locked for the
//!    whole run), so no worker observes another worker's cache warming —
//!    and, unlike per-query `locate` loops, no query observes warming from
//!    *earlier batch queries* either;
//! 2. queries are grouped **by device** — a device's queries are answered by
//!    one worker in query order, so its lazily trained coarse model evolves
//!    exactly as in the sequential path (the model state is per-device, and
//!    a device's seed from the live model cache travels with its group; a
//!    seed is the live entry's `Arc`, so classifiers a worker fits on it are
//!    fitted for the live cache too);
//! 3. the worker-local affinity contributions are handed back in ascending
//!    query order (`BatchOutcome::contributions`) and the caller applies
//!    them to the graph only after all workers join and it has dropped its
//!    read guard.
//!
//! Workers claim device groups as they free up, from one shared atomic index
//! over the groups sorted by decreasing query count (ties by device id): the
//! largest groups start first, and a worker that drew cheap devices takes
//! more. By property 2, which worker answers a device never changes an
//! answer. The calling thread is one of the `jobs` workers, so `jobs = 1`
//! spawns no thread.

use super::engine::{relock, Effective, Engine, ModelCache};
use super::epoch::{EpochRead, ModelEntry};
use super::{Answer, CacheMode};
use crate::cache::GlobalAffinityGraph;
use crate::error::LocaterError;
use crate::fine::NeighborContribution;
use locater_events::clock::Timestamp;
use locater_events::DeviceId;
use locater_store::EventRead;
use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};
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

/// One device's share of a batch: its query indices in query order and its
/// coarse model cached at batch start, if any.
#[derive(Debug)]
struct DeviceGroup {
    device: DeviceId,
    indices: Vec<usize>,
    seed: Option<ModelEntry>,
}

/// Everything one worker produces: answers (tagged with their query index),
/// affinity contributions, and the models it trained.
#[derive(Debug, Default)]
struct WorkerOutput {
    answers: Vec<(usize, Answer)>,
    contributions: Vec<BatchContribution>,
    trained: HashMap<DeviceId, ModelEntry>,
}

/// What a batch run hands back to its caller: in-order answers, affinity
/// contributions sorted by query index (apply them to the live cache in this
/// order), and the models freshly trained along the way (write them back to
/// the per-device model cache of each device's home shard).
#[derive(Debug)]
pub(crate) struct BatchOutcome {
    pub(crate) answers: Vec<Result<Answer, LocaterError>>,
    pub(crate) contributions: Vec<BatchContribution>,
    pub(crate) trained: HashMap<DeviceId, ModelEntry>,
}

/// Answers a batch of resolved items across `jobs` workers, the calling
/// thread included. Unresolvable items error in place and never reach a
/// worker.
///
/// `seeds` are the per-device coarse models cached at batch start, taken by
/// value: each moves into its device's group. `graph` is the global affinity
/// graph every worker reads; nothing here locks or writes it. The caller
/// owns applying [`BatchOutcome::contributions`] and
/// [`BatchOutcome::trained`] back to the live state.
pub(crate) fn run_batch(
    engine: &Engine,
    store: &dyn EventRead,
    epochs: &dyn EpochRead,
    items: &[BatchItem],
    jobs: usize,
    mut seeds: HashMap<DeviceId, ModelEntry>,
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
        .map(|(device, indices)| DeviceGroup {
            device,
            indices,
            seed: seeds.remove(&device),
        })
        .collect();
    groups.sort_by_key(|group| (Reverse(group.indices.len()), group.device));

    // Parallel phase: all workers answer against the same graph, whose epoch
    // stamps keep stale edges invisible inside the batch too. A worker is a
    // real thread, so there are never more workers than groups. The scope
    // joins every worker and re-raises a worker's panic on this thread.
    let jobs = jobs.clamp(1, groups.len().max(1));
    let next = AtomicUsize::new(0);
    let work = || run_worker(engine, store, epochs, items, &groups, &next, graph);
    let mut outputs: Vec<WorkerOutput> = Vec::new();
    outputs.resize_with(jobs, WorkerOutput::default);
    std::thread::scope(|scope| {
        let (caller, spawned) = outputs.split_first_mut().expect("jobs >= 1");
        for out in spawned {
            scope.spawn(move || *out = work());
        }
        *caller = work();
    });

    // Deterministic merge: contributions in query order, models per device.
    let mut answers: Vec<Option<Answer>> = vec![None; items.len()];
    let mut contributions: Vec<BatchContribution> = Vec::new();
    let mut trained: HashMap<DeviceId, ModelEntry> = HashMap::new();
    for output in outputs {
        for (idx, answer) in output.answers {
            answers[idx] = Some(answer);
        }
        contributions.extend(output.contributions);
        trained.extend(output.trained);
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
        trained,
    }
}

/// Claims device groups until none is left and answers each group's queries
/// (in query order) through the one locate path
/// ([`Engine::locate_detailed`]), with the model state in a worker-local map
/// and the cache state in the shared graph; collects answers, affinity
/// contributions, and freshly trained models (untouched seeds are not
/// reported back).
fn run_worker(
    engine: &Engine,
    store: &dyn EventRead,
    epochs: &dyn EpochRead,
    items: &[BatchItem],
    groups: &[DeviceGroup],
    next: &AtomicUsize,
    graph: &GlobalAffinityGraph,
) -> WorkerOutput {
    let models = ModelCache::default();
    let mut output = WorkerOutput::default();
    let mut trained: HashSet<DeviceId> = HashSet::new();
    // `Relaxed` suffices: the index publishes no data — `groups` is frozen
    // before the spawn, and the scope's join orders the outputs.
    while let Some(group) = groups.get(next.fetch_add(1, Ordering::Relaxed)) {
        let device = group.device;
        if let Some(seed) = &group.seed {
            relock(models.write()).insert(device, seed.clone());
        }
        for &idx in &group.indices {
            let item = &items[idx];
            let t_q = item.t;
            let plan = |neighbors: &[DeviceId]| graph.plan(device, neighbors, t_q, epochs);
            let (answer, diagnostics) =
                engine.locate_detailed(store, epochs, device, t_q, &item.eff, &models, &plan);
            output.answers.push((idx, answer));
            // A model-classified gap that reused no model trained one.
            if diagnostics.coarse.gap.is_some() && !diagnostics.coarse_model_reused {
                trained.insert(device);
            }
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
    output.trained = relock(models.into_inner());
    output.trained.retain(|device, _| trained.contains(device));
    output
}
