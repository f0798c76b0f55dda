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
//! 2. queries are grouped **by device** — a device's queries are processed by
//!    one worker in query order, so its lazily trained coarse model evolves
//!    exactly as in the sequential path (worker-local model maps are seeded
//!    from the live model cache, which is also per-device; a seed is the
//!    live entry's `Arc`, so classifiers a worker fits on it are fitted for
//!    the live cache too);
//! 3. the worker-local affinity contributions are handed back in ascending
//!    query order (`BatchOutcome::contributions`) and the caller applies
//!    them to the graph only after all workers join and it has dropped its
//!    read guard.
//!
//! Device → worker assignment balances per-device query counts greedily, so
//! skewed workloads still spread across the pool.

use super::engine::{relock, Effective, Engine, ModelCache};
use super::epoch::{EpochRead, ModelEntry};
use super::{Answer, CacheMode};
use crate::cache::GlobalAffinityGraph;
use crate::error::LocaterError;
use crate::fine::NeighborContribution;
use locater_events::clock::Timestamp;
use locater_events::DeviceId;
use locater_store::EventRead;
use std::collections::{HashMap, HashSet};

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

/// Answers a batch of resolved items across `jobs` worker threads.
/// Unresolvable items error in place and never reach a worker.
///
/// `seeds` are the per-device coarse models cached at batch start, taken by
/// value: each device lands in exactly one worker, so every seed moves into
/// its worker's map without another clone. `graph` is the global affinity
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
    if items.is_empty() {
        return BatchOutcome {
            answers: Vec::new(),
            contributions: Vec::new(),
            trained: HashMap::new(),
        };
    }

    // Deterministic device → worker assignment: devices ordered by decreasing
    // query count (ties by device id) go to the least-loaded worker (ties by
    // worker index). A worker is a real thread, so the job count is capped by
    // the distinct-device count — extra workers could only ever be empty.
    let mut query_counts: HashMap<DeviceId, usize> = HashMap::new();
    for item in items {
        if let Ok(device) = item.device {
            *query_counts.entry(device).or_insert(0) += 1;
        }
    }
    let jobs = jobs.clamp(1, items.len()).min(query_counts.len().max(1));
    let mut devices: Vec<(DeviceId, usize)> = query_counts.into_iter().collect();
    devices.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let mut load = vec![0usize; jobs];
    let mut worker_of: HashMap<DeviceId, usize> = HashMap::new();
    for (device, count) in devices {
        let worker = (0..jobs).min_by_key(|&i| (load[i], i)).expect("jobs >= 1");
        load[worker] += count;
        worker_of.insert(device, worker);
    }
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); jobs];
    for (idx, item) in items.iter().enumerate() {
        if let Ok(device) = item.device {
            groups[worker_of[&device]].push(idx);
        }
    }

    // Worker-local model maps seeded from the live cache: per-device state
    // crosses into exactly one worker (so seeds move, never clone),
    // preserving sequential semantics.
    let seeded: Vec<HashMap<DeviceId, ModelEntry>> = groups
        .iter()
        .map(|indices| {
            indices
                .iter()
                .filter_map(|&idx| {
                    let device = *items[idx].device.as_ref().ok()?;
                    Some((device, seeds.remove(&device)?))
                })
                .collect()
        })
        .collect();

    // Parallel phase: all workers answer against the same graph, whose epoch
    // stamps keep stale edges invisible inside the batch too. The scope joins
    // every worker and re-raises a worker's panic on this thread.
    let mut outputs: Vec<WorkerOutput> = Vec::new();
    outputs.resize_with(jobs, WorkerOutput::default);
    std::thread::scope(|scope| {
        for ((indices, seed), out) in groups.iter().zip(seeded).zip(outputs.iter_mut()) {
            if indices.is_empty() {
                continue;
            }
            scope.spawn(move || {
                *out = run_worker(engine, store, epochs, items, indices, seed, graph);
            });
        }
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

/// Answers one worker's queries (in query order) through the one locate path
/// ([`Engine::locate_detailed`]), with the model state in a worker-local map
/// and the cache state in the shared graph; collects answers, affinity
/// contributions, and freshly trained models (untouched seeds are not
/// reported back).
fn run_worker(
    engine: &Engine,
    store: &dyn EventRead,
    epochs: &dyn EpochRead,
    items: &[BatchItem],
    indices: &[usize],
    seed: HashMap<DeviceId, ModelEntry>,
    graph: &GlobalAffinityGraph,
) -> WorkerOutput {
    let models = ModelCache::new(seed);
    let mut output = WorkerOutput::default();
    let mut trained: HashSet<DeviceId> = HashSet::new();
    for &idx in indices {
        let item = &items[idx];
        let Ok(device) = item.device else { continue };
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
    output.trained = relock(models.into_inner());
    output.trained.retain(|device, _| trained.contains(device));
    output
}
