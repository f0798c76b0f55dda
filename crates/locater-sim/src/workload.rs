//! Query workload generators (paper §6.1 and §6.4).
//!
//! The evaluation uses two query sets:
//!
//! * the **university query set** — 5,008 queries about the individuals with ground
//!   truth (diary participants and camera-identified people), roughly the same number
//!   of queries per individual;
//! * the **generated query set** — 100k queries drawn uniformly over *all* devices in
//!   the dataset and the whole time span, used for the efficiency/scalability
//!   experiments.
//!
//! [`university_workload`] and [`generated_workload`] reproduce both against any
//! [`SimOutput`].

use crate::world::SimOutput;
use locater_events::clock::Timestamp;
use locater_events::SeededRng;

/// One location query of a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadQuery {
    /// Device identifier queried.
    pub mac: String,
    /// Query time.
    pub t: Timestamp,
}

/// A named list of queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryWorkload {
    /// Workload name ("university", "generated", …).
    pub name: String,
    /// The queries, in execution order.
    pub queries: Vec<WorkloadQuery>,
}

impl QueryWorkload {
    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// `true` if the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Shuffles the execution order (the paper randomizes query order per run).
    pub fn shuffled(mut self, seed: u64) -> Self {
        SeededRng::new(seed).shuffle(&mut self.queries);
        self
    }
}

/// Builds the university-style query set: `per_person` queries for every *monitored*
/// person, a fraction of them (`inside_fraction`) at times the person was inside a
/// room per the ground truth, the rest drawn uniformly over the dataset span (mostly
/// nights/weekends, i.e. outside).
pub fn university_workload(output: &SimOutput, per_person: usize, seed: u64) -> QueryWorkload {
    let mut rng = SeededRng::new(seed);
    let inside_fraction = 0.7;
    let span = output.span();
    let mut queries = Vec::new();
    for record in output.monitored() {
        let stays = output.ground_truth.stays_of(&record.mac);
        for _ in 0..per_person {
            let inside_pick = !stays.is_empty() && rng.unit_f64() < inside_fraction;
            let t = if inside_pick {
                let stay = &stays[rng.range(0..stays.len())];
                rng.range(stay.interval.start..stay.interval.end)
            } else if let Some(span) = span {
                rng.range(span.start..span.end)
            } else {
                0
            };
            queries.push(WorkloadQuery {
                mac: record.mac.clone(),
                t,
            });
        }
    }
    QueryWorkload {
        name: "university".to_string(),
        queries,
    }
}

/// Builds the generated query set: `n` queries over devices and times drawn uniformly
/// (devices uniformly over all simulated people, times uniformly over the span).
pub fn generated_workload(output: &SimOutput, n: usize, seed: u64) -> QueryWorkload {
    let mut rng = SeededRng::new(seed);
    let Some(span) = output.span() else {
        return QueryWorkload {
            name: "generated".to_string(),
            queries: Vec::new(),
        };
    };
    let people = &output.people;
    let queries = (0..n)
        .map(|_| WorkloadQuery {
            mac: people[rng.range(0..people.len())].mac.clone(),
            t: rng.range(span.start..span.end),
        })
        .collect();
    QueryWorkload {
        name: "generated".to_string(),
        queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campus::{generate, CampusConfig};

    fn output() -> SimOutput {
        generate(&CampusConfig::small().with_weeks(2))
    }

    #[test]
    fn university_workload_targets_monitored_people() {
        let output = output();
        let workload = university_workload(&output, 10, 3);
        assert_eq!(workload.name, "university");
        assert_eq!(
            workload.len(),
            output.monitored().count() * 10,
            "same number of queries per monitored individual"
        );
        let monitored: std::collections::HashSet<&str> =
            output.monitored().map(|r| r.mac.as_str()).collect();
        for query in &workload.queries {
            assert!(monitored.contains(query.mac.as_str()));
        }
        // A healthy share of queries lands inside ground-truth stays.
        let inside = workload
            .queries
            .iter()
            .filter(|q| output.ground_truth.is_inside(&q.mac, q.t))
            .count();
        assert!(inside as f64 / workload.len() as f64 > 0.4);
        assert!(!workload.is_empty());
    }

    #[test]
    fn generated_workload_spans_all_devices() {
        let output = output();
        let workload = generated_workload(&output, 500, 9);
        assert_eq!(workload.len(), 500);
        let span = output.span().unwrap();
        for query in &workload.queries {
            assert!(span.contains(query.t));
            assert!(output.person(&query.mac).is_some());
        }
        // More distinct devices than just the monitored panel.
        let distinct: std::collections::HashSet<&str> =
            workload.queries.iter().map(|q| q.mac.as_str()).collect();
        assert!(distinct.len() > output.monitored().count());
    }

    #[test]
    fn workloads_are_deterministic_per_seed() {
        let output = output();
        assert_eq!(
            university_workload(&output, 5, 42),
            university_workload(&output, 5, 42)
        );
        assert_ne!(
            generated_workload(&output, 50, 1),
            generated_workload(&output, 50, 2)
        );
    }

    #[test]
    fn shuffling_preserves_the_multiset_of_queries() {
        let output = output();
        let workload = generated_workload(&output, 100, 5);
        let shuffled = workload.clone().shuffled(11);
        assert_eq!(workload.len(), shuffled.len());
        let mut a: Vec<_> = workload.queries.clone();
        let mut b: Vec<_> = shuffled.queries.clone();
        a.sort_by(|x, y| x.mac.cmp(&y.mac).then(x.t.cmp(&y.t)));
        b.sort_by(|x, y| x.mac.cmp(&y.mac).then(x.t.cmp(&y.t)));
        assert_eq!(a, b);
        assert_ne!(workload.queries, shuffled.queries);
    }
}
