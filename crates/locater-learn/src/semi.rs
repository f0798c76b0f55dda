//! Semi-supervised self-training (paper §3, Algorithm 1).
//!
//! Starting from a heuristically labelled set `S_labeled` and an unlabelled set
//! `S_unlabeled`, the algorithm repeatedly:
//!
//! 1. trains a logistic-regression classifier on `S_labeled`;
//! 2. predicts a label and a confidence (variance of the class-probability array) for
//!    every element of `S_unlabeled`;
//! 3. moves the most confidently predicted element(s) into `S_labeled` with the
//!    predicted label;
//!
//! until `S_unlabeled` is empty, and returns the classifier trained in the last round.
//!
//! The paper promotes exactly one gap per round; with thousands of gaps that costs a
//! full retraining per gap, so each round promotes the 20 most confident samples
//! instead: query latency stays practical on large histories without moving the
//! fixed point much.

use crate::dataset::Dataset;
use crate::error::LearnError;
use crate::logistic::{LogisticRegression, Prediction};

/// Number of unlabelled samples promoted per round (paper: 1).
const PROMOTE_PER_ROUND: usize = 20;

/// Configuration of the self-training loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelfTrainingConfig {
    /// Safety bound on the number of rounds (the loop otherwise ends when the
    /// unlabelled pool is exhausted). Default: 400.
    pub max_rounds: usize,
}

impl Default for SelfTrainingConfig {
    fn default() -> Self {
        Self { max_rounds: 400 }
    }
}

/// The classifier produced by Algorithm 1.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTrainingClassifier {
    model: LogisticRegression,
}

impl SelfTrainingClassifier {
    /// Runs Algorithm 1.
    ///
    /// `labeled` is `S_labeled`; `unlabeled` are the feature vectors of `S_unlabeled`
    /// (same dimensionality). Returns an error if `labeled` is empty or an
    /// unlabelled row's length differs from `labeled.num_features()`.
    pub fn train(
        labeled: &Dataset,
        unlabeled: &[Vec<f64>],
        config: &SelfTrainingConfig,
    ) -> Result<Self, LearnError> {
        if labeled.is_empty() {
            return Err(LearnError::EmptyDataset);
        }
        let expected = labeled.num_features();
        if let Some(row) = unlabeled.iter().find(|row| row.len() != expected) {
            return Err(LearnError::DimensionMismatch {
                expected,
                got: row.len(),
            });
        }
        let mut working = labeled.clone();
        // Original indices of the samples still unlabelled.
        let mut pool: Vec<usize> = (0..unlabeled.len()).collect();
        let mut model = LogisticRegression::fit(&working)?;
        let mut rounds = 0usize;
        let mut scaled = vec![0.0; labeled.num_features()];
        let mut prediction = Prediction {
            label: 0,
            probabilities: vec![0.0; labeled.num_classes()],
        };

        while !pool.is_empty() && rounds < config.max_rounds {
            rounds += 1;
            // Score every unlabelled sample with the current model.
            let mut scored: Vec<(usize, f64, usize)> = pool
                .iter()
                .enumerate()
                .map(|(pool_idx, &original_idx)| {
                    model.predict_into(&unlabeled[original_idx], &mut scaled, &mut prediction);
                    (pool_idx, prediction.variance(), prediction.label)
                })
                .collect();
            // Highest confidence (variance) first; the sort is stable, so ties
            // promote in pool order.
            scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            let take = PROMOTE_PER_ROUND.min(scored.len());
            // Remove promoted items from the pool in descending pool-index order so the
            // indices stay valid while swapping out.
            let mut chosen: Vec<(usize, usize)> = scored[..take]
                .iter()
                .map(|&(pool_idx, _, label)| (pool_idx, label))
                .collect();
            chosen.sort_by_key(|&(pool_idx, _)| std::cmp::Reverse(pool_idx));
            for (pool_idx, label) in chosen {
                let original_idx = pool.swap_remove(pool_idx);
                working.push_row(&unlabeled[original_idx], label);
            }
            model = LogisticRegression::fit(&working)?;
        }
        Ok(Self { model })
    }

    /// The classifier trained in the final round.
    pub fn into_model(self) -> LogisticRegression {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logistic::tests::{fit_reference, gap_shaped, parameter_bits};

    /// Two well-separated clusters; only a few points are labelled, `pairs`
    /// unlabelled points lie in each cluster.
    fn clustered_problem(pairs: usize) -> (Dataset, Vec<Vec<f64>>, Vec<usize>) {
        let mut labeled = Dataset::new(2, 2);
        labeled.push(vec![0.0, 0.0], 0);
        labeled.push(vec![0.2, 0.1], 0);
        labeled.push(vec![5.0, 5.0], 1);
        labeled.push(vec![5.2, 4.9], 1);
        let mut unlabeled = Vec::new();
        let mut truth = Vec::new();
        for i in 0..pairs {
            let jitter = (i % 5) as f64 * 0.05;
            unlabeled.push(vec![0.1 + jitter, 0.2 + jitter]);
            truth.push(0);
            unlabeled.push(vec![4.9 - jitter, 5.1 - jitter]);
            truth.push(1);
        }
        (labeled, unlabeled, truth)
    }

    /// A run of [`train_reference`]: its final model, the label it assigned to
    /// each initially unlabelled sample (`None` for one `max_rounds` ended the
    /// loop before promoting), and its round count.
    struct Reference {
        model: LogisticRegression,
        assigned: Vec<Option<usize>>,
        rounds: usize,
    }

    impl Reference {
        fn promoted(&self) -> usize {
            self.assigned.iter().flatten().count()
        }
    }

    /// Algorithm 1 on the reference fit: every round re-scores the whole pool
    /// with a fresh [`LogisticRegression::predict`], stable-sorts it by
    /// variance, highest first, and promotes the first 20 with their predicted
    /// labels. The promoted rows join the labelled set in descending pool
    /// position, each leaving the pool by a swap-remove: that order fixes the
    /// order of the next fit's gradient sums, so it is part of the contract.
    fn train_reference(labeled: &Dataset, unlabeled: &[Vec<f64>], max_rounds: usize) -> Reference {
        let mut working = labeled.clone();
        let mut pool: Vec<usize> = (0..unlabeled.len()).collect();
        let mut assigned = vec![None; unlabeled.len()];
        let mut model = fit_reference(&working).0;
        let mut rounds = 0;
        while !pool.is_empty() && rounds < max_rounds {
            rounds += 1;
            let mut scored: Vec<(usize, f64, usize)> = pool
                .iter()
                .enumerate()
                .map(|(at, &sample)| {
                    let prediction = model.predict(&unlabeled[sample]);
                    (at, prediction.variance(), prediction.label)
                })
                .collect();
            scored.sort_by(|a, b| b.1.total_cmp(&a.1));
            scored.truncate(20);
            scored.sort_by_key(|&(at, _, _)| std::cmp::Reverse(at));
            for (at, _, label) in scored {
                let sample = pool.swap_remove(at);
                assigned[sample] = Some(label);
                working.push_row(&unlabeled[sample], label);
            }
            model = fit_reference(&working).0;
        }
        Reference {
            model,
            assigned,
            rounds,
        }
    }

    /// Runs production's Algorithm 1 and the reference on one problem,
    /// checks that their final models are equal bit for bit, and returns the
    /// reference run, whose labels and rounds production no longer keeps.
    fn train_checked(labeled: &Dataset, unlabeled: &[Vec<f64>], max_rounds: usize) -> Reference {
        let config = SelfTrainingConfig { max_rounds };
        let model = SelfTrainingClassifier::train(labeled, unlabeled, &config)
            .unwrap()
            .into_model();
        let reference = train_reference(labeled, unlabeled, max_rounds);
        assert_eq!(
            parameter_bits(&model),
            parameter_bits(&reference.model),
            "{} unlabelled, max_rounds {max_rounds}",
            unlabeled.len()
        );
        reference
    }

    #[test]
    fn self_training_labels_clusters_correctly() {
        let (labeled, unlabeled, truth) = clustered_problem(20);
        let run = train_checked(
            &labeled,
            &unlabeled,
            SelfTrainingConfig::default().max_rounds,
        );
        let correct = run
            .assigned
            .iter()
            .zip(&truth)
            .filter(|(a, b)| **a == Some(**b))
            .count();
        assert!(correct as f64 / truth.len() as f64 > 0.95);
        assert_eq!(run.promoted(), unlabeled.len());
        // PROMOTE_PER_ROUND promotions per round.
        assert_eq!(run.rounds, unlabeled.len().div_ceil(PROMOTE_PER_ROUND));
    }

    #[test]
    fn batched_promotion_takes_fewer_rounds() {
        // 50 samples: two full rounds, then one of the 10 left.
        let (labeled, unlabeled, _) = clustered_problem(25);
        let run = train_checked(
            &labeled,
            &unlabeled,
            SelfTrainingConfig::default().max_rounds,
        );
        assert_eq!(run.rounds, 3);
        assert_eq!(run.promoted(), unlabeled.len());
    }

    #[test]
    fn no_unlabeled_data_still_trains_a_model() {
        let (labeled, _, _) = clustered_problem(20);
        let run = train_checked(&labeled, &[], SelfTrainingConfig::default().max_rounds);
        assert_eq!(run.rounds, 0);
        let model = SelfTrainingClassifier::train(&labeled, &[], &SelfTrainingConfig::default())
            .unwrap()
            .into_model();
        assert_eq!(model.predict(&[0.0, 0.1]).label, 0);
        assert_eq!(model.predict(&[5.0, 5.0]).label, 1);
    }

    #[test]
    fn empty_labeled_set_is_an_error() {
        let err = SelfTrainingClassifier::train(
            &Dataset::new(2, 2),
            &[vec![1.0, 2.0]],
            &SelfTrainingConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, LearnError::EmptyDataset);
    }

    #[test]
    fn ragged_unlabeled_row_is_a_dimension_mismatch() {
        let (labeled, mut unlabeled, _) = clustered_problem(20);
        unlabeled.insert(7, vec![1.0, 2.0, 3.0]);
        let err =
            SelfTrainingClassifier::train(&labeled, &unlabeled, &SelfTrainingConfig::default())
                .unwrap_err();
        assert_eq!(
            err,
            LearnError::DimensionMismatch {
                expected: 2,
                got: 3
            }
        );
    }

    #[test]
    fn max_rounds_bounds_the_loop() {
        let (labeled, unlabeled, _) = clustered_problem(50);
        let run = train_checked(&labeled, &unlabeled, 3);
        assert_eq!(run.rounds, 3);
        assert_eq!(run.promoted(), 3 * PROMOTE_PER_ROUND);
    }

    #[test]
    fn samples_never_promoted_carry_no_label() {
        let (labeled, _, _) = clustered_problem(0);
        // Twenty samples deep inside cluster 0 between two on the boundary
        // between the clusters: one round takes the twenty and must leave the
        // two unassigned — not reported as class 0.
        let boundary = vec![2.6, 2.5];
        let mut unlabeled = vec![boundary.clone()];
        unlabeled.extend((0..PROMOTE_PER_ROUND).map(|i| vec![-3.0 - i as f64 * 0.1, -3.0]));
        unlabeled.push(boundary);
        let run = train_checked(&labeled, &unlabeled, 1);
        assert_eq!(run.promoted(), PROMOTE_PER_ROUND);
        let assigned = &run.assigned;
        assert_eq!((assigned[0], assigned[unlabeled.len() - 1]), (None, None));
        assert!(assigned[1..unlabeled.len() - 1]
            .iter()
            .all(|&label| label == Some(0)));
    }

    /// Production's self-training equals the reference bit for bit on
    /// gap-shaped binary problems: one that empties its pool in three rounds
    /// and one that `max_rounds` stops with 50 samples left.
    #[test]
    fn self_training_matches_the_reference_algorithm_bit_for_bit() {
        for (pool, max_rounds, rounds) in [(50, 400, 3), (90, 2, 2)] {
            let labeled = gap_shaped(2, 30, 17);
            let unlabeled: Vec<Vec<f64>> = gap_shaped(2, pool, 29)
                .iter()
                .map(|(row, _)| row.to_vec())
                .collect();
            let run = train_checked(&labeled, &unlabeled, max_rounds);
            let case = format!("{pool} unlabelled, max_rounds {max_rounds}");
            assert_eq!(run.rounds, rounds, "{case}");
            assert_eq!(
                run.promoted(),
                pool.min(rounds * PROMOTE_PER_ROUND),
                "{case}"
            );
            assert!(
                run.assigned.contains(&Some(0)) && run.assigned.contains(&Some(1)),
                "{case}"
            );
        }
    }
}
