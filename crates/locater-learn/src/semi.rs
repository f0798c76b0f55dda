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
//! full retraining per gap, so [`SelfTrainingConfig::promote_per_round`] makes the
//! batch size configurable (1 reproduces the paper exactly and is the default).

use crate::dataset::Dataset;
use crate::error::LearnError;
use crate::logistic::{LogisticRegression, Prediction, TrainConfig};
use serde::{Deserialize, Serialize};

/// Configuration of the self-training loop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SelfTrainingConfig {
    /// Training hyper-parameters used in every round.
    pub train: TrainConfig,
    /// Number of unlabelled samples promoted per round (paper: 1).
    pub promote_per_round: usize,
    /// Safety bound on the number of rounds (the loop otherwise ends when the
    /// unlabelled pool is exhausted).
    pub max_rounds: usize,
}

impl Default for SelfTrainingConfig {
    fn default() -> Self {
        Self {
            train: TrainConfig::default(),
            promote_per_round: 1,
            max_rounds: 10_000,
        }
    }
}

/// Summary of a finished self-training run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SelfTrainingReport {
    /// Number of training rounds executed.
    pub rounds: usize,
    /// Number of samples that started labelled.
    pub initially_labeled: usize,
    /// Number of unlabelled samples promoted by the loop.
    pub promoted: usize,
}

/// The classifier produced by Algorithm 1, together with the labels it assigned to the
/// initially unlabelled samples.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTrainingClassifier {
    model: LogisticRegression,
    assigned_labels: Vec<Option<usize>>,
    report: SelfTrainingReport,
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
        let mut assigned_labels = vec![None; unlabeled.len()];
        let mut model = LogisticRegression::fit(&working, &config.train)?;
        let mut rounds = 0usize;
        let promote = config.promote_per_round.max(1);
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
            let take = promote.min(scored.len());
            // Remove promoted items from the pool in descending pool-index order so the
            // indices stay valid while swapping out.
            let mut chosen: Vec<(usize, usize)> = scored[..take]
                .iter()
                .map(|&(pool_idx, _, label)| (pool_idx, label))
                .collect();
            chosen.sort_by_key(|&(pool_idx, _)| std::cmp::Reverse(pool_idx));
            for (pool_idx, label) in chosen {
                let original_idx = pool.swap_remove(pool_idx);
                assigned_labels[original_idx] = Some(label);
                working.push_row(&unlabeled[original_idx], label);
            }
            model = LogisticRegression::fit(&working, &config.train)?;
        }

        let promoted = unlabeled.len() - pool.len();
        Ok(Self {
            model,
            assigned_labels,
            report: SelfTrainingReport {
                rounds,
                initially_labeled: labeled.len(),
                promoted,
            },
        })
    }

    /// The classifier trained in the final round.
    pub fn model(&self) -> &LogisticRegression {
        &self.model
    }

    /// Labels assigned to the initially unlabelled samples, in their original order;
    /// `None` for a sample `max_rounds` ended the loop before promoting.
    pub fn assigned_labels(&self) -> &[Option<usize>] {
        &self.assigned_labels
    }

    /// Run statistics.
    pub fn report(&self) -> &SelfTrainingReport {
        &self.report
    }

    /// Convenience: predicts the class of a new feature vector with the final model.
    pub fn predict(&self, features: &[f64]) -> usize {
        self.model.predict(features).label
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated clusters; only a few points are labelled.
    fn clustered_problem() -> (Dataset, Vec<Vec<f64>>, Vec<usize>) {
        let mut labeled = Dataset::new(2, 2);
        labeled.push(vec![0.0, 0.0], 0);
        labeled.push(vec![0.2, 0.1], 0);
        labeled.push(vec![5.0, 5.0], 1);
        labeled.push(vec![5.2, 4.9], 1);
        let mut unlabeled = Vec::new();
        let mut truth = Vec::new();
        for i in 0..20 {
            let jitter = (i % 5) as f64 * 0.05;
            unlabeled.push(vec![0.1 + jitter, 0.2 + jitter]);
            truth.push(0);
            unlabeled.push(vec![4.9 - jitter, 5.1 - jitter]);
            truth.push(1);
        }
        (labeled, unlabeled, truth)
    }

    #[test]
    fn self_training_labels_clusters_correctly() {
        let (labeled, unlabeled, truth) = clustered_problem();
        let clf =
            SelfTrainingClassifier::train(&labeled, &unlabeled, &SelfTrainingConfig::default())
                .unwrap();
        let correct = clf
            .assigned_labels()
            .iter()
            .zip(&truth)
            .filter(|(a, b)| **a == Some(**b))
            .count();
        assert!(correct as f64 / truth.len() as f64 > 0.95);
        assert_eq!(clf.report().initially_labeled, 4);
        assert_eq!(clf.report().promoted, unlabeled.len());
        assert_eq!(clf.report().rounds, unlabeled.len()); // one promotion per round
    }

    #[test]
    fn batched_promotion_takes_fewer_rounds() {
        let (labeled, unlabeled, _) = clustered_problem();
        let config = SelfTrainingConfig {
            promote_per_round: 8,
            ..SelfTrainingConfig::default()
        };
        let clf = SelfTrainingClassifier::train(&labeled, &unlabeled, &config).unwrap();
        assert!(clf.report().rounds <= unlabeled.len() / 8 + 1);
        assert_eq!(clf.report().promoted, unlabeled.len());
    }

    #[test]
    fn no_unlabeled_data_still_trains_a_model() {
        let (labeled, _, _) = clustered_problem();
        let clf =
            SelfTrainingClassifier::train(&labeled, &[], &SelfTrainingConfig::default()).unwrap();
        assert_eq!(clf.report().rounds, 0);
        assert_eq!(clf.report().promoted, 0);
        assert_eq!(clf.predict(&[0.0, 0.1]), 0);
        assert_eq!(clf.predict(&[5.0, 5.0]), 1);
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
        let (labeled, mut unlabeled, _) = clustered_problem();
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
        let (labeled, unlabeled, _) = clustered_problem();
        let config = SelfTrainingConfig {
            max_rounds: 3,
            ..SelfTrainingConfig::default()
        };
        let clf = SelfTrainingClassifier::train(&labeled, &unlabeled, &config).unwrap();
        assert_eq!(clf.report().rounds, 3);
        assert_eq!(clf.report().promoted, 3);
    }

    #[test]
    fn samples_never_promoted_carry_no_label() {
        let (labeled, _, _) = clustered_problem();
        // The middle sample sits deepest inside cluster 0, so one round of one
        // promotion takes it and must leave the other two unassigned — not
        // reported as class 0.
        let unlabeled = vec![vec![4.0, 4.0], vec![-3.0, -3.0], vec![4.5, 4.4]];
        let config = SelfTrainingConfig {
            max_rounds: 1,
            promote_per_round: 1,
            ..SelfTrainingConfig::default()
        };
        let clf = SelfTrainingClassifier::train(&labeled, &unlabeled, &config).unwrap();
        assert_eq!(clf.report().promoted, 1);
        assert_eq!(clf.assigned_labels(), &[None, Some(0), None]);
    }
}
