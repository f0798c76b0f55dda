//! Classifier evaluation metrics.

use serde::{Deserialize, Serialize};

/// A confusion matrix over `n` classes: `counts[truth][predicted]`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    num_classes: usize,
    counts: Vec<u64>,
}

impl ConfusionMatrix {
    /// Creates an empty matrix for `num_classes` classes.
    pub fn new(num_classes: usize) -> Self {
        Self {
            num_classes,
            counts: vec![0; num_classes * num_classes],
        }
    }

    /// Records one observation.
    pub fn record(&mut self, truth: usize, predicted: usize) {
        self.counts[truth * self.num_classes + predicted] += 1;
    }

    /// Number of observations with `truth` and `predicted`.
    pub fn count(&self, truth: usize, predicted: usize) -> u64 {
        self.counts[truth * self.num_classes + predicted]
    }

    /// Total number of observations recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of observations on the diagonal.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let correct: u64 = (0..self.num_classes).map(|c| self.count(c, c)).sum();
        correct as f64 / total as f64
    }

    /// Precision of one class: `TP / (TP + FP)`. Returns 0 when the class was never
    /// predicted.
    pub fn precision(&self, class: usize) -> f64 {
        let tp = self.count(class, class);
        let predicted: u64 = (0..self.num_classes).map(|t| self.count(t, class)).sum();
        if predicted == 0 {
            0.0
        } else {
            tp as f64 / predicted as f64
        }
    }
}

/// Plain accuracy of a sequence of `(truth, predicted)` pairs.
pub fn accuracy(pairs: &[(usize, usize)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    pairs.iter().filter(|(t, p)| t == p).count() as f64 / pairs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_matrix_counts_and_accuracy() {
        let mut m = ConfusionMatrix::new(2);
        m.record(0, 0);
        m.record(0, 0);
        m.record(0, 1);
        m.record(1, 1);
        assert_eq!(m.total(), 4);
        assert_eq!(m.count(0, 0), 2);
        assert_eq!(m.count(0, 1), 1);
        assert!((m.accuracy() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn precision_recall_f1() {
        let mut m = ConfusionMatrix::new(2);
        // class 1: TP=3, FP=1, FN=2
        for _ in 0..3 {
            m.record(1, 1);
        }
        m.record(0, 1);
        for _ in 0..2 {
            m.record(1, 0);
        }
        for _ in 0..4 {
            m.record(0, 0);
        }
        assert!((m.precision(1) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cases_return_zero() {
        let m = ConfusionMatrix::new(3);
        assert_eq!(m.accuracy(), 0.0);
        assert_eq!(m.precision(0), 0.0);
        assert_eq!(accuracy(&[]), 0.0);
    }

    #[test]
    fn plain_accuracy() {
        assert!((accuracy(&[(0, 0), (1, 1), (1, 0), (2, 2)]) - 0.75).abs() < 1e-12);
    }
}
