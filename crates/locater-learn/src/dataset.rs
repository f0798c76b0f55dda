//! Dense labelled datasets.

use crate::error::LearnError;

/// A dense labelled dataset: `n` rows of `num_features` `f64` features and one class
/// label in `0..num_classes` per row.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    num_features: usize,
    num_classes: usize,
    features: Vec<f64>,
    labels: Vec<usize>,
}

impl Dataset {
    /// Creates an empty dataset for `num_features` features and `num_classes` classes.
    pub fn new(num_features: usize, num_classes: usize) -> Self {
        Self {
            num_features,
            num_classes: num_classes.max(2),
            features: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` if the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of features per row.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Appends an owned row; see [`Dataset::push_row`].
    pub fn push(&mut self, features: Vec<f64>, label: usize) {
        self.push_row(&features, label);
    }

    /// Appends a row (the data set copies it into its flat buffer). Panics on a
    /// dimension or label mismatch.
    pub fn push_row(&mut self, features: &[f64], label: usize) {
        self.try_push(features, label).expect("invalid row");
    }

    /// Appends a row, validating dimensionality and label range.
    pub(crate) fn try_push(&mut self, features: &[f64], label: usize) -> Result<(), LearnError> {
        if features.len() != self.num_features {
            return Err(LearnError::DimensionMismatch {
                expected: self.num_features,
                got: features.len(),
            });
        }
        if label >= self.num_classes {
            return Err(LearnError::InvalidLabel {
                label,
                num_classes: self.num_classes,
            });
        }
        self.features.extend_from_slice(features);
        self.labels.push(label);
        Ok(())
    }

    /// The feature row at `index`.
    pub fn row(&self, index: usize) -> &[f64] {
        let start = index * self.num_features;
        &self.features[start..start + self.num_features]
    }

    /// The label of row `index`.
    pub fn label(&self, index: usize) -> usize {
        self.labels[index]
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Iterates over `(row, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], usize)> + '_ {
        (0..self.len()).map(move |i| (self.row(i), self.label(i)))
    }

    /// Number of rows per class.
    pub(crate) fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes];
        for &label in &self.labels {
            counts[label] += 1;
        }
        counts
    }

    /// `true` if at least two distinct classes appear in the data.
    pub fn has_multiple_classes(&self) -> bool {
        self.class_counts().iter().filter(|&&c| c > 0).count() >= 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_access_rows() {
        let mut d = Dataset::new(2, 3);
        d.push(vec![1.0, 2.0], 0);
        d.push(vec![3.0, 4.0], 2);
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
        assert_eq!(d.row(0), &[1.0, 2.0]);
        assert_eq!(d.row(1), &[3.0, 4.0]);
        assert_eq!(d.label(1), 2);
        assert_eq!(d.labels(), &[0, 2]);
        assert_eq!(d.num_features(), 2);
        assert_eq!(d.num_classes(), 3);
    }

    #[test]
    fn try_push_validates_dimensions_and_labels() {
        let mut d = Dataset::new(2, 2);
        assert!(matches!(
            d.try_push(&[1.0], 0),
            Err(LearnError::DimensionMismatch {
                expected: 2,
                got: 1
            })
        ));
        assert!(matches!(
            d.try_push(&[1.0, 2.0], 5),
            Err(LearnError::InvalidLabel {
                label: 5,
                num_classes: 2
            })
        ));
        assert!(d.try_push(&[1.0, 2.0], 1).is_ok());
    }

    #[test]
    fn class_counts_and_multiplicity() {
        let mut d = Dataset::new(1, 3);
        d.push(vec![0.0], 0);
        d.push(vec![1.0], 0);
        d.push(vec![2.0], 2);
        assert_eq!(d.class_counts(), vec![2, 0, 1]);
        assert!(d.has_multiple_classes());

        let mut single = Dataset::new(1, 2);
        single.push(vec![0.0], 1);
        assert!(!single.has_multiple_classes());
    }

    #[test]
    fn minimum_two_classes_enforced() {
        let d = Dataset::new(3, 0);
        assert_eq!(d.num_classes(), 2);
    }

    #[test]
    fn iter_yields_rows_in_order() {
        let mut d = Dataset::new(1, 2);
        d.push(vec![5.0], 1);
        d.push(vec![6.0], 0);
        let collected: Vec<(f64, usize)> = d.iter().map(|(r, l)| (r[0], l)).collect();
        assert_eq!(collected, vec![(5.0, 1), (6.0, 0)]);
    }
}
