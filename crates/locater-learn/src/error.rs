//! Error type for the learning substrate.

use std::fmt;

/// Errors produced while assembling datasets or training models.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LearnError {
    /// The dataset is empty.
    EmptyDataset,
    /// A feature vector had the wrong dimensionality.
    DimensionMismatch {
        /// Expected number of features.
        expected: usize,
        /// Number of features actually provided.
        got: usize,
    },
    /// A label was outside `0..num_classes`.
    InvalidLabel {
        /// The offending label.
        label: usize,
        /// Number of classes of the dataset.
        num_classes: usize,
    },
    /// Training diverged (a non-finite class probability), typically caused by
    /// non-finite features.
    Diverged,
}

impl fmt::Display for LearnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LearnError::EmptyDataset => write!(f, "cannot train on an empty dataset"),
            LearnError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "feature dimension mismatch: expected {expected}, got {got}"
                )
            }
            LearnError::InvalidLabel { label, num_classes } => {
                write!(f, "label {label} out of range for {num_classes} classes")
            }
            LearnError::Diverged => write!(f, "training diverged (non-finite probability)"),
        }
    }
}

impl std::error::Error for LearnError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_details() {
        let e = LearnError::DimensionMismatch {
            expected: 3,
            got: 5,
        };
        assert!(e.to_string().contains('3'));
        assert!(e.to_string().contains('5'));
        let e = LearnError::InvalidLabel {
            label: 9,
            num_classes: 4,
        };
        assert!(e.to_string().contains('9'));
        assert!(LearnError::EmptyDataset.to_string().contains("empty"));
        assert!(LearnError::Diverged.to_string().contains("diverged"));
    }
}
