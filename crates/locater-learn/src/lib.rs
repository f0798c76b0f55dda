//! # locater-learn
//!
//! The learning substrate used by LOCATER's coarse-grained localization (paper §3).
//!
//! The paper trains, per device, two **logistic regression** classifiers over gap
//! feature vectors — one that decides whether the device is *inside or outside* the
//! building during a gap, one that decides *which region* it is in when inside — and
//! grows their training sets with a **semi-supervised self-training loop**
//! (Algorithm 1): starting from heuristically (bootstrap) labelled gaps, the
//! classifier is retrained repeatedly, each round promoting the unlabeled gap it is
//! most confident about (confidence = variance of the predicted class-probability
//! array) into the labelled set.
//!
//! This crate provides exactly that machinery, with no external ML dependency:
//!
//! * [`Dataset`] — dense `f64` feature matrix plus integer class labels.
//! * [`StandardScaler`] — per-feature standardization fitted on the training set.
//! * [`LogisticRegression`] — multinomial (softmax) logistic regression trained by
//!   batch gradient descent with L2 regularization; binary classification is the
//!   two-class special case.
//! * [`SelfTrainingClassifier`] — Algorithm 1, generic over the number of classes,
//!   promoting a fixed batch of samples per round for large datasets.
//!
//! ```
//! use locater_learn::{Dataset, LogisticRegression};
//!
//! // A linearly separable toy problem: class = (x0 + x1 > 1.0).
//! let mut data = Dataset::new(2, 2);
//! for i in 0..40 {
//!     let x0 = (i % 10) as f64 / 10.0;
//!     let x1 = (i / 10) as f64 / 4.0;
//!     data.push(vec![x0, x1], if x0 + x1 > 1.0 { 1 } else { 0 });
//! }
//! let model = LogisticRegression::fit(&data).unwrap();
//! assert_eq!(model.predict(&[0.9, 0.9]).label, 1);
//! assert_eq!(model.predict(&[0.1, 0.1]).label, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
mod error;
mod logistic;
mod scaler;
mod semi;

pub use dataset::Dataset;
pub use error::LearnError;
pub use logistic::{LogisticRegression, Prediction};
pub use scaler::StandardScaler;
pub use semi::{SelfTrainingClassifier, SelfTrainingConfig};
