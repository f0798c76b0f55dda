//! Multinomial (softmax) logistic regression trained by batch gradient descent.
//!
//! The paper's coarse-grained localization trains logistic-regression classifiers over
//! gap feature vectors (§3). We implement the multinomial form; the inside/outside
//! classifier is simply the two-class case. No external linear-algebra dependency is
//! used.
//!
//! Every fit runs exactly 80 full-batch epochs. There is no early stop on the loss, so
//! no loss is computed: a stop at a 10⁻⁷ change of the mean loss fired in none of the
//! 16,745 fits of one seed-1 run of each benchmark workload, and the `ln` per row that
//! the loss needs was about a quarter of a row-epoch.
//!
//! Nearly every fit LOCATER makes has one small shape: 8 gap features, with two classes
//! for the inside/outside classifier and a few for a region one. [`LogisticRegression::fit`]
//! picks the epoch's pass once per call from the data set's shape. For 8 features and 2
//! to 6 classes it runs a kernel on compile-time shapes — `[f64; 8]` rows and
//! `[[f64; 8]; NC]` weights — whose loops the compiler unrolls without bounds checks.
//! That kernel takes the rows two at a time: it computes both rows' logits and softmax,
//! whose two independent chains overlap, before it adds either row's gradient. Every
//! other shape (about 1 % of the fits on the repo benchmark) takes the plain
//! row-at-a-time loop on runtime slices. In both, every row sums its features in order
//! starting from `-0.0`, the gradients are added row by row in row order, and a row
//! whose label probability is not finite stops the fit with `Diverged`. They share the
//! softmax and the epoch loop with its L2 update. So the parameters are bit-identical
//! whichever path fitted them, and bit-identical to the naive loop the tests keep as
//! the oracle. The inner loops allocate nothing.

use crate::dataset::Dataset;
use crate::error::LearnError;
use crate::scaler::StandardScaler;

/// Gradient-descent step size.
const LEARNING_RATE: f64 = 0.1;
/// Number of full-batch epochs every fit runs.
const EPOCHS: usize = 80;
/// L2 regularization strength.
const L2: f64 = 1e-3;

/// Result of classifying one feature vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// The most probable class.
    pub label: usize,
    /// Class probabilities (sum to 1).
    pub probabilities: Vec<f64>,
}

impl Prediction {
    /// Probability of the predicted class.
    pub fn confidence(&self) -> f64 {
        self.probabilities[self.label]
    }

    /// Variance of the probability array. The paper's Algorithm 1 uses this as the
    /// prediction-confidence score for self-training: a peaked distribution (high
    /// variance) means the classifier is sure of its label.
    pub fn variance(&self) -> f64 {
        let n = self.probabilities.len() as f64;
        let mean = 1.0 / n;
        self.probabilities
            .iter()
            .map(|p| (p - mean).powi(2))
            .sum::<f64>()
            / n
    }
}

/// A trained multinomial logistic regression model.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticRegression {
    num_features: usize,
    num_classes: usize,
    /// Row-major `[num_classes × num_features]` weight matrix.
    weights: Vec<f64>,
    biases: Vec<f64>,
    scaler: StandardScaler,
}

impl LogisticRegression {
    /// Trains a model on `data`: features standardized by a [`StandardScaler`]
    /// fitted on it, then exactly 80 full-batch epochs of gradient descent from
    /// zero (learning rate 0.1, L2 strength 10⁻³). The parameters are
    /// bit-identical to those of the naive row-at-a-time loop, whichever pass
    /// the shape picks. [`LearnError::Diverged`] if a row's label probability
    /// is not finite in any epoch, as a non-finite feature makes it.
    pub fn fit(data: &Dataset) -> Result<Self, LearnError> {
        if data.is_empty() {
            return Err(LearnError::EmptyDataset);
        }
        let nf = data.num_features();
        let nc = data.num_classes();
        let scaler = StandardScaler::fit(data);

        // Every epoch reads the same standardized rows: transform them once.
        let mut scaled = Vec::with_capacity(data.len() * nf);
        for (row, _) in data.iter() {
            let at = scaled.len();
            scaled.extend_from_slice(row);
            scaler.transform_in_place(&mut scaled[at..]);
        }

        let (weights, biases) = descend(nf, nc, &scaled, data.labels(), pass_for(nf, nc))?;
        Ok(Self {
            num_features: nf,
            num_classes: nc,
            weights,
            biases,
            scaler,
        })
    }

    /// Number of input features.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Class probabilities for one feature vector.
    pub fn predict_proba(&self, features: &[f64]) -> Vec<f64> {
        self.predict(features).probabilities
    }

    /// Predicts the most probable class along with the full probability array.
    pub fn predict(&self, features: &[f64]) -> Prediction {
        let mut prediction = Prediction {
            label: 0,
            probabilities: vec![0.0; self.num_classes],
        };
        self.predict_into(features, &mut vec![0.0; self.num_features], &mut prediction);
        prediction
    }

    /// [`Self::predict`] into caller-owned buffers (`scaled`: `num_features`
    /// long, `out.probabilities`: `num_classes` long), for loops over many rows.
    pub(crate) fn predict_into(&self, features: &[f64], scaled: &mut [f64], out: &mut Prediction) {
        scaled.copy_from_slice(features);
        self.scaler.transform_in_place(scaled);
        let (nf, nc) = (self.num_features, self.num_classes);
        softmax_into(
            &self.weights,
            &self.biases,
            scaled,
            nf,
            nc,
            &mut out.probabilities,
        );
        out.label = argmax(&out.probabilities);
    }

    /// Accuracy over a labelled dataset.
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let correct = data
            .iter()
            .filter(|(row, label)| self.predict(row).label == *label)
            .count();
        correct as f64 / data.len() as f64
    }
}

/// [`EPOCHS`] full-batch epochs of gradient descent from zero on the
/// standardized rows `xs` into `nc × nf` weights (row-major) and `nc` biases.
/// `pass` runs one epoch; see [`Pass`].
fn descend(
    nf: usize,
    nc: usize,
    xs: &[f64],
    labels: &[usize],
    pass: Pass,
) -> Result<(Vec<f64>, Vec<f64>), LearnError> {
    let n = labels.len() as f64;
    let mut weights = vec![0.0; nc * nf];
    let mut biases = vec![0.0; nc];
    let mut grad_w = vec![0.0; nc * nf];
    let mut grad_b = vec![0.0; nc];
    for _ in 0..EPOCHS {
        grad_w.fill(0.0);
        grad_b.fill(0.0);
        pass(xs, labels, &weights, &biases, &mut grad_w, &mut grad_b)?;
        // L2 penalty and parameter update.
        for (w, g) in weights.iter_mut().zip(&grad_w) {
            *w -= LEARNING_RATE * (g / n + L2 * *w);
        }
        for (b, g) in biases.iter_mut().zip(&grad_b) {
            *b -= LEARNING_RATE * (g / n);
        }
    }
    Ok((weights, biases))
}

/// One epoch's pass over the standardized rows `xs` (row-major, one row per
/// label) under row-major `nc × nf` `weights` and `nc` `biases`: adds every
/// row's gradient into `grad_w` / `grad_b`, which come in zeroed;
/// [`LearnError::Diverged`] once a row's label probability is not finite.
/// [`pass_fixed`] and [`pass_runtime`] both add the rows' gradients in row
/// order and every row sums its features in order, so they give the same bits.
type Pass = fn(&[f64], &[usize], &[f64], &[f64], &mut [f64], &mut [f64]) -> Result<(), LearnError>;

/// Width of LOCATER's gap feature vector (`locater_core::coarse::NUM_GAP_FEATURES`),
/// the only width [`pass_fixed`] is instantiated for.
const GAP_FEATURES: usize = 8;

/// The [`Pass`] for `nf` features and `nc` classes. The inside/outside
/// classifier has two classes, a region one has one per region seen. Two to
/// six classes were 99 % of the fits on the repo benchmark; more take the
/// runtime pass.
fn pass_for(nf: usize, nc: usize) -> Pass {
    match (nf, nc) {
        (GAP_FEATURES, 2) => pass_fixed::<GAP_FEATURES, 2>,
        (GAP_FEATURES, 3) => pass_fixed::<GAP_FEATURES, 3>,
        (GAP_FEATURES, 4) => pass_fixed::<GAP_FEATURES, 4>,
        (GAP_FEATURES, 5) => pass_fixed::<GAP_FEATURES, 5>,
        (GAP_FEATURES, 6) => pass_fixed::<GAP_FEATURES, 6>,
        _ => pass_runtime,
    }
}

/// The [`Pass`] on compile-time shapes: `[f64; NF]` rows, `[[f64; NF]; NC]`
/// weights. Every loop has a constant trip count, so the compiler unrolls it
/// and checks no index but the label's. Rows go two at a time: both rows'
/// probabilities first, then their gradients in row order; an odd last row
/// goes alone.
fn pass_fixed<const NF: usize, const NC: usize>(
    xs: &[f64],
    labels: &[usize],
    weights: &[f64],
    biases: &[f64],
    grad_w: &mut [f64],
    grad_b: &mut [f64],
) -> Result<(), LearnError> {
    const SHAPE: &str = "fit picks the instance from the data set's shape";
    let rows = xs.as_chunks::<NF>().0;
    let weights: &[[f64; NF]; NC] = weights.as_chunks().0.try_into().expect(SHAPE);
    let biases: &[f64; NC] = biases.try_into().expect(SHAPE);
    let grad_w: &mut [[f64; NF]; NC] = grad_w.as_chunks_mut().0.try_into().expect(SHAPE);
    let grad_b: &mut [f64; NC] = grad_b.try_into().expect(SHAPE);
    let (row_pairs, last_row) = rows.as_chunks::<2>();
    let (label_pairs, last_label) = labels.as_chunks::<2>();
    for ([x0, x1], &[l0, l1]) in row_pairs.iter().zip(label_pairs) {
        let p0 = probabilities(weights, biases, x0);
        let p1 = probabilities(weights, biases, x1);
        if !p0[l0].is_finite() || !p1[l1].is_finite() {
            return Err(LearnError::Diverged);
        }
        add_gradient(grad_w, grad_b, &p0, l0, x0);
        add_gradient(grad_w, grad_b, &p1, l1, x1);
    }
    for (x, &label) in last_row.iter().zip(last_label) {
        let p = probabilities(weights, biases, x);
        if !p[label].is_finite() {
            return Err(LearnError::Diverged);
        }
        add_gradient(grad_w, grad_b, &p, label, x);
    }
    Ok(())
}

/// One row's class probabilities in [`pass_fixed`]: each logit sums the
/// row's weighted features in order from `-0.0`, then adds the bias.
#[inline(always)]
fn probabilities<const NF: usize, const NC: usize>(
    weights: &[[f64; NF]; NC],
    biases: &[f64; NC],
    x: &[f64; NF],
) -> [f64; NC] {
    let mut probs: [f64; NC] = std::array::from_fn(|c| {
        let mut sum = -0.0;
        for (w, v) in weights[c].iter().zip(x) {
            sum += w * v;
        }
        biases[c] + sum
    });
    softmax_in_place(&mut probs);
    probs
}

/// Adds one row's gradient in [`pass_fixed`].
#[inline(always)]
fn add_gradient<const NF: usize, const NC: usize>(
    grad_w: &mut [[f64; NF]; NC],
    grad_b: &mut [f64; NC],
    probs: &[f64; NC],
    label: usize,
    x: &[f64; NF],
) {
    for c in 0..NC {
        let err = probs[c] - if c == label { 1.0 } else { 0.0 };
        grad_b[c] += err;
        for (g, &v) in grad_w[c].iter_mut().zip(x) {
            *g += err * v;
        }
    }
}

/// The [`Pass`] for any other shape: the naive loop on runtime slices, one
/// row at a time through [`softmax_into`].
fn pass_runtime(
    xs: &[f64],
    labels: &[usize],
    weights: &[f64],
    biases: &[f64],
    grad_w: &mut [f64],
    grad_b: &mut [f64],
) -> Result<(), LearnError> {
    let nc = biases.len();
    let nf = weights.len() / nc;
    let mut probs = vec![0.0; nc];
    for (x, &label) in xs.chunks_exact(nf).zip(labels) {
        softmax_into(weights, biases, x, nf, nc, &mut probs);
        if !probs[label].is_finite() {
            return Err(LearnError::Diverged);
        }
        for c in 0..nc {
            let err = probs[c] - if c == label { 1.0 } else { 0.0 };
            grad_b[c] += err;
            let wrow = &mut grad_w[c * nf..(c + 1) * nf];
            for (g, &v) in wrow.iter_mut().zip(x) {
                *g += err * v;
            }
        }
    }
    Ok(())
}

fn softmax_into(weights: &[f64], biases: &[f64], x: &[f64], nf: usize, nc: usize, out: &mut [f64]) {
    for c in 0..nc {
        let wrow = &weights[c * nf..(c + 1) * nf];
        out[c] = biases[c] + wrow.iter().zip(x).map(|(w, v)| w * v).sum::<f64>();
    }
    softmax_in_place(out);
}

/// Turns logits into class probabilities, shifted by the largest logit.
fn softmax_in_place(out: &mut [f64]) {
    let mut max_logit = f64::NEG_INFINITY;
    for &logit in out.iter() {
        if logit > max_logit {
            max_logit = logit;
        }
    }
    let mut sum = 0.0;
    for o in out.iter_mut() {
        // `exp(0.0)` is exactly 1.0: the max logit needs no call.
        let shifted = *o - max_logit;
        *o = if shifted == 0.0 { 1.0 } else { shifted.exp() };
        sum += *o;
    }
    for o in out.iter_mut() {
        *o /= sum;
    }
}

fn argmax(values: &[f64]) -> usize {
    values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn separable_binary() -> Dataset {
        let mut d = Dataset::new(2, 2);
        for i in 0..50 {
            let x = i as f64 / 50.0;
            d.push(vec![x, 0.3], 0);
            d.push(vec![x + 2.0, 0.7], 1);
        }
        d
    }

    #[test]
    fn learns_a_separable_binary_problem() {
        let data = separable_binary();
        let model = LogisticRegression::fit(&data).unwrap();
        assert!(model.accuracy(&data) > 0.95);
        assert_eq!(model.predict(&[0.2, 0.3]).label, 0);
        assert_eq!(model.predict(&[2.5, 0.7]).label, 1);
        assert_eq!(model.num_classes(), 2);
        assert_eq!(model.num_features(), 2);
    }

    #[test]
    fn learns_a_three_class_problem() {
        let mut d = Dataset::new(2, 3);
        for i in 0..30 {
            let jitter = (i % 5) as f64 * 0.01;
            d.push(vec![0.0 + jitter, 0.0], 0);
            d.push(vec![5.0 + jitter, 0.0], 1);
            d.push(vec![0.0 + jitter, 5.0], 2);
        }
        let model = LogisticRegression::fit(&d).unwrap();
        assert!(model.accuracy(&d) > 0.95);
        assert_eq!(model.predict(&[0.1, 0.1]).label, 0);
        assert_eq!(model.predict(&[5.1, 0.2]).label, 1);
        assert_eq!(model.predict(&[0.2, 5.2]).label, 2);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let data = separable_binary();
        let model = LogisticRegression::fit(&data).unwrap();
        let p = model.predict_proba(&[1.0, 0.5]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn empty_dataset_is_rejected() {
        let d = Dataset::new(2, 2);
        assert_eq!(
            LogisticRegression::fit(&d).unwrap_err(),
            LearnError::EmptyDataset
        );
    }

    #[test]
    fn single_class_data_predicts_that_class() {
        let mut d = Dataset::new(1, 2);
        for i in 0..10 {
            d.push(vec![i as f64], 1);
        }
        let model = LogisticRegression::fit(&d).unwrap();
        assert_eq!(model.predict(&[3.0]).label, 1);
    }

    #[test]
    fn prediction_confidence_and_variance() {
        let data = separable_binary();
        let model = LogisticRegression::fit(&data).unwrap();
        let sure = model.predict(&[3.0, 0.7]);
        let unsure = model.predict(&[1.2, 0.5]);
        assert!(sure.confidence() > unsure.confidence());
        assert!(sure.variance() > unsure.variance());
        // Variance of a uniform distribution is 0.
        let uniform = Prediction {
            label: 0,
            probabilities: vec![0.5, 0.5],
        };
        assert!(uniform.variance() < 1e-12);
    }

    #[test]
    fn non_finite_features_cause_divergence_error() {
        let mut d = Dataset::new(1, 2);
        d.push(vec![f64::NAN], 0);
        d.push(vec![1.0], 1);
        assert_eq!(
            LogisticRegression::fit(&d).unwrap_err(),
            LearnError::Diverged
        );
    }

    /// The fit loop as it stood before rows were standardized once, the max
    /// logit's `exp` was skipped and the loss with its early stop was dropped;
    /// `fit` must reproduce it bit for bit. Also returns the number of epochs
    /// run.
    pub(crate) fn fit_reference(data: &Dataset) -> (LogisticRegression, usize) {
        fn softmax_into(w: &[f64], b: &[f64], x: &[f64], nf: usize, nc: usize, out: &mut [f64]) {
            let mut max_logit = f64::NEG_INFINITY;
            for c in 0..nc {
                let wrow = &w[c * nf..(c + 1) * nf];
                let logit: f64 = b[c] + wrow.iter().zip(x).map(|(w, v)| w * v).sum::<f64>();
                out[c] = logit;
                if logit > max_logit {
                    max_logit = logit;
                }
            }
            let mut sum = 0.0;
            for o in out.iter_mut() {
                *o = (*o - max_logit).exp();
                sum += *o;
            }
            for o in out.iter_mut() {
                *o /= sum;
            }
        }
        let nf = data.num_features();
        let nc = data.num_classes();
        let scaler = StandardScaler::fit(data);

        let n = data.len() as f64;
        let mut weights = vec![0.0; nc * nf];
        let mut biases = vec![0.0; nc];
        let mut grad_w = vec![0.0; nc * nf];
        let mut grad_b = vec![0.0; nc];
        let mut probs = vec![0.0; nc];
        let mut scaled_row = vec![0.0; nf];
        let mut epochs = 0;

        for _ in 0..EPOCHS {
            epochs += 1;
            grad_w.iter_mut().for_each(|g| *g = 0.0);
            grad_b.iter_mut().for_each(|g| *g = 0.0);

            for (row, label) in data.iter() {
                scaled_row.copy_from_slice(row);
                scaler.transform_in_place(&mut scaled_row);
                softmax_into(&weights, &biases, &scaled_row, nf, nc, &mut probs);
                assert!(probs[label].is_finite());
                for c in 0..nc {
                    let err = probs[c] - if c == label { 1.0 } else { 0.0 };
                    grad_b[c] += err;
                    let wrow = &mut grad_w[c * nf..(c + 1) * nf];
                    for (g, &x) in wrow.iter_mut().zip(&scaled_row) {
                        *g += err * x;
                    }
                }
            }

            for (w, g) in weights.iter_mut().zip(&grad_w) {
                *w -= LEARNING_RATE * (g / n + L2 * *w);
            }
            for (b, g) in biases.iter_mut().zip(&grad_b) {
                *b -= LEARNING_RATE * (g / n);
            }
        }

        let model = LogisticRegression {
            num_features: nf,
            num_classes: nc,
            weights,
            biases,
            scaler,
        };
        (model, epochs)
    }

    /// `rows` rows of three varying features, one constant column (σ < 1e-12,
    /// so the scaler divides it by 1) and `features - 4` more varying ones,
    /// labels cycling over the classes with some overlap between them.
    fn overlapping(features: usize, classes: usize, rows: usize) -> Dataset {
        let mut d = Dataset::new(features, classes);
        for i in 0..rows {
            let class = i % classes;
            let wobble = ((i * 7919) % 13) as f64 / 13.0;
            let mut row = vec![
                class as f64 + 1.7 * wobble,
                3_600.0 * wobble - 40.0 * class as f64,
                ((i * 31) % 7) as f64,
                5.0,
            ];
            row.extend((4..features).map(|j| ((i * (j + 3)) % 11) as f64 * 0.5 - class as f64));
            d.push(row, class);
        }
        d
    }

    /// `rows` seeded rows shaped like LOCATER's gap features: start and end
    /// second of day, a duration in the band the duration thresholds leave
    /// ambiguous, start and end day of week, two region indices and a
    /// connection density. Labels cycle over the classes, one row in four
    /// drawn at random, and shift the duration and the start region.
    pub(crate) fn gap_shaped(classes: usize, rows: usize, seed: u64) -> Dataset {
        let mut rng = locater_events::SeededRng::new(seed);
        let mut next = |bound: u64| rng.range(0..bound);
        let mut d = Dataset::new(8, classes);
        for i in 0..rows {
            let label = if next(4) == 0 {
                next(classes as u64) as usize
            } else {
                i % classes
            };
            let start = next(86_400);
            let duration = 1_200 + next(4_800) + 900 * label as u64;
            let end = start + duration;
            let day = next(7);
            let row = [
                start as f64,
                (end % 86_400) as f64,
                duration as f64,
                day as f64,
                ((day + end / 86_400) % 7) as f64,
                ((label as u64 + next(2)) % 6) as f64,
                next(6) as f64,
                next(170) as f64 / 56.0,
            ];
            d.push_row(&row, label);
        }
        d
    }

    /// The bits of every weight and bias: `==` on `f64` would let `-0.0`
    /// pass for `0.0`.
    pub(crate) fn parameter_bits(model: &LogisticRegression) -> Vec<u64> {
        model
            .weights
            .iter()
            .chain(&model.biases)
            .map(|v| v.to_bits())
            .collect()
    }

    /// Production's gap features are 8 wide; the row counts cover a lone
    /// row, whole pairs and an odd last row. Two sets of identical rows pin
    /// that a plateau runs all the epochs and stays bit-equal: a
    /// class-balanced one (gradient zero from the first epoch on), which an
    /// early stop on the loss would have ended after two epochs, and a 22 : 20
    /// one, which such a stop would have ended at epoch 71. The gap-shaped
    /// sets take every class count the fixed-shape pass is built for (2 to 6)
    /// and one that takes the runtime pass (7), at 1 to 153 rows: no traffic
    /// set has more than 152.
    #[test]
    fn fit_matches_the_reference_loop_bit_for_bit() {
        let mut identical = Dataset::new(8, 2);
        for i in 0..42 {
            identical.push(vec![1.5; 8], i % 2);
        }
        let mut converging = Dataset::new(8, 2);
        for i in 0..42 {
            converging.push(vec![1.5; 8], usize::from(i >= 22));
        }
        let gap_shaped_sets = (2..=7).flat_map(|classes| {
            [1, 3, 4, 5, 70, 147, 153].map(|rows| {
                let case = format!("gap-shaped, {classes} classes, {rows} rows");
                (
                    case,
                    gap_shaped(classes, rows, (classes * 1_000 + rows) as u64),
                )
            })
        });
        let cases = (2..=5)
            .flat_map(|classes| [(4, classes, 40), (8, classes, 3)])
            .chain((40..=43).map(|rows| (8, 3, rows)))
            .chain([(8, 5, 42), (8, 2, 43)])
            .map(|(features, classes, rows)| {
                let case = format!("{features} features, {classes} classes, {rows} rows");
                (case, overlapping(features, classes, rows))
            })
            .chain([
                ("42 identical rows".to_string(), identical),
                ("22 : 20 identical rows".to_string(), converging),
            ])
            .chain(gap_shaped_sets);
        for (case, data) in cases {
            let model = LogisticRegression::fit(&data).unwrap();
            let (reference, epochs) = fit_reference(&data);
            assert_eq!(model, reference, "{case}");
            assert_eq!(parameter_bits(&model), parameter_bits(&reference), "{case}");
            assert_eq!(epochs, EPOCHS, "{case}");
            // Prediction goes through the same softmax.
            let probe = data.row(1.min(data.len() - 1));
            assert_eq!(
                model.predict_proba(probe).iter().sum::<f64>(),
                reference.predict_proba(probe).iter().sum::<f64>(),
                "{case}"
            );
        }
    }

    /// A NaN feature reaches the scaler's mean, so through `fit` it turns
    /// every row of its column NaN. The pass is also run alone, on rows
    /// scaled clean with the NaN put into one: that row alone must stop the
    /// epoch, whether it is the first or the second of a pair or the odd last
    /// row of the fixed-shape pass.
    #[test]
    fn nan_in_the_third_row_of_a_block_still_diverges() {
        // Two and three classes take the fixed-shape pass, seven the runtime
        // one; row 42 is the last of the 43.
        let fixed = [1, 2, 6, 41, 42];
        let cases = [2, 3]
            .into_iter()
            .flat_map(|classes| fixed.map(|row| (classes, row)))
            .chain([(7, 1), (7, 2), (7, 42)]);
        for (classes, nan_row) in cases {
            let clean = overlapping(8, classes, 43);
            let mut data = Dataset::new(8, classes);
            let mut xs = Vec::new();
            let scaler = StandardScaler::fit(&clean);
            for (i, (row, label)) in clean.iter().enumerate() {
                let mut row = row.to_vec();
                let mut scaled = scaler.transform(&row);
                if i == nan_row {
                    row[5] = f64::NAN;
                    scaled[5] = f64::NAN;
                }
                data.push(row, label);
                xs.extend(scaled);
            }
            let case = format!("{classes} classes, NaN in row {nan_row}");
            assert_eq!(
                LogisticRegression::fit(&data).unwrap_err(),
                LearnError::Diverged,
                "{case}"
            );
            let (weights, biases) = (vec![0.0; classes * 8], vec![0.0; classes]);
            let (mut grad_w, mut grad_b) = (weights.clone(), biases.clone());
            let pass = pass_for(8, classes);
            let epoch = pass(
                &xs,
                clean.labels(),
                &weights,
                &biases,
                &mut grad_w,
                &mut grad_b,
            );
            assert_eq!(epoch, Err(LearnError::Diverged), "{case}");
        }
    }

    #[test]
    fn accuracy_of_empty_dataset_is_zero() {
        let data = separable_binary();
        let model = LogisticRegression::fit(&data).unwrap();
        assert_eq!(model.accuracy(&Dataset::new(2, 2)), 0.0);
    }
}
