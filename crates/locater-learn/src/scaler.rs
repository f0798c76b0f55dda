//! Per-feature standardization.

use crate::dataset::Dataset;

/// Standardizes features to zero mean and unit variance, fitted on a training set.
///
/// Gap feature vectors mix very different scales (seconds-of-day up to 86,400,
/// day-of-week in 0..7, densities below 1); gradient-descent logistic regression needs
/// them on comparable scales to converge in a reasonable number of epochs.
#[derive(Debug, Clone, PartialEq)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Fits the scaler on a dataset.
    pub fn fit(data: &Dataset) -> Self {
        let nf = data.num_features();
        let n = data.len().max(1) as f64;
        let mut means = vec![0.0; nf];
        for (row, _) in data.iter() {
            for (m, &v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut vars = vec![0.0; nf];
        for (row, _) in data.iter() {
            for ((var, &m), &v) in vars.iter_mut().zip(&means).zip(row) {
                let d = v - m;
                *var += d * d;
            }
        }
        let stds = vars
            .into_iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s < 1e-12 {
                    1.0
                } else {
                    s
                }
            })
            .collect();
        Self { means, stds }
    }

    /// Number of features this scaler was fitted for.
    pub fn num_features(&self) -> usize {
        self.means.len()
    }

    /// Standardizes a single feature vector in place.
    pub(crate) fn transform_in_place(&self, row: &mut [f64]) {
        for ((v, &m), &s) in row.iter_mut().zip(&self.means).zip(&self.stds) {
            *v = (*v - m) / s;
        }
    }

    /// Returns a standardized copy of a feature vector.
    pub fn transform(&self, row: &[f64]) -> Vec<f64> {
        let mut out = row.to_vec();
        self.transform_in_place(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        let mut d = Dataset::new(2, 2);
        d.push(vec![0.0, 100.0], 0);
        d.push(vec![2.0, 200.0], 1);
        d.push(vec![4.0, 300.0], 0);
        d
    }

    #[test]
    fn fitted_scaler_centers_and_scales() {
        let data = sample();
        let scaler = StandardScaler::fit(&data);
        let t = scaler.transform(&[2.0, 200.0]);
        assert!(t[0].abs() < 1e-12);
        assert!(t[1].abs() < 1e-12);
        let t = scaler.transform(&[4.0, 300.0]);
        assert!(t[0] > 0.0 && t[1] > 0.0);
        let t = scaler.transform(&[0.0, 100.0]);
        assert!(t[0] < 0.0 && t[1] < 0.0);
    }

    #[test]
    fn transformed_dataset_has_zero_mean_unit_variance() {
        let data = sample();
        let scaler = StandardScaler::fit(&data);
        let rows: Vec<Vec<f64>> = (0..data.len())
            .map(|i| scaler.transform(data.row(i)))
            .collect();
        for f in 0..2 {
            let mean: f64 = rows.iter().map(|row| row[f]).sum::<f64>() / rows.len() as f64;
            let var: f64 =
                rows.iter().map(|row| (row[f] - mean).powi(2)).sum::<f64>() / rows.len() as f64;
            assert!(mean.abs() < 1e-9, "feature {f} mean {mean}");
            assert!((var - 1.0).abs() < 1e-9, "feature {f} var {var}");
        }
    }

    #[test]
    fn constant_features_do_not_divide_by_zero() {
        let mut d = Dataset::new(1, 2);
        d.push(vec![5.0], 0);
        d.push(vec![5.0], 1);
        let scaler = StandardScaler::fit(&d);
        let t = scaler.transform(&[5.0]);
        assert!(t[0].is_finite());
        assert!(t[0].abs() < 1e-12);
    }
}
