//! Property-based tests for the learning substrate.

use locater_learn::{Dataset, LogisticRegression, StandardScaler};
use proptest::prelude::*;

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (2usize..5, 2usize..4, 4usize..40).prop_flat_map(|(nf, nc, n)| {
        (
            Just(nf),
            Just(nc),
            prop::collection::vec((prop::collection::vec(-10.0f64..10.0, nf), 0usize..nc), n),
        )
            .prop_map(|(nf, nc, rows)| {
                let mut d = Dataset::new(nf, nc);
                for (features, label) in rows {
                    d.push(features, label);
                }
                d
            })
    })
}

proptest! {
    /// Softmax probabilities always form a distribution, whatever the training data.
    #[test]
    fn predicted_probabilities_form_a_distribution(data in arb_dataset(), probe in prop::collection::vec(-20.0f64..20.0, 2..5)) {
        let model = LogisticRegression::fit(&data).unwrap();
        let mut probe = probe;
        probe.resize(model.num_features(), 0.0);
        let p = model.predict_proba(&probe);
        prop_assert_eq!(p.len(), model.num_classes());
        let sum: f64 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "sum = {}", sum);
        prop_assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v) && v.is_finite()));
    }

    /// Standardization maps the training rows to (approximately) zero mean.
    #[test]
    fn scaler_centers_training_data(data in arb_dataset()) {
        let scaler = StandardScaler::fit(&data);
        let nf = data.num_features();
        let mut sums = vec![0.0; nf];
        for (row, _) in data.iter() {
            let t = scaler.transform(row);
            for (s, v) in sums.iter_mut().zip(t) {
                *s += v;
            }
        }
        for s in sums {
            prop_assert!((s / data.len() as f64).abs() < 1e-6);
        }
    }

    /// Training never panics and accuracy is a valid fraction.
    #[test]
    fn accuracy_is_in_unit_interval(data in arb_dataset()) {
        let model = LogisticRegression::fit(&data).unwrap();
        let acc = model.accuracy(&data);
        prop_assert!((0.0..=1.0).contains(&acc));
    }
}
