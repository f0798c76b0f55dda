//! Property-based tests for the learning substrate, each run over seeded
//! random cases.

use locater_events::SeededRng;
use locater_learn::{Dataset, LogisticRegression, StandardScaler};

/// 4–39 rows of 2–4 features in `[-10, 10)`, labelled over 2–3 classes.
fn arb_dataset(rng: &mut SeededRng) -> Dataset {
    let features = rng.range(2usize..5);
    let classes = rng.range(2usize..4);
    let rows = rng.range(4usize..40);
    let mut d = Dataset::new(features, classes);
    for _ in 0..rows {
        let row: Vec<f64> = (0..features).map(|_| rng.range(-10.0..10.0)).collect();
        d.push(row, rng.range(0..classes));
    }
    d
}

/// Softmax probabilities always form a distribution, whatever the training data.
#[test]
fn predicted_probabilities_form_a_distribution() {
    let mut rng = SeededRng::new(0x7d71_f60e_81a6_9981);
    for _ in 0..64 {
        let data = arb_dataset(&mut rng);
        let len = rng.range(2usize..5);
        let mut probe: Vec<f64> = (0..len).map(|_| rng.range(-20.0..20.0)).collect();
        let model = LogisticRegression::fit(&data).unwrap();
        probe.resize(model.num_features(), 0.0);
        let p = model.predict_proba(&probe);
        assert_eq!(p.len(), model.num_classes());
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum = {}", sum);
        assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v) && v.is_finite()));
    }
}

/// Standardization maps the training rows to (approximately) zero mean.
#[test]
fn scaler_centers_training_data() {
    let mut rng = SeededRng::new(0x859d_7c2a_4415_bce4);
    for _ in 0..64 {
        let data = arb_dataset(&mut rng);
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
            assert!((s / data.len() as f64).abs() < 1e-6);
        }
    }
}

/// Training never panics and accuracy is a valid fraction.
#[test]
fn accuracy_is_in_unit_interval() {
    let mut rng = SeededRng::new(0x6c23_78b0_5d3e_4668);
    for _ in 0..64 {
        let data = arb_dataset(&mut rng);
        let model = LogisticRegression::fit(&data).unwrap();
        let acc = model.accuracy(&data);
        assert!((0.0..=1.0).contains(&acc));
    }
}
