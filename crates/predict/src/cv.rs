//! Stratified k-fold cross-validation.
//!
//! "The performance of the prediction is evaluated by the F1-measure
//! using a 10-fold cross validation." Stratification keeps the (often
//! tiny) viral class represented in every fold; confusion counts are
//! pooled across folds before computing the final F1, which is the
//! stable convention for unbalanced classes.

use crate::metrics::{BinaryConfusion, F1Score};
use crate::scaler::StandardScaler;
use crate::svm::{LinearSvm, SvmConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of one cross-validation run.
#[derive(Clone, Debug)]
pub struct CvReport {
    /// Pooled confusion across folds.
    pub pooled: BinaryConfusion,
    /// Pooled F1/precision/recall.
    pub score: F1Score,
    /// Per-fold F1 values.
    pub fold_f1: Vec<f64>,
    /// Folds actually evaluated (folds whose training split lacked a
    /// class are skipped).
    pub folds_run: usize,
}

/// Runs stratified `folds`-fold CV of a linear SVM over row-major
/// features and ±1 labels. Each training split is standardised with its
/// own scaler and the same transform is applied to its test fold.
pub fn cross_validate(
    features: &[Vec<f64>],
    labels: &[i8],
    folds: usize,
    svm_config: &SvmConfig,
    seed: u64,
) -> CvReport {
    assert_eq!(features.len(), labels.len(), "features/labels mismatch");
    assert!(folds >= 2, "need at least two folds");
    assert!(!features.is_empty(), "empty dataset");

    // Stratified assignment: shuffle indices within each class, then
    // deal them out round-robin.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fold_of = vec![0usize; labels.len()];
    for class in [-1i8, 1] {
        let mut idx: Vec<usize> = (0..labels.len()).filter(|&i| labels[i] == class).collect();
        for i in (1..idx.len()).rev() {
            let j = rng.gen_range(0..=i);
            idx.swap(i, j);
        }
        for (pos, &i) in idx.iter().enumerate() {
            fold_of[i] = pos % folds;
        }
    }

    let mut pooled = BinaryConfusion::default();
    let mut fold_f1 = Vec::new();
    let mut folds_run = 0;
    for fold in 0..folds {
        let train_idx: Vec<usize> = (0..labels.len()).filter(|&i| fold_of[i] != fold).collect();
        let test_idx: Vec<usize> = (0..labels.len()).filter(|&i| fold_of[i] == fold).collect();
        if test_idx.is_empty() {
            continue;
        }
        let has_both =
            train_idx.iter().any(|&i| labels[i] == 1) && train_idx.iter().any(|&i| labels[i] == -1);
        if !has_both {
            continue; // degenerate split, cannot train
        }
        let train_x: Vec<Vec<f64>> = train_idx.iter().map(|&i| features[i].clone()).collect();
        let train_y: Vec<i8> = train_idx.iter().map(|&i| labels[i]).collect();
        let scaler = StandardScaler::fit(&train_x);
        let train_x = scaler.transform(&train_x);
        let svm = LinearSvm::train(&train_x, &train_y, svm_config);

        let truth: Vec<i8> = test_idx.iter().map(|&i| labels[i]).collect();
        let pred: Vec<i8> = test_idx
            .iter()
            .map(|&i| {
                let mut x = features[i].clone();
                scaler.transform_in_place(&mut x);
                svm.predict(&x)
            })
            .collect();
        let m = BinaryConfusion::from_predictions(&truth, &pred);
        fold_f1.push(m.f1());
        pooled.merge(&m);
        folds_run += 1;
    }

    CvReport {
        score: F1Score::from(pooled),
        pooled,
        fold_f1,
        folds_run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Separable 2-D blobs with a class imbalance.
    fn dataset(n_pos: usize, n_neg: usize) -> (Vec<Vec<f64>>, Vec<i8>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..n_pos {
            xs.push(vec![2.0 + (i % 5) as f64 * 0.1, 2.0]);
            ys.push(1);
        }
        for i in 0..n_neg {
            xs.push(vec![-2.0 - (i % 5) as f64 * 0.1, -2.0]);
            ys.push(-1);
        }
        (xs, ys)
    }

    #[test]
    fn separable_data_scores_high() {
        let (xs, ys) = dataset(30, 70);
        let report = cross_validate(&xs, &ys, 10, &SvmConfig::default(), 7);
        assert_eq!(report.folds_run, 10);
        assert!(report.score.f1 > 0.95, "F1 = {}", report.score.f1);
    }

    #[test]
    fn pooled_counts_cover_every_sample() {
        let (xs, ys) = dataset(20, 40);
        let report = cross_validate(&xs, &ys, 5, &SvmConfig::default(), 1);
        let m = report.pooled;
        assert_eq!(m.tp + m.fp + m.fn_ + m.tn, 60);
    }

    #[test]
    fn stratification_keeps_minority_in_folds() {
        // 10 positives over 10 folds: each fold gets exactly one, so
        // every fold can score recall on the minority class.
        let (xs, ys) = dataset(10, 90);
        let report = cross_validate(&xs, &ys, 10, &SvmConfig::default(), 3);
        assert_eq!(report.folds_run, 10);
        // With separable data every positive should be recovered.
        assert!(report.score.recall > 0.9, "recall {}", report.score.recall);
    }

    #[test]
    fn deterministic_given_seed() {
        let (xs, ys) = dataset(15, 25);
        let a = cross_validate(&xs, &ys, 5, &SvmConfig::default(), 11);
        let b = cross_validate(&xs, &ys, 5, &SvmConfig::default(), 11);
        assert_eq!(a.pooled, b.pooled);
    }

    #[test]
    fn random_labels_score_midling() {
        // Features carry no signal: F1 should be far from 1.
        let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![(i % 10) as f64]).collect();
        let ys: Vec<i8> = (0..100)
            .map(|i| if (i * 7 + 3) % 13 < 6 { 1 } else { -1 })
            .collect();
        let report = cross_validate(&xs, &ys, 5, &SvmConfig::default(), 2);
        assert!(
            report.score.f1 < 0.85,
            "suspiciously high F1 {}",
            report.score.f1
        );
    }

    #[test]
    #[should_panic(expected = "two folds")]
    fn one_fold_rejected() {
        let (xs, ys) = dataset(5, 5);
        cross_validate(&xs, &ys, 1, &SvmConfig::default(), 0);
    }

    #[test]
    fn single_class_dataset_runs_no_folds() {
        let xs = vec![vec![1.0]; 10];
        let ys = vec![1i8; 10];
        let report = cross_validate(&xs, &ys, 5, &SvmConfig::default(), 0);
        assert_eq!(report.folds_run, 0);
        assert_eq!(report.score.f1, 0.0);
    }
}
