//! Binary classification metrics.
//!
//! The paper evaluates prediction with the F1-measure (Powers 2011
//! citation) — the harmonic mean of precision and recall on the
//! positive ("viral") class, which is the right call because high
//! thresholds make the classes heavily unbalanced.

use serde::{Deserialize, Serialize};

/// A binary confusion matrix; the positive class is "viral".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BinaryConfusion {
    /// Viral predicted viral.
    pub tp: usize,
    /// Non-viral predicted viral.
    pub fp: usize,
    /// Viral predicted non-viral.
    pub fn_: usize,
    /// Non-viral predicted non-viral.
    pub tn: usize,
}

impl BinaryConfusion {
    /// Tallies predictions against truth (labels in `{-1, +1}`).
    pub fn from_predictions(truth: &[i8], predicted: &[i8]) -> Self {
        assert_eq!(truth.len(), predicted.len(), "length mismatch");
        let mut m = BinaryConfusion::default();
        for (&t, &p) in truth.iter().zip(predicted) {
            match (t, p) {
                (1, 1) => m.tp += 1,
                (-1, 1) => m.fp += 1,
                (1, -1) => m.fn_ += 1,
                (-1, -1) => m.tn += 1,
                _ => panic!("labels must be ±1"),
            }
        }
        m
    }

    /// Adds another confusion matrix (for pooling CV folds).
    pub fn merge(&mut self, other: &BinaryConfusion) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.fn_ += other.fn_;
        self.tn += other.tn;
    }

    /// Precision of the positive class; 0 when nothing was predicted
    /// positive.
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall of the positive class; 0 when no positives exist.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    /// F1-measure.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// A named F1 score with its supporting precision/recall (what the
/// figure harnesses print).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct F1Score {
    /// Precision of the positive class.
    pub precision: f64,
    /// Recall of the positive class.
    pub recall: f64,
    /// Harmonic mean.
    pub f1: f64,
}

impl From<BinaryConfusion> for F1Score {
    fn from(m: BinaryConfusion) -> Self {
        F1Score {
            precision: m.precision(),
            recall: m.recall(),
            f1: m.f1(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction() {
        let m = BinaryConfusion::from_predictions(&[1, -1, 1], &[1, -1, 1]);
        assert_eq!(m.f1(), 1.0);
        assert_eq!(m.precision(), 1.0);
        assert_eq!(m.recall(), 1.0);
    }

    #[test]
    fn known_confusion_counts() {
        let truth = [1, 1, 1, -1, -1, -1];
        let pred = [1, 1, -1, 1, -1, -1];
        let m = BinaryConfusion::from_predictions(&truth, &pred);
        assert_eq!((m.tp, m.fp, m.fn_, m.tn), (2, 1, 1, 2));
        assert!((m.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.recall() - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.f1() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cases_are_zero_not_nan() {
        // All negative truth, all negative predictions.
        let m = BinaryConfusion::from_predictions(&[-1, -1], &[-1, -1]);
        assert_eq!(m.precision(), 0.0);
        assert_eq!(m.recall(), 0.0);
        assert_eq!(m.f1(), 0.0);
    }

    #[test]
    fn always_positive_classifier_has_low_precision() {
        let truth = [1, -1, -1, -1];
        let pred = [1, 1, 1, 1];
        let m = BinaryConfusion::from_predictions(&truth, &pred);
        assert_eq!(m.recall(), 1.0);
        assert_eq!(m.precision(), 0.25);
    }

    #[test]
    fn merge_pools_folds() {
        let mut a = BinaryConfusion::from_predictions(&[1, -1], &[1, -1]);
        let b = BinaryConfusion::from_predictions(&[1, -1], &[-1, 1]);
        a.merge(&b);
        assert_eq!((a.tp, a.fp, a.fn_, a.tn), (1, 1, 1, 1));
    }

    #[test]
    fn f1score_from_confusion() {
        let m = BinaryConfusion::from_predictions(&[1, 1, -1], &[1, -1, -1]);
        let s = F1Score::from(m);
        assert_eq!(s.precision, 1.0);
        assert_eq!(s.recall, 0.5);
        assert!((s.f1 - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_rejected() {
        BinaryConfusion::from_predictions(&[1], &[1, -1]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// F1 is always in [0, 1] and counts always tally.
    #[test]
    fn f1_bounded() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let len = rng.gen_range(1..60usize);
            let mut pm1 = || if rng.gen_bool(0.5) { 1i8 } else { -1 };
            let truth: Vec<i8> = (0..len).map(|_| pm1()).collect();
            let pred: Vec<i8> = (0..len).map(|_| pm1()).collect();
            let m = BinaryConfusion::from_predictions(&truth, &pred);
            assert_eq!(m.tp + m.fp + m.fn_ + m.tn, len, "case {case}");
            assert!((0.0..=1.0).contains(&m.f1()), "case {case}: f1 {}", m.f1());
        }
    }
}
