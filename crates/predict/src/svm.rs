//! Linear support vector machine trained by Pegasos (primal estimated
//! sub-gradient solver; Shalev-Shwartz et al.).
//!
//! The paper feeds the three early-adopter features to "a SVM model with
//! a linear kernel … a simple classifier" — the classifier is a means,
//! not the contribution, so a compact primal solver is the right tool.
//! The bias is folded in as a constant feature, making the optimisation
//! a pure hinge-loss + L2 problem:
//!
//! ```text
//! min_w  λ/2 ‖w‖² + 1/n Σ max(0, 1 − y_i ⟨w, x_i⟩)
//! ```
//!
//! Each step samples one example, uses the learning rate `η_t = 1/(λt)`
//! and projects onto the ball of radius `1/√λ`, giving the standard
//! `Õ(1/(λε))` convergence.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Training hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct SvmConfig {
    /// L2 regularisation strength `λ`.
    pub lambda: f64,
    /// Number of stochastic steps.
    pub steps: usize,
    /// RNG seed for sampling.
    pub seed: u64,
    /// Weight hinge losses inversely to class frequency (the
    /// "balanced" convention). High size thresholds make the viral
    /// class tiny — the paper notes "a high threshold makes the
    /// prediction problem challenging because the samples in two
    /// classes are unbalanced" — and an unweighted hinge then collapses
    /// to the all-negative classifier with F1 = 0.
    pub balanced: bool,
}

impl Default for SvmConfig {
    fn default() -> Self {
        SvmConfig {
            lambda: 1e-3,
            steps: 40_000,
            seed: 0x5F_11,
            balanced: true,
        }
    }
}

/// A trained linear classifier `sign(⟨w, x⟩ + b)`.
#[derive(Clone, Debug)]
pub struct LinearSvm {
    weights: Vec<f64>,
    bias: f64,
}

impl LinearSvm {
    /// Trains on row-major samples with labels in `{-1, +1}`.
    ///
    /// ```
    /// use viralcast_predict::{LinearSvm, SvmConfig};
    /// let xs = vec![vec![2.0], vec![3.0], vec![-2.0], vec![-3.0]];
    /// let ys = vec![1, 1, -1, -1];
    /// let svm = LinearSvm::train(&xs, &ys, &SvmConfig::default());
    /// assert_eq!(svm.predict(&[2.5]), 1);
    /// assert_eq!(svm.predict(&[-2.5]), -1);
    /// ```
    ///
    /// # Panics
    /// Panics on empty input, ragged rows, or labels outside `{-1, +1}`.
    pub fn train(samples: &[Vec<f64>], labels: &[i8], config: &SvmConfig) -> Self {
        assert!(!samples.is_empty(), "cannot train on no data");
        assert_eq!(samples.len(), labels.len(), "samples/labels mismatch");
        let dim = samples[0].len();
        assert!(samples.iter().all(|s| s.len() == dim), "ragged samples");
        assert!(
            labels.iter().all(|&y| y == 1 || y == -1),
            "labels must be ±1"
        );
        assert!(
            config.lambda > 0.0 && config.steps > 0,
            "bad hyper-parameters"
        );

        // Augmented weight vector: last slot is the bias against a
        // constant 1 feature.
        let mut w = vec![0.0f64; dim + 1];
        let mut rng = StdRng::seed_from_u64(config.seed);
        let n = samples.len();
        let radius = 1.0 / config.lambda.sqrt();

        // Balanced class weights: each class contributes half the total
        // loss regardless of its frequency.
        let n_pos = labels.iter().filter(|&&y| y == 1).count().max(1);
        let n_neg = labels.iter().filter(|&&y| y == -1).count().max(1);
        let (w_pos, w_neg) = if config.balanced {
            (
                n as f64 / (2.0 * n_pos as f64),
                n as f64 / (2.0 * n_neg as f64),
            )
        } else {
            (1.0, 1.0)
        };

        for t in 1..=config.steps {
            let i = rng.gen_range(0..n);
            let x = &samples[i];
            let y = labels[i] as f64;
            let class_weight = if labels[i] == 1 { w_pos } else { w_neg };
            let eta = 1.0 / (config.lambda * t as f64);
            let margin = y * (dot_aug(&w, x));
            let shrink = 1.0 - eta * config.lambda;
            for wi in w.iter_mut() {
                *wi *= shrink;
            }
            if margin < 1.0 {
                let scale = eta * y * class_weight;
                for (wi, &xi) in w.iter_mut().zip(x) {
                    *wi += scale * xi;
                }
                w[dim] += scale; // constant feature
            }
            // Project onto the ‖w‖ ≤ 1/√λ ball.
            let norm = w.iter().map(|v| v * v).sum::<f64>().sqrt();
            if norm > radius {
                let s = radius / norm;
                for wi in w.iter_mut() {
                    *wi *= s;
                }
            }
        }
        let bias = w.pop().unwrap();
        LinearSvm { weights: w, bias }
    }

    /// The signed decision value `⟨w, x⟩ + b`.
    fn decision(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.weights.len(), "dimension mismatch");
        self.weights
            .iter()
            .zip(x)
            .map(|(w, xi)| w * xi)
            .sum::<f64>()
            + self.bias
    }

    /// Predicted label in `{-1, +1}` (`0` decision counts as `+1`).
    pub fn predict(&self, x: &[f64]) -> i8 {
        if self.decision(x) >= 0.0 {
            1
        } else {
            -1
        }
    }
}

/// Dot of an augmented weight vector (bias in the last slot) with a raw
/// sample.
fn dot_aug(w: &[f64], x: &[f64]) -> f64 {
    let dim = x.len();
    w[..dim].iter().zip(x).map(|(a, b)| a * b).sum::<f64>() + w[dim]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Linearly separable blobs around (±2, ±2).
    fn blobs(n_per: usize, gap: f64) -> (Vec<Vec<f64>>, Vec<i8>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..n_per {
            // Deterministic lattice jitter.
            let dx = (i % 5) as f64 * 0.1;
            let dy = (i % 7) as f64 * 0.1;
            xs.push(vec![gap + dx, gap + dy]);
            ys.push(1);
            xs.push(vec![-gap - dx, -gap - dy]);
            ys.push(-1);
        }
        (xs, ys)
    }

    #[test]
    fn separates_separable_blobs() {
        let (xs, ys) = blobs(40, 2.0);
        let svm = LinearSvm::train(&xs, &ys, &SvmConfig::default());
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| svm.predict(x) == y)
            .count();
        assert_eq!(correct, xs.len(), "not perfectly separated");
    }

    #[test]
    fn learns_a_biased_boundary() {
        // One-dimensional data split at x = 3: needs a non-trivial bias.
        let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 40.0 * 6.0]).collect();
        let ys: Vec<i8> = xs.iter().map(|x| if x[0] > 3.0 { 1 } else { -1 }).collect();
        let svm = LinearSvm::train(&xs, &ys, &SvmConfig::default());
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| svm.predict(x) == y)
            .count();
        assert!(
            correct as f64 / xs.len() as f64 >= 0.95,
            "{correct}/{} correct",
            xs.len()
        );
    }

    #[test]
    fn decision_is_monotone_along_weights() {
        let (xs, ys) = blobs(30, 2.0);
        let svm = LinearSvm::train(&xs, &ys, &SvmConfig::default());
        assert!(svm.decision(&[3.0, 3.0]) > svm.decision(&[-3.0, -3.0]));
    }

    #[test]
    fn deterministic_given_seed() {
        let (xs, ys) = blobs(20, 1.5);
        let a = LinearSvm::train(&xs, &ys, &SvmConfig::default());
        let b = LinearSvm::train(&xs, &ys, &SvmConfig::default());
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.bias, b.bias);
    }

    #[test]
    fn tolerates_label_noise() {
        let (xs, mut ys) = blobs(50, 2.0);
        // Flip 10% of labels.
        for i in (0..ys.len()).step_by(10) {
            ys[i] = -ys[i];
        }
        let svm = LinearSvm::train(&xs, &ys, &SvmConfig::default());
        // Accuracy against the *clean* labels stays high.
        let (clean_xs, clean_ys) = blobs(50, 2.0);
        let correct = clean_xs
            .iter()
            .zip(&clean_ys)
            .filter(|(x, &y)| svm.predict(x) == y)
            .count();
        assert!(correct as f64 / clean_xs.len() as f64 > 0.9);
    }

    #[test]
    #[should_panic(expected = "labels must be ±1")]
    fn rejects_bad_labels() {
        LinearSvm::train(&[vec![1.0]], &[0], &SvmConfig::default());
    }

    #[test]
    #[should_panic(expected = "no data")]
    fn rejects_empty() {
        LinearSvm::train(&[], &[], &SvmConfig::default());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// On any separable 1-D threshold problem the SVM reaches ≥ 90 %
    /// training accuracy. The points span [−3, 2.9] and the cut lies in
    /// [−2, 2), so both classes are always present.
    #[test]
    fn separable_threshold_learned() {
        for case in 0..16 {
            let cut = StdRng::seed_from_u64(case).gen_range(-2.0f64..2.0);
            let xs: Vec<Vec<f64>> = (0..60).map(|i| vec![-3.0 + i as f64 * 0.1]).collect();
            let ys: Vec<i8> = xs.iter().map(|x| if x[0] > cut { 1 } else { -1 }).collect();
            let cfg = SvmConfig {
                seed: case,
                steps: 30_000,
                ..SvmConfig::default()
            };
            let svm = LinearSvm::train(&xs, &ys, &cfg);
            let correct = xs
                .iter()
                .zip(&ys)
                .filter(|(x, &y)| svm.predict(x) == y)
                .count();
            assert!(
                correct as f64 / xs.len() as f64 >= 0.9,
                "case {case}: cut {cut}, {correct}/60 correct"
            );
        }
    }
}
