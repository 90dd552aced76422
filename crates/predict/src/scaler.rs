//! Feature standardisation.
//!
//! Pegasos converges much faster on standardised inputs, and the three
//! cascade features live on very different scales (`diverA` is bounded
//! by row norms while `normA` grows with adopter count), so the pipeline
//! fits a scaler on the training folds and applies it to the test fold.

/// Per-dimension zero-mean unit-variance scaler.
#[derive(Clone, Debug)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Fits the scaler on row-major samples. Dimensions with zero
    /// variance get `std = 1` so they pass through centred.
    ///
    /// # Panics
    /// Panics if `samples` is empty or rows have inconsistent lengths.
    pub fn fit(samples: &[Vec<f64>]) -> Self {
        assert!(!samples.is_empty(), "cannot fit a scaler on no data");
        let dim = samples[0].len();
        assert!(samples.iter().all(|s| s.len() == dim), "ragged samples");
        let n = samples.len() as f64;
        let mut means = vec![0.0; dim];
        for s in samples {
            for (m, &x) in means.iter_mut().zip(s) {
                *m += x;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut vars = vec![0.0; dim];
        for s in samples {
            for ((v, &x), &m) in vars.iter_mut().zip(s).zip(&means) {
                *v += (x - m) * (x - m);
            }
        }
        let stds = vars
            .into_iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s > 1e-12 {
                    s
                } else {
                    1.0
                }
            })
            .collect();
        StandardScaler { means, stds }
    }

    /// Transforms one sample in place.
    pub fn transform_in_place(&self, sample: &mut [f64]) {
        assert_eq!(sample.len(), self.means.len(), "dimension mismatch");
        for ((x, &m), &s) in sample.iter_mut().zip(&self.means).zip(&self.stds) {
            *x = (*x - m) / s;
        }
    }

    /// Transforms a batch, returning new rows.
    pub fn transform(&self, samples: &[Vec<f64>]) -> Vec<Vec<f64>> {
        samples
            .iter()
            .map(|s| {
                let mut out = s.clone();
                self.transform_in_place(&mut out);
                out
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transformed_data_is_standardised() {
        let data = vec![
            vec![1.0, 100.0],
            vec![2.0, 200.0],
            vec![3.0, 300.0],
            vec![4.0, 400.0],
        ];
        let scaler = StandardScaler::fit(&data);
        let t = scaler.transform(&data);
        for d in 0..2 {
            let mean: f64 = t.iter().map(|r| r[d]).sum::<f64>() / 4.0;
            let var: f64 = t.iter().map(|r| (r[d] - mean).powi(2)).sum::<f64>() / 4.0;
            assert!(mean.abs() < 1e-12, "dim {d} mean {mean}");
            assert!((var - 1.0).abs() < 1e-9, "dim {d} var {var}");
        }
    }

    #[test]
    fn constant_dimension_passes_through_centred() {
        let data = vec![vec![5.0], vec![5.0], vec![5.0]];
        let scaler = StandardScaler::fit(&data);
        let t = scaler.transform(&data);
        assert!(t.iter().all(|r| r[0].abs() < 1e-12));
    }

    #[test]
    fn transform_uses_training_statistics() {
        let train = vec![vec![0.0], vec![2.0]]; // mean 1, std 1
        let scaler = StandardScaler::fit(&train);
        let mut unseen = vec![5.0];
        scaler.transform_in_place(&mut unseen);
        assert!((unseen[0] - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no data")]
    fn empty_fit_rejected() {
        StandardScaler::fit(&[]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dim_rejected() {
        let scaler = StandardScaler::fit(&[vec![1.0, 2.0]]);
        scaler.transform_in_place(&mut [1.0]);
    }
}
