//! Power-law (Pareto/Zipf) sampling and estimation.
//!
//! Figure 3 of the paper shows the "Matthew effect": the number of events
//! reported per news site follows a power law, with a handful of outlets
//! reporting millions of events while the bulk report 5 000–10 000. The
//! synthetic GDELT world draws site popularities from the continuous
//! Pareto distribution implemented here, and the Figure 3 harness checks
//! the recovered exponent with the Hill maximum-likelihood estimator and a
//! log-binned histogram.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A continuous power-law (Pareto) distribution with density
/// `p(x) ∝ x^(−exponent)` for `x ≥ x_min`.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PowerLaw {
    /// Scaling exponent `γ > 1`.
    pub exponent: f64,
    /// Lower cut-off `x_min > 0` (the paper cuts sites below 5 000 events).
    pub x_min: f64,
}

impl PowerLaw {
    /// Creates a power law, validating the parameter ranges.
    ///
    /// # Panics
    /// Panics if `exponent <= 1` (non-normalisable) or `x_min <= 0`.
    pub fn new(exponent: f64, x_min: f64) -> Self {
        assert!(
            exponent > 1.0,
            "power-law exponent must exceed 1, got {exponent}"
        );
        assert!(x_min > 0.0, "x_min must be positive, got {x_min}");
        PowerLaw { exponent, x_min }
    }

    /// Draws one sample by inverse-CDF: `x = x_min (1 − U)^(−1/(γ−1))`.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.x_min * (1.0 - u).powf(-1.0 / (self.exponent - 1.0))
    }

    /// Draws `count` samples.
    pub fn sample_many<R: Rng>(&self, count: usize, rng: &mut R) -> Vec<f64> {
        (0..count).map(|_| self.sample(rng)).collect()
    }

    /// Hill maximum-likelihood estimate of the exponent from samples that
    /// are all `≥ x_min`: `γ̂ = 1 + n / Σ ln(x_i / x_min)`.
    ///
    /// Returns `None` if no sample clears `x_min`.
    pub fn mle_exponent(samples: &[f64], x_min: f64) -> Option<f64> {
        let mut n = 0usize;
        let mut sum = 0.0;
        for &x in samples {
            if x >= x_min {
                n += 1;
                sum += (x / x_min).ln();
            }
        }
        if n == 0 || sum <= 0.0 {
            None
        } else {
            Some(1.0 + n as f64 / sum)
        }
    }
}

/// One bar of a logarithmically binned histogram.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LogBin {
    /// Inclusive lower edge.
    pub lo: f64,
    /// Exclusive upper edge.
    pub hi: f64,
    /// Number of samples in `[lo, hi)`.
    pub count: usize,
}

/// Bins positive samples into `bins_per_decade` logarithmic bins starting
/// at `x_min`; samples below `x_min` are dropped (the paper's Figure 3
/// applies exactly such a cut-off).
pub fn log_binned_histogram(samples: &[f64], x_min: f64, bins_per_decade: usize) -> Vec<LogBin> {
    assert!(x_min > 0.0 && bins_per_decade > 0);
    let max = samples.iter().cloned().fold(x_min, f64::max);
    let ratio = 10f64.powf(1.0 / bins_per_decade as f64);
    let nbins = ((max / x_min).ln() / ratio.ln()).floor() as usize + 1;
    let mut bins: Vec<LogBin> = (0..nbins)
        .map(|i| LogBin {
            lo: x_min * ratio.powi(i as i32),
            hi: x_min * ratio.powi(i as i32 + 1),
            count: 0,
        })
        .collect();
    for &x in samples {
        if x < x_min {
            continue;
        }
        let i = ((x / x_min).ln() / ratio.ln()).floor() as usize;
        let i = i.min(nbins - 1);
        bins[i].count += 1;
    }
    bins
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_respect_lower_cutoff() {
        let pl = PowerLaw::new(2.3, 5_000.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1_000 {
            assert!(pl.sample(&mut rng) >= 5_000.0);
        }
    }

    #[test]
    fn mle_recovers_exponent() {
        let pl = PowerLaw::new(2.5, 1.0);
        let mut rng = StdRng::seed_from_u64(2);
        let xs = pl.sample_many(50_000, &mut rng);
        let est = PowerLaw::mle_exponent(&xs, 1.0).unwrap();
        assert!(
            (est - 2.5).abs() < 0.05,
            "estimated exponent {est} far from 2.5"
        );
    }

    #[test]
    fn mle_ignores_samples_below_cutoff() {
        let xs = vec![0.5, 0.9, 2.0, 4.0, 8.0];
        let with_cut = PowerLaw::mle_exponent(&xs, 1.0).unwrap();
        let only_tail = PowerLaw::mle_exponent(&[2.0, 4.0, 8.0], 1.0).unwrap();
        assert!((with_cut - only_tail).abs() < 1e-12);
    }

    #[test]
    fn mle_empty_tail_is_none() {
        assert!(PowerLaw::mle_exponent(&[0.1, 0.2], 1.0).is_none());
        assert!(PowerLaw::mle_exponent(&[], 1.0).is_none());
    }

    #[test]
    fn histogram_counts_everything_above_cutoff() {
        let xs = vec![1.0, 2.0, 5.0, 30.0, 99.0, 0.5];
        let bins = log_binned_histogram(&xs, 1.0, 2);
        let total: usize = bins.iter().map(|b| b.count).sum();
        assert_eq!(total, 5); // 0.5 dropped
    }

    #[test]
    fn histogram_edges_are_geometric() {
        let bins = log_binned_histogram(&[1.0, 10.0, 100.0], 1.0, 1);
        for b in &bins {
            assert!((b.hi / b.lo - 10.0).abs() < 1e-9);
        }
        assert!(bins.len() >= 3);
    }

    #[test]
    fn heavier_tail_for_smaller_exponent() {
        // Smaller γ ⇒ heavier tail ⇒ larger high quantiles.
        let mut rng = StdRng::seed_from_u64(3);
        let light = PowerLaw::new(3.5, 1.0).sample_many(20_000, &mut rng);
        let heavy = PowerLaw::new(1.8, 1.0).sample_many(20_000, &mut rng);
        let q = |mut v: Vec<f64>| {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[(v.len() as f64 * 0.999) as usize]
        };
        assert!(q(heavy) > q(light));
    }

    #[test]
    #[should_panic(expected = "exponent must exceed 1")]
    fn rejects_flat_exponent() {
        PowerLaw::new(1.0, 1.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Every sample lies at or above the cut-off for any valid
    /// parameterisation.
    #[test]
    fn samples_above_xmin() {
        for case in 0..48 {
            let mut rng = StdRng::seed_from_u64(case);
            let exp = rng.gen_range(1.1f64..4.0);
            let xmin = rng.gen_range(0.01f64..1000.0);
            let pl = PowerLaw::new(exp, xmin);
            for _ in 0..50 {
                let x = pl.sample(&mut rng);
                assert!(x >= xmin, "case {case}: {x} < {xmin} (exponent {exp})");
            }
        }
    }

    /// Histogram bins tile [x_min, max] without gaps or overlaps.
    #[test]
    fn histogram_bins_tile() {
        for case in 0..48 {
            let mut rng = StdRng::seed_from_u64(case);
            let xs: Vec<f64> = (0..rng.gen_range(1..200usize))
                .map(|_| rng.gen_range(1.0f64..1e6))
                .collect();
            let bpd = rng.gen_range(1usize..6);
            let bins = log_binned_histogram(&xs, 1.0, bpd);
            for w in bins.windows(2) {
                assert!(
                    (w[0].hi - w[1].lo).abs() < 1e-6 * w[0].hi,
                    "case {case}: gap between {} and {}",
                    w[0].hi,
                    w[1].lo
                );
            }
            let total: usize = bins.iter().map(|b| b.count).sum();
            assert_eq!(total, xs.len(), "case {case}");
        }
    }
}
