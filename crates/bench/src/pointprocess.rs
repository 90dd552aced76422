//! Self-exciting point-process baseline (the paper's "second category"
//! of virality predictors, Section V).
//!
//! SEISMIC (Zhao et al., KDD 2015) and its relatives treat the mention
//! count as a self-exciting counting process: every adoption triggers
//! future adoptions through a memory kernel, and the final size is
//! extrapolated from the process state at observation time — no network
//! topology and no node identities needed. The paper contrasts its
//! feature-based approach against exactly this family, so we provide a
//! Hawkes-with-exponential-kernel estimator as the comparison baseline.
//!
//! Model: intensity `λ(t) = ν ω Σ_{t_i < t} e^{−ω (t − t_i)}` with
//! branching factor `ν < 1` and kernel decay `ω`. In expectation each
//! adoption ultimately triggers `ν/(1−ν)` descendants, and an adoption
//! at `t_i` still owes `ν e^{−ω (t_obs − t_i)}` *direct* children after
//! `t_obs`, so the expected final size given the early history is
//!
//! ```text
//! N̂(∞) = N(t_obs) + (ν / (1 − ν)) Σ_i e^{−ω (t_obs − t_i)}
//! ```
//!
//! Fitting uses a coarse-to-fine grid search minimising squared
//! prediction error on a training corpus — deliberately simple, like
//! the paper's choice of a plain linear SVM: the baseline should
//! represent its family, not win engineering points.

use viralcast::propagation::CascadeSet;

/// A fitted Hawkes size extrapolator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HawkesPredictor {
    /// Branching factor `ν ∈ [0, 1)`.
    pub branching: f64,
    /// Kernel decay rate `ω > 0`.
    pub decay: f64,
}

/// Fitting configuration.
#[derive(Clone, Copy, Debug)]
pub struct HawkesFitConfig {
    /// Observation cut-off as a fraction of the window (matches the
    /// feature pipeline's `early_fraction`).
    pub early_fraction: f64,
    /// Observation-window length.
    pub window: f64,
    /// Grid resolution per refinement pass.
    pub grid: usize,
    /// Refinement passes.
    pub passes: usize,
}

impl Default for HawkesFitConfig {
    fn default() -> Self {
        HawkesFitConfig {
            early_fraction: 2.0 / 7.0,
            window: 1.0,
            grid: 12,
            passes: 3,
        }
    }
}

impl HawkesPredictor {
    /// Expected final size from the early adoption times observed up to
    /// `t_obs`. Returns at least the observed count.
    pub fn predict(&self, early_times: &[f64], t_obs: f64) -> f64 {
        if early_times.is_empty() {
            return 0.0;
        }
        let pressure: f64 = early_times
            .iter()
            .map(|&t| (-self.decay * (t_obs - t).max(0.0)).exp())
            .sum();
        early_times.len() as f64 + self.branching / (1.0 - self.branching) * pressure
    }

    /// Fits `(ν, ω)` on a training corpus by refining a grid around the
    /// best squared-error cell.
    pub fn fit(corpus: &CascadeSet, config: &HawkesFitConfig) -> HawkesPredictor {
        assert!(
            (0.0..1.0).contains(&config.early_fraction) && config.window > 0.0,
            "invalid fit configuration"
        );
        // Pre-extract (early_times relative to seed, final size).
        let samples: Vec<(Vec<f64>, f64)> = corpus
            .cascades()
            .iter()
            .map(|c| {
                let seed = c.seed().time;
                let early: Vec<f64> = c
                    .early_adopters(config.window, config.early_fraction)
                    .iter()
                    .map(|i| i.time - seed)
                    .collect();
                (early, c.len() as f64)
            })
            .collect();
        let t_obs = config.window * config.early_fraction;

        let (mut nu_lo, mut nu_hi) = (0.0f64, 0.95f64);
        let (mut om_lo, mut om_hi) = (0.1f64 / config.window, 50.0f64 / config.window);
        let mut best = HawkesPredictor {
            branching: 0.5,
            decay: 1.0 / config.window,
        };
        for _ in 0..config.passes.max(1) {
            let mut best_err = f64::INFINITY;
            let mut best_cell = (nu_lo, om_lo);
            for i in 0..=config.grid {
                let nu = nu_lo + (nu_hi - nu_lo) * i as f64 / config.grid as f64;
                for j in 0..=config.grid {
                    // Decay is scanned on a log scale.
                    let om = om_lo * (om_hi / om_lo).powf(j as f64 / config.grid as f64);
                    let candidate = HawkesPredictor {
                        branching: nu.min(0.99),
                        decay: om,
                    };
                    let err: f64 = samples
                        .iter()
                        .map(|(early, size)| {
                            let p = candidate.predict(early, t_obs);
                            (p - size) * (p - size)
                        })
                        .sum();
                    if err < best_err {
                        best_err = err;
                        best = candidate;
                        best_cell = (nu, om);
                    }
                }
            }
            // Shrink the search box around the winner.
            let nu_span = (nu_hi - nu_lo) / config.grid as f64 * 2.0;
            nu_lo = (best_cell.0 - nu_span).max(0.0);
            nu_hi = (best_cell.0 + nu_span).min(0.99);
            let om_ratio = (om_hi / om_lo).powf(1.0 / config.grid as f64);
            om_lo = best_cell.1 / om_ratio / om_ratio;
            om_hi = best_cell.1 * om_ratio * om_ratio;
        }
        best
    }

    /// Classifies cascades as viral (`+1`) when the predicted final
    /// size exceeds `threshold` — the regression-to-classification
    /// bridge used to compare against the SVM pipeline's F1.
    pub fn classify(
        &self,
        corpus: &CascadeSet,
        config: &HawkesFitConfig,
        threshold: usize,
    ) -> Vec<i8> {
        let t_obs = config.window * config.early_fraction;
        corpus
            .cascades()
            .iter()
            .map(|c| {
                let seed = c.seed().time;
                let early: Vec<f64> = c
                    .early_adopters(config.window, config.early_fraction)
                    .iter()
                    .map(|i| i.time - seed)
                    .collect();
                if self.predict(&early, t_obs) > threshold as f64 {
                    1
                } else {
                    -1
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viralcast::predict::metrics::BinaryConfusion;
    use viralcast::propagation::{Cascade, CascadeSet, Infection};

    /// A corpus where final size is exactly 3× the early count — a
    /// branching process the Hawkes form can represent.
    fn proportional_corpus() -> CascadeSet {
        let mut cascades = Vec::new();
        for m in 1..=12usize {
            // `m` early adopters in [0, 0.28), then 2m later adopters.
            let mut infs = Vec::new();
            for i in 0..m {
                infs.push(Infection::new(i as u32, 0.27 * i as f64 / m as f64));
            }
            for j in 0..(2 * m) {
                infs.push(Infection::new(
                    (m + j) as u32,
                    0.3 + 0.69 * j as f64 / (2 * m) as f64,
                ));
            }
            cascades.push(Cascade::new(infs).unwrap());
        }
        CascadeSet::new(100, cascades)
    }

    #[test]
    fn prediction_grows_with_early_count() {
        let p = HawkesPredictor {
            branching: 0.5,
            decay: 2.0,
        };
        let small = p.predict(&[0.0, 0.1], 0.28);
        let large = p.predict(&[0.0, 0.05, 0.1, 0.15, 0.2], 0.28);
        assert!(large > small);
    }

    #[test]
    fn prediction_at_least_observed() {
        let p = HawkesPredictor {
            branching: 0.3,
            decay: 5.0,
        };
        let times = [0.0, 0.1, 0.2];
        assert!(p.predict(&times, 0.28) >= 3.0);
        assert_eq!(p.predict(&[], 0.28), 0.0);
    }

    #[test]
    fn recent_adoptions_exert_more_pressure() {
        let p = HawkesPredictor {
            branching: 0.5,
            decay: 10.0,
        };
        let fresh = p.predict(&[0.27], 0.28);
        let stale = p.predict(&[0.0], 0.28);
        assert!(fresh > stale);
    }

    #[test]
    fn fit_learns_proportional_growth() {
        let corpus = proportional_corpus();
        let config = HawkesFitConfig::default();
        let model = HawkesPredictor::fit(&corpus, &config);
        // Check relative prediction error on the training corpus.
        let t_obs = config.window * config.early_fraction;
        let mut rel_err = 0.0;
        let mut n = 0;
        for c in corpus.cascades() {
            let early: Vec<f64> = c
                .early_adopters(config.window, config.early_fraction)
                .iter()
                .map(|i| i.time)
                .collect();
            let pred = model.predict(&early, t_obs);
            rel_err += (pred - c.len() as f64).abs() / c.len() as f64;
            n += 1;
        }
        rel_err /= n as f64;
        assert!(rel_err < 0.25, "mean relative error {rel_err}");
    }

    #[test]
    fn classification_beats_chance_on_proportional_corpus() {
        let corpus = proportional_corpus();
        let config = HawkesFitConfig::default();
        let model = HawkesPredictor::fit(&corpus, &config);
        // Viral = final size > 18 (the 6 largest of 12 cascades).
        let truth: Vec<i8> = corpus
            .cascades()
            .iter()
            .map(|c| if c.len() > 18 { 1 } else { -1 })
            .collect();
        let pred = model.classify(&corpus, &config, 18);
        let m = BinaryConfusion::from_predictions(&truth, &pred);
        assert!(m.f1() > 0.8, "baseline F1 {} on an easy corpus", m.f1());
    }

    #[test]
    fn fit_is_deterministic() {
        let corpus = proportional_corpus();
        let config = HawkesFitConfig::default();
        let a = HawkesPredictor::fit(&corpus, &config);
        let b = HawkesPredictor::fit(&corpus, &config);
        assert_eq!(a, b);
    }

    #[test]
    fn prediction_monotone_in_branching() {
        let times = [0.0, 0.1, 0.2];
        let low = HawkesPredictor {
            branching: 0.2,
            decay: 3.0,
        };
        let high = HawkesPredictor {
            branching: 0.8,
            decay: 3.0,
        };
        assert!(high.predict(&times, 0.28) > low.predict(&times, 0.28));
    }

    #[test]
    #[should_panic(expected = "invalid fit configuration")]
    fn bad_config_rejected() {
        let corpus = proportional_corpus();
        HawkesPredictor::fit(
            &corpus,
            &HawkesFitConfig {
                early_fraction: 1.5,
                ..HawkesFitConfig::default()
            },
        );
    }
}
