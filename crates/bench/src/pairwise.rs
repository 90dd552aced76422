//! The `O(n²)` edge-based comparator the paper argues against.
//!
//! Prior work (NetRate / NetInf / Gomez-Rodriguez et al.) infers one
//! transmission rate *per directed link*: "given the observed cascades
//! in which n nodes are involved, O(n²) potential edges need to be
//! taken into consideration". The node-embedding model replaces those
//! `O(n²)` parameters with `2nK`. This module implements the pairwise
//! model — restricted, as practical implementations are, to ordered
//! pairs that actually co-occur in some cascade — so the repo can
//! measure the parameter-count, runtime and generalisation trade-off
//! that motivates the paper (see the `ablation_pairwise` bin).
//!
//! Likelihood (same survival framework, eq. 5, with per-pair rates):
//!
//! ```text
//! L_c = Σ_{v ∈ c, v ≠ seed} [ Σ_{l ≺ v} −(t_v − t_l) λ_{lv}
//!                             + ln Σ_{u ≺ v} λ_{uv} ]
//! ```
//!
//! maximised by projected gradient ascent over the sparse rate table.

use std::collections::HashMap;
use viralcast::embed::likelihood::RATE_FLOOR;
use viralcast::embed::IndexedCascade;

/// A sparse per-link rate table over observed co-occurring pairs.
#[derive(Clone, Debug)]
pub struct PairwiseModel {
    /// `(source_row, target_row) → rate index`.
    index: HashMap<(u32, u32), usize>,
    /// Rate values, parallel to the index.
    rates: Vec<f64>,
}

/// Fit configuration.
#[derive(Clone, Copy, Debug)]
pub struct PairwiseConfig {
    /// Learning rate of the batch gradient ascent.
    pub learning_rate: f64,
    /// Maximum epochs.
    pub max_epochs: usize,
    /// Early-stopping tolerance (relative LL improvement).
    pub tolerance: f64,
    /// Upper clamp on rates.
    pub max_rate: f64,
    /// Initial rate for every candidate pair.
    pub init_rate: f64,
}

impl Default for PairwiseConfig {
    fn default() -> Self {
        PairwiseConfig {
            learning_rate: 0.1,
            max_epochs: 100,
            tolerance: 1e-5,
            max_rate: 1e3,
            init_rate: 0.1,
        }
    }
}

/// Fit report.
#[derive(Clone, Debug)]
pub struct PairwiseReport {
    /// Number of free parameters (observed candidate links).
    pub parameters: usize,
    /// Epochs executed.
    pub epochs: usize,
    /// Final training log-likelihood.
    pub final_ll: f64,
}

impl PairwiseModel {
    /// Builds the candidate-pair index from the corpus and fits the
    /// rates by batch projected gradient ascent.
    pub fn fit(cascades: &[IndexedCascade], config: &PairwiseConfig) -> (Self, PairwiseReport) {
        // Candidate links: ordered pairs (u before v) seen in any cascade.
        let mut index: HashMap<(u32, u32), usize> = HashMap::new();
        for c in cascades {
            for i in 0..c.len() {
                for j in (i + 1)..c.len() {
                    let key = (c.rows[i], c.rows[j]);
                    let next = index.len();
                    index.entry(key).or_insert(next);
                }
            }
        }
        let mut rates = vec![config.init_rate; index.len()];
        let mut grad = vec![0.0; rates.len()];
        let mut prev_ll = f64::NEG_INFINITY;
        let mut epochs = 0;
        let mut rate_step = config.learning_rate / cascades.len().max(1) as f64;
        let mut backup = rates.clone();

        while epochs < config.max_epochs {
            epochs += 1;
            grad.fill(0.0);
            let ll = Self::accumulate(&index, &rates, cascades, &mut grad);
            if ll + 1e-12 < prev_ll {
                rates.copy_from_slice(&backup);
                rate_step *= 0.5;
                if rate_step < config.learning_rate / cascades.len().max(1) as f64 / 1024.0 {
                    break;
                }
                continue;
            }
            let converged =
                prev_ll.is_finite() && ll - prev_ll < config.tolerance * (1.0 + ll.abs());
            prev_ll = ll;
            backup.copy_from_slice(&rates);
            if converged {
                break;
            }
            for (r, g) in rates.iter_mut().zip(&grad) {
                *r = (*r + rate_step * g).clamp(0.0, config.max_rate);
            }
        }
        rates.copy_from_slice(&backup);
        let report = PairwiseReport {
            parameters: index.len(),
            epochs,
            final_ll: if prev_ll.is_finite() { prev_ll } else { 0.0 },
        };
        (PairwiseModel { index, rates }, report)
    }

    /// One gradient pass; returns the corpus LL at the current rates.
    fn accumulate(
        index: &HashMap<(u32, u32), usize>,
        rates: &[f64],
        cascades: &[IndexedCascade],
        grad: &mut [f64],
    ) -> f64 {
        let mut ll = 0.0;
        for c in cascades {
            for j in 1..c.len() {
                let tv = c.times[j];
                // Sum of candidate rates into v.
                let mut total = 0.0;
                for i in 0..j {
                    let idx = index[&(c.rows[i], c.rows[j])];
                    total += rates[idx];
                }
                let denom = total.max(RATE_FLOOR);
                for i in 0..j {
                    let idx = index[&(c.rows[i], c.rows[j])];
                    let dt = tv - c.times[i];
                    ll -= dt * rates[idx];
                    grad[idx] += -dt + 1.0 / denom;
                }
                ll += denom.ln();
            }
        }
        ll
    }

    /// The modelled rate of `u → v` (0 for never-observed pairs).
    pub fn rate(&self, u: u32, v: u32) -> f64 {
        self.index.get(&(u, v)).map_or(0.0, |&i| self.rates[i])
    }

    /// Number of free parameters.
    pub fn parameter_count(&self) -> usize {
        self.rates.len()
    }

    /// Held-out log-likelihood of a corpus under the fitted rates
    /// (unseen pairs contribute the rate floor).
    pub fn log_likelihood(&self, cascades: &[IndexedCascade]) -> f64 {
        let mut ll = 0.0;
        for c in cascades {
            for j in 1..c.len() {
                let tv = c.times[j];
                let mut total = 0.0;
                for i in 0..j {
                    let r = self.rate(c.rows[i], c.rows[j]);
                    total += r;
                    ll -= (tv - c.times[i]) * r;
                }
                ll += total.max(RATE_FLOOR).ln();
            }
        }
        ll
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node(dt: f64) -> IndexedCascade {
        IndexedCascade {
            rows: vec![0, 1],
            times: vec![0.0, dt],
        }
    }

    #[test]
    fn recovers_pairwise_mle() {
        // Repeated 0 → 1 with delay dt: the MLE rate is 1/dt, directly.
        let cascades = vec![two_node(0.5); 20];
        let (model, report) = PairwiseModel::fit(&cascades, &PairwiseConfig::default());
        assert_eq!(report.parameters, 1);
        let rate = model.rate(0, 1);
        assert!((rate - 2.0).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn parameter_count_grows_with_pairs() {
        // A single 4-node cascade exposes C(4,2) = 6 ordered pairs.
        let cascades = vec![IndexedCascade {
            rows: vec![0, 1, 2, 3],
            times: vec![0.0, 0.1, 0.2, 0.3],
        }];
        let (model, _) = PairwiseModel::fit(&cascades, &PairwiseConfig::default());
        assert_eq!(model.parameter_count(), 6);
    }

    #[test]
    fn unseen_pairs_have_zero_rate() {
        let cascades = vec![two_node(0.5)];
        let (model, _) = PairwiseModel::fit(&cascades, &PairwiseConfig::default());
        assert_eq!(model.rate(1, 0), 0.0);
        assert_eq!(model.rate(5, 7), 0.0);
    }

    #[test]
    fn training_ll_not_decreasing() {
        let cascades = vec![two_node(0.5), two_node(1.5), two_node(0.9)];
        let (model, report) = PairwiseModel::fit(&cascades, &PairwiseConfig::default());
        let direct = model.log_likelihood(&cascades);
        assert!((report.final_ll - direct).abs() < 1e-9);
        // And better than the init.
        let init = PairwiseModel {
            index: model.index.clone(),
            rates: vec![0.1; model.parameter_count()],
        };
        assert!(model.log_likelihood(&cascades) >= init.log_likelihood(&cascades));
    }

    #[test]
    fn held_out_ll_penalises_unseen_pairs() {
        let train = vec![two_node(0.5); 10];
        let (model, _) = PairwiseModel::fit(&train, &PairwiseConfig::default());
        // A held-out cascade over unseen rows gets the floor ln.
        let unseen = vec![IndexedCascade {
            rows: vec![2, 3],
            times: vec![0.0, 0.5],
        }];
        let ll = model.log_likelihood(&unseen);
        assert!(
            ll < -20.0,
            "unseen pair should be heavily penalised, got {ll}"
        );
    }

    #[test]
    fn deterministic() {
        let cascades = vec![two_node(0.4), two_node(0.8)];
        let (a, _) = PairwiseModel::fit(&cascades, &PairwiseConfig::default());
        let (b, _) = PairwiseModel::fit(&cascades, &PairwiseConfig::default());
        assert_eq!(a.rates, b.rates);
    }
}
