//! Projected gradient ascent (Section IV-A, following Lin 2007).
//!
//! Each epoch accumulates the batch gradient over all (sub-)cascades —
//! exactly Algorithm 1's `dA`/`dB` accumulators — applies one step, and
//! projects onto the non-negativity constraints of eqs. 10–11 by
//! clamping at zero. The step size adapts: a step that *lowers* the
//! likelihood is rolled back and the rate halved, which makes the
//! optimiser robust across corpus sizes without per-experiment tuning.
//! Iteration stops early "when the corresponding log-likelihood no
//! longer increases or the max number of iterations is exceeded".
//!
//! The step rule's numbers — `LEARNING_RATE`, `TOLERANCE`, `MAX_VALUE` —
//! are constants, not [`PgdConfig`] fields: rollback and the per-corpus
//! step scaling adapt the optimiser to a corpus, no caller ever set them,
//! and a step rule is changed here, in one file, not through a config.

use crate::gradient::{accumulate_gradients, GradScratch};
use crate::subcascade::IndexedCascade;
use serde::{Deserialize, Serialize};
use viralcast_obs as obs;

/// Bucket bounds for the per-epoch gradient-norm histogram
/// (`pgd.grad_norm`), decades from 1e-3 to 1e3.
const GRAD_NORM_BOUNDS: [f64; 7] = [1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3];

/// Initial learning rate `α`. A step moves by `α / |cascades|` times the
/// accumulated gradient — the paper's pseudocode applies the raw sum;
/// dividing by the corpus size makes one rate work across corpus sizes.
const LEARNING_RATE: f64 = 0.1;
/// Early-stopping threshold: stop once the relative likelihood
/// improvement drops below this.
const TOLERANCE: f64 = 1e-5;
/// Upper clamp on embedding entries (keeps degenerate corpora from
/// driving rates to infinity).
const MAX_VALUE: f64 = 1e3;

/// Optimiser parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PgdConfig {
    /// Maximum number of epochs (full passes over the cascades).
    pub max_epochs: usize,
    /// Optional L1 shrinkage per entry (objective becomes
    /// `L − λ₁ Σ (A + B)`). Zero (the default) is the paper's exact
    /// objective; a small positive value drives components that carry
    /// no likelihood signal to zero, which makes communities occupy
    /// disjoint topic subspaces and sharpens rate recovery.
    pub l1_penalty: f64,
    /// Optional right-censoring: when set to the observation-window
    /// length `T`, nodes observed uninfected contribute their
    /// log-survival terms (see [`crate::censoring`]). `None` (the
    /// default) is the paper's eq. 8, which drops censored terms.
    pub censoring_window: Option<f64>,
}

impl Default for PgdConfig {
    fn default() -> Self {
        PgdConfig {
            max_epochs: 100,
            l1_penalty: 0.0,
            censoring_window: None,
        }
    }
}

/// What one optimisation run did.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PgdReport {
    /// Number of gradient epochs executed (rollback epochs included).
    pub epochs: usize,
    /// Log-likelihood at the initial parameters.
    pub initial_ll: f64,
    /// Data log-likelihood (without the L1 penalty) at the returned
    /// parameters.
    pub final_ll: f64,
    /// Per-epoch trace of the optimised objective (data LL minus the L1
    /// penalty when one is set), at the parameters *entering* each
    /// epoch; monotone non-decreasing thanks to rollback.
    pub ll_history: Vec<f64>,
}

impl PgdReport {
    /// A report for a run with nothing to optimise.
    pub fn empty() -> Self {
        PgdReport {
            epochs: 0,
            initial_ll: 0.0,
            final_ll: 0.0,
            ll_history: Vec::new(),
        }
    }
}

/// Maximises the corpus log-likelihood over the matrix block
/// `(a, b)` (row-major, `k` columns). Rows are addressed by the cascades'
/// local indices; every index must be below `a.len() / k`.
pub fn optimize(
    cascades: &[IndexedCascade],
    a: &mut [f64],
    b: &mut [f64],
    k: usize,
    config: &PgdConfig,
) -> PgdReport {
    assert_eq!(a.len(), b.len(), "matrix shapes must match");
    assert!(k > 0 && a.len() % k == 0, "bad topic count");
    if cascades.is_empty() || a.is_empty() {
        return PgdReport::empty();
    }
    debug_assert!(cascades
        .iter()
        .flat_map(|c| c.rows.iter())
        .all(|&r| (r as usize) < a.len() / k));

    let mut scratch = GradScratch::new(k);
    let mut grad_a = vec![0.0; a.len()];
    let mut grad_b = vec![0.0; b.len()];
    // Last *accepted* point, its gradient and its likelihood — the
    // rollback target when a step overshoots.
    let mut backup_a = a.to_vec();
    let mut backup_b = b.to_vec();
    let mut backup_grad_a = vec![0.0; a.len()];
    let mut backup_grad_b = vec![0.0; b.len()];

    let corpus_scale = 1.0 / cascades.len() as f64;
    let mut rate = LEARNING_RATE;
    let min_rate = LEARNING_RATE / 1024.0;
    let mut prev_ll = f64::NEG_INFINITY;
    let mut best_data_ll = 0.0;
    let mut history = Vec::new();
    let mut initial_ll = None;
    let mut epochs = 0;

    let take_step = |a: &mut [f64], b: &mut [f64], ga: &[f64], gb: &[f64], step: f64| {
        let shrink = step * config.l1_penalty;
        for (x, g) in a.iter_mut().zip(ga) {
            *x = (*x + step * g - shrink).clamp(0.0, MAX_VALUE);
        }
        for (x, g) in b.iter_mut().zip(gb) {
            *x = (*x + step * g - shrink).clamp(0.0, MAX_VALUE);
        }
    };
    // Accept/rollback decisions use the penalised objective so the L1
    // term cannot fight the line search; reports carry the raw data LL.
    let penalty = |a: &[f64], b: &[f64]| -> f64 {
        if config.l1_penalty == 0.0 {
            0.0
        } else {
            config.l1_penalty * (a.iter().sum::<f64>() + b.iter().sum::<f64>())
        }
    };

    let mut censor_scratch = config
        .censoring_window
        .map(|_| crate::censoring::CensorScratch::new(k));

    // Handles acquired once; the per-epoch updates below are plain
    // atomics, safe from inside rayon workers (run_level calls this
    // concurrently for every group of a level).
    let metrics = obs::metrics();
    let epoch_counter = metrics.counter("pgd.epochs");
    let accepted_counter = metrics.counter("pgd.accepted_steps");
    let rollback_counter = metrics.counter("pgd.rollbacks");
    let objective_gauge = metrics.gauge("pgd.objective");
    let grad_norm_hist = metrics.histogram("pgd.grad_norm", &GRAD_NORM_BOUNDS);

    while epochs < config.max_epochs {
        epochs += 1;
        epoch_counter.incr(1);
        grad_a.fill(0.0);
        grad_b.fill(0.0);
        let mut data_ll = 0.0;
        for c in cascades {
            data_ll += accumulate_gradients(c, a, b, k, &mut grad_a, &mut grad_b, &mut scratch);
        }
        if let (Some(window), Some(cs)) = (config.censoring_window, censor_scratch.as_mut()) {
            data_ll += crate::censoring::accumulate_censoring(
                cascades,
                a,
                b,
                k,
                window,
                &mut grad_a,
                &mut grad_b,
                cs,
            );
        }
        let ll = data_ll - penalty(a, b);
        initial_ll.get_or_insert(data_ll);

        if ll + 1e-12 < prev_ll {
            // The last step overshot: return to the accepted point and
            // immediately retry from there with a halved rate, reusing
            // its stored gradient.
            rollback_counter.incr(1);
            rate *= 0.5;
            if rate < min_rate {
                break;
            }
            a.copy_from_slice(&backup_a);
            b.copy_from_slice(&backup_b);
            take_step(a, b, &backup_grad_a, &backup_grad_b, rate * corpus_scale);
            continue;
        }

        history.push(ll);
        accepted_counter.incr(1);
        objective_gauge.set(ll);
        let grad_norm = grad_a
            .iter()
            .chain(grad_b.iter())
            .map(|g| g * g)
            .sum::<f64>()
            .sqrt();
        grad_norm_hist.record(grad_norm);
        let improved = ll - prev_ll;
        let converged = prev_ll.is_finite() && improved < TOLERANCE * (1.0 + ll.abs());
        prev_ll = ll;
        best_data_ll = data_ll;
        backup_a.copy_from_slice(a);
        backup_b.copy_from_slice(b);
        backup_grad_a.copy_from_slice(&grad_a);
        backup_grad_b.copy_from_slice(&grad_b);
        if converged {
            break;
        }
        take_step(a, b, &grad_a, &grad_b, rate * corpus_scale);
    }

    // The backup holds the best *evaluated* point; the current
    // parameters may carry an unevaluated trailing step. Return the
    // evaluated optimum so `final_ll` is exact.
    a.copy_from_slice(&backup_a);
    b.copy_from_slice(&backup_b);

    PgdReport {
        epochs,
        initial_ll: initial_ll.unwrap_or(0.0),
        final_ll: if prev_ll.is_finite() {
            best_data_ll
        } else {
            0.0
        },
        ll_history: history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::likelihood::corpus_log_likelihood;

    fn two_node(dt: f64) -> IndexedCascade {
        IndexedCascade {
            rows: vec![0, 1],
            times: vec![0.0, dt],
        }
    }

    #[test]
    fn recovers_mle_rate_for_two_nodes() {
        // Repeated 0 → 1 infections with delay dt: the MLE satisfies
        // A_0 B_1 = 1/dt (the individual factors are not identified).
        let dt = 0.5;
        let cascades = vec![two_node(dt); 30];
        let mut a = vec![0.3, 0.3];
        let mut b = vec![0.3, 0.3];
        let cfg = PgdConfig {
            max_epochs: 500,
            ..PgdConfig::default()
        };
        let report = optimize(&cascades, &mut a, &mut b, 1, &cfg);
        let rate = a[0] * b[1];
        assert!(
            (rate - 1.0 / dt).abs() < 0.05,
            "recovered rate {rate}, want {}",
            1.0 / dt
        );
        assert!(report.final_ll > report.initial_ll);
    }

    #[test]
    fn likelihood_never_decreases_along_history() {
        let cascades = vec![two_node(0.3), two_node(0.7), two_node(1.1)];
        let mut a = vec![0.5, 0.5];
        let mut b = vec![0.5, 0.5];
        let report = optimize(&cascades, &mut a, &mut b, 1, &PgdConfig::default());
        for w in report.ll_history.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "history decreased: {:?}", w);
        }
    }

    #[test]
    fn final_ll_matches_returned_parameters() {
        let cascades = vec![two_node(0.4), two_node(0.9)];
        let mut a = vec![0.4, 0.4];
        let mut b = vec![0.4, 0.4];
        let report = optimize(&cascades, &mut a, &mut b, 1, &PgdConfig::default());
        let direct = corpus_log_likelihood(&cascades, &a, &b, 1);
        assert!(
            (report.final_ll - direct).abs() < 1e-9,
            "report {} vs direct {direct}",
            report.final_ll
        );
    }

    #[test]
    fn projection_keeps_parameters_nonnegative() {
        let cascades = vec![two_node(10.0)]; // strong pull towards 0 rate
        let mut a = vec![0.2, 0.2];
        let mut b = vec![0.2, 0.2];
        optimize(&cascades, &mut a, &mut b, 1, &PgdConfig::default());
        assert!(a.iter().chain(b.iter()).all(|&x| x >= 0.0));
    }

    #[test]
    fn empty_inputs_are_noops() {
        let mut a = vec![0.5];
        let mut b = vec![0.5];
        let r = optimize(&[], &mut a, &mut b, 1, &PgdConfig::default());
        assert_eq!(r.epochs, 0);
        assert_eq!(a, vec![0.5]);

        let r2 = optimize(&[two_node(1.0)], &mut [], &mut [], 1, &PgdConfig::default());
        assert_eq!(r2.epochs, 0);
    }

    #[test]
    fn early_stopping_beats_epoch_budget() {
        let cascades = vec![two_node(0.5); 10];
        let mut a = vec![0.5, 0.5];
        let mut b = vec![0.5, 0.5];
        let cfg = PgdConfig {
            max_epochs: 10_000,
            ..PgdConfig::default()
        };
        let report = optimize(&cascades, &mut a, &mut b, 1, &cfg);
        assert!(
            report.epochs < 10_000,
            "ran all {} epochs without converging",
            report.epochs
        );
    }

    #[test]
    fn values_respect_upper_clamp() {
        // A tiny delay pushes the rate estimate very high; the clamp
        // must bound every entry.
        let cascades = vec![two_node(1e-6); 5];
        let mut a = vec![0.5, 0.5];
        let mut b = vec![0.5, 0.5];
        let cfg = PgdConfig {
            max_epochs: 300,
            ..PgdConfig::default()
        };
        optimize(&cascades, &mut a, &mut b, 1, &cfg);
        assert!(a.iter().chain(b.iter()).all(|&x| x <= MAX_VALUE));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// On random corpora the optimiser never lowers the likelihood
    /// and always returns non-negative, clamped parameters.
    #[test]
    fn optimizer_laws() {
        for case in 0..24 {
            let mut rng = StdRng::seed_from_u64(case);
            let cascades: Vec<IndexedCascade> = (0..rng.gen_range(1..8usize))
                .map(|_| {
                    let dt = rng.gen_range(0.05f64..3.0);
                    IndexedCascade {
                        rows: vec![0, 1, 2],
                        times: vec![0.0, dt, dt * 2.0],
                    }
                })
                .collect();
            let init = rng.gen_range(0.1f64..1.0);
            let mut a = vec![init; 6];
            let mut b = vec![init; 6];
            let cfg = PgdConfig {
                max_epochs: 50,
                ..PgdConfig::default()
            };
            let report = optimize(&cascades, &mut a, &mut b, 2, &cfg);
            assert!(
                report.final_ll >= report.initial_ll - 1e-9,
                "case {case}: likelihood fell from {} to {}",
                report.initial_ll,
                report.final_ll
            );
            assert!(
                a.iter()
                    .chain(b.iter())
                    .all(|&x| (0.0..=MAX_VALUE).contains(&x)),
                "case {case}: parameter outside [0, {MAX_VALUE}]"
            );
        }
    }
}
