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

use crate::gradient::{sweep_backward, sweep_forward, GradScratch};
use crate::subcascade::IndexedCascade;
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
#[derive(Clone, Copy, Debug)]
pub struct PgdConfig {
    /// Maximum number of epochs (full passes over the cascades).
    pub max_epochs: usize,
    /// Optional L1 shrinkage per entry (objective becomes
    /// `L − λ₁ Σ (A + B)`). Zero (the default) is the paper's exact
    /// objective; a small positive value drives components that carry
    /// no likelihood signal to zero, which makes communities occupy
    /// disjoint topic subspaces and sharpens rate recovery.
    pub l1_penalty: f64,
}

impl Default for PgdConfig {
    fn default() -> Self {
        PgdConfig {
            max_epochs: 100,
            l1_penalty: 0.0,
        }
    }
}

/// What one optimisation run did.
#[derive(Clone, Debug)]
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
    if cascades.is_empty() || a.is_empty() || config.max_epochs == 0 {
        return PgdReport::empty();
    }
    debug_assert!(cascades
        .iter()
        .flat_map(|c| c.rows.iter())
        .all(|&r| (r as usize) < a.len() / k));

    let mut scratch = GradScratch::new(k);
    // The trial point and the last *accepted* point — the rollback target
    // when a step overshoots — each with its gradient. Accepting a trial
    // swaps the two; every step reads `best` and writes `trial`.
    let (mut trial_a, mut trial_b) = (a.to_vec(), b.to_vec());
    let (mut grad_a, mut grad_b) = (vec![0.0; a.len()], vec![0.0; b.len()]);
    let (mut best_a, mut best_b) = (vec![0.0; a.len()], vec![0.0; b.len()]);
    let (mut best_grad_a, mut best_grad_b) = (vec![0.0; a.len()], vec![0.0; b.len()]);
    // `Σ (A + B)` at the trial point, for the L1 penalty: all of `a`, then
    // all of `b`.
    let mut l1_mass = a.iter().sum::<f64>() + b.iter().sum::<f64>();

    let corpus_scale = 1.0 / cascades.len() as f64;
    let infections: u64 = cascades.iter().map(|c| c.len() as u64).sum();
    let mut rate = LEARNING_RATE;
    let min_rate = LEARNING_RATE / 1024.0;
    let mut prev_ll = f64::NEG_INFINITY;
    let mut best_data_ll = 0.0;
    let mut history = Vec::new();
    let mut initial_ll = None;
    let mut epochs = 0;

    // One projected step `x = clamp(from + step·g − step·λ₁)`; returns `Σ x`,
    // taken by the same `Sum` the penalty always used, so it keeps its bits.
    let step_from = |x: &mut [f64], from: &[f64], grad: &[f64], step: f64| -> f64 {
        let shrink = step * config.l1_penalty;
        let stepped = x.iter_mut().zip(from).zip(grad).map(|((x, x0), g)| {
            *x = (x0 + step * g - shrink).clamp(0.0, MAX_VALUE);
            *x
        });
        stepped.sum()
    };

    // Handles acquired once; the per-epoch updates below are plain
    // atomics, safe from inside rayon workers (run_level calls this
    // concurrently for every group of a level).
    let metrics = obs::metrics();
    let epoch_counter = metrics.counter("pgd.epochs");
    let swept_counter = metrics.counter("pgd.infections_swept");
    let accepted_counter = metrics.counter("pgd.accepted_steps");
    let rollback_counter = metrics.counter("pgd.rollbacks");
    let objective_gauge = metrics.gauge("pgd.objective");
    let grad_norm_hist = metrics.histogram("pgd.grad_norm", &GRAD_NORM_BOUNDS);

    // One epoch buffer of denominators: every cascade's, in corpus order.
    let mut denoms = Vec::new();

    while epochs < config.max_epochs {
        epochs += 1;
        epoch_counter.incr(1);
        swept_counter.incr(infections);
        // The forward half at the trial point: the data log-likelihood,
        // `∇B` and the denominators the backward half reads.
        grad_b.fill(0.0);
        denoms.clear();
        let mut data_ll = 0.0;
        for c in cascades {
            data_ll += sweep_forward(
                c,
                &trial_a,
                &trial_b,
                k,
                &mut grad_b,
                &mut denoms,
                &mut scratch,
            );
        }
        // Accept/rollback decisions use the penalised objective so the L1
        // term cannot fight the line search; reports carry the raw data LL.
        let penalty = if config.l1_penalty == 0.0 {
            0.0
        } else {
            config.l1_penalty * l1_mass
        };
        let ll = data_ll - penalty;
        initial_ll.get_or_insert(data_ll);

        if ll + 1e-12 < prev_ll {
            // The last step overshot: retry from the accepted point with a
            // halved rate, reusing its stored gradient.
            rollback_counter.incr(1);
            rate *= 0.5;
            if rate < min_rate {
                break;
            }
        } else {
            // The backward half, for a kept point only: `∇A` from the
            // denominators its forward half left.
            grad_a.fill(0.0);
            let mut rest = denoms.as_slice();
            for c in cascades {
                let (denom, tail) = rest.split_at(c.len().saturating_sub(1));
                sweep_backward(c, &trial_b, k, &mut grad_a, denom, &mut scratch);
                rest = tail;
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
            std::mem::swap(&mut trial_a, &mut best_a);
            std::mem::swap(&mut trial_b, &mut best_b);
            std::mem::swap(&mut grad_a, &mut best_grad_a);
            std::mem::swap(&mut grad_b, &mut best_grad_b);
            if converged {
                break;
            }
        }
        let step = rate * corpus_scale;
        l1_mass = step_from(&mut trial_a, &best_a, &best_grad_a, step)
            + step_from(&mut trial_b, &best_b, &best_grad_b, step);
    }

    // `best` holds the best *evaluated* point (the first epoch always
    // accepts); the trial may carry an unevaluated trailing step. Return
    // the evaluated optimum so `final_ll` is exact.
    a.copy_from_slice(&best_a);
    b.copy_from_slice(&best_b);

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
        // Same expression, same order: equal to the last bit.
        assert_eq!(report.final_ll.to_bits(), direct.to_bits());
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

        // No epoch means no point was ever accepted: the block must come
        // back as it went in, not as whatever the buffers started with.
        let cfg = PgdConfig {
            max_epochs: 0,
            ..PgdConfig::default()
        };
        let (mut a, mut b) = (vec![0.5, 0.25], vec![0.125, 2.0]);
        for cascades in [vec![two_node(1.0)], vec![]] {
            let r = optimize(&cascades, &mut a, &mut b, 1, &cfg);
            assert_eq!((r.epochs, r.final_ll), (0, 0.0));
            assert!(r.ll_history.is_empty());
            assert_eq!((&a, &b), (&vec![0.5, 0.25], &vec![0.125, 2.0]));
        }
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

    /// A run as bits: epochs, rollbacks, `initial_ll`, `final_ll`, a
    /// fold over `ll_history` and a fold over `a` then `b`.
    fn fingerprint(r: &PgdReport, a: &[f64], b: &[f64]) -> (usize, usize, u64, u64, u64, u64) {
        let fold = |xs: &mut dyn Iterator<Item = &f64>| {
            xs.fold(0u64, |h, x| h.rotate_left(5) ^ x.to_bits())
        };
        (
            r.epochs,
            r.epochs - r.ll_history.len(),
            r.initial_ll.to_bits(),
            r.final_ll.to_bits(),
            fold(&mut r.ll_history.iter()),
            fold(&mut a.iter().chain(b)),
        )
    }

    /// Four rows, two topics, cascades of length 3, 2 and 4.
    fn small_corpus() -> (Vec<IndexedCascade>, Vec<f64>, Vec<f64>) {
        let cascades = vec![
            IndexedCascade {
                rows: vec![0, 1, 2],
                times: vec![0.0, 0.4, 0.9],
            },
            IndexedCascade {
                rows: vec![1, 3],
                times: vec![0.0, 0.6],
            },
            IndexedCascade {
                rows: vec![2, 0, 3, 1],
                times: vec![0.0, 0.3, 0.3, 1.2],
            },
        ];
        let a = (0..8)
            .map(|i| ((i * 7 + 3) % 11) as f64 / 10.0 + 0.1)
            .collect();
        let b = (0..8)
            .map(|i| ((i * 5 + 1) % 13) as f64 / 12.0 + 0.1)
            .collect();
        (cascades, a, b)
    }

    /// Printed at the commit before the epoch loop swapped buffers
    /// instead of copying them; a change that is not meant to move the
    /// optimiser must keep producing every number here.
    #[test]
    fn epoch_loop_is_pinned() {
        let run = |cs: &[IndexedCascade], mut a: Vec<f64>, mut b: Vec<f64>, k, cfg: &PgdConfig| {
            let r = optimize(cs, &mut a, &mut b, k, cfg);
            (fingerprint(&r, &a, &b), a, b)
        };
        let default = PgdConfig::default();

        // Every step accepted, to the epoch cap.
        let (cs, a, b) = small_corpus();
        assert_eq!(
            run(&cs, a, b, 2, &default).0,
            (
                100,
                0,
                13839598857070500532,
                13829143933927533182,
                14580438010090005003,
                592669852655308045
            )
        );

        // One overshoot, rolled back, then recovered and converged.
        let at = |x: f64| (vec![x, x], vec![x, x]);
        let (a, b) = at(0.2);
        assert_eq!(
            run(&[two_node(10.0)], a, b, 1, &default).0,
            (
                6,
                1,
                13838703439562981478,
                13837991216151876885,
                10652441743619247751,
                18305119699737319893
            )
        );

        // Every trial overshoots until the rate falls below
        // `LEARNING_RATE / 1024`: one accepted point (the initial one),
        // eleven rollbacks, and the block comes back as it went in.
        let (a, b) = at(1e-5);
        let (print, a, b) = run(&[two_node(1.0)], a, b, 1, &default);
        assert_eq!(
            print,
            (
                12,
                11,
                13850546455391180878,
                13850546455391180878,
                13850546455391180878,
                991913792157068639
            )
        );
        assert_eq!((a, b), at(1e-5));

        // L1 shrinkage with two rollbacks: the penalty's `Σ x` comes from
        // accepted and retried steps alike.
        let (cs, mut a, mut b) = small_corpus();
        a.iter_mut().chain(b.iter_mut()).for_each(|x| *x *= 0.03);
        let cfg = PgdConfig {
            l1_penalty: 5.0,
            ..default
        };
        assert_eq!(
            run(&cs, a, b, 2, &cfg).0,
            (
                39,
                2,
                13854426177324416266,
                13846286135174232721,
                13552810849161220061,
                8111179495446769135
            )
        );
    }

    #[test]
    fn infections_swept_counts_the_corpus_once_per_epoch() {
        // Other tests of this process feed the same global counter, so
        // only the lower bound is exact here.
        let swept = obs::metrics().counter("pgd.infections_swept");
        let before = swept.get();
        let (cs, mut a, mut b) = small_corpus();
        let r = optimize(&cs, &mut a, &mut b, 2, &PgdConfig::default());
        let infections: usize = cs.iter().map(IndexedCascade::len).sum();
        assert!(swept.get() - before >= (r.epochs * infections) as u64);
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

    /// On random corpora, with and without the L1 penalty, the optimiser
    /// never lowers the objective it optimises and always returns
    /// non-negative, clamped parameters. Without a penalty the objective
    /// is the data likelihood itself; with one, the penalty may trade data
    /// likelihood for mass, so only the penalised trace is monotone.
    #[test]
    fn optimizer_laws() {
        // Runs with a rollback under the penalty: the monotone law is only
        // exercised when a step overshoots.
        let mut penalised_rollbacks = 0;
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
            for l1_penalty in [0.0, 5.0] {
                let mut a = vec![init; 6];
                let mut b = vec![init; 6];
                let cfg = PgdConfig {
                    max_epochs: 50,
                    l1_penalty,
                };
                let report = optimize(&cascades, &mut a, &mut b, 2, &cfg);
                for w in report.ll_history.windows(2) {
                    assert!(
                        w[1] >= w[0] - 1e-9,
                        "case {case}, l1 {l1_penalty}: objective fell from {} to {}",
                        w[0],
                        w[1]
                    );
                }
                if l1_penalty == 0.0 {
                    assert!(
                        report.final_ll >= report.initial_ll - 1e-9,
                        "case {case}: likelihood fell from {} to {}",
                        report.initial_ll,
                        report.final_ll
                    );
                } else if report.epochs > report.ll_history.len() {
                    penalised_rollbacks += 1;
                }
                assert!(
                    a.iter()
                        .chain(b.iter())
                        .all(|&x| (0.0..=MAX_VALUE).contains(&x)),
                    "case {case}, l1 {l1_penalty}: parameter outside [0, {MAX_VALUE}]"
                );
            }
        }
        assert!(penalised_rollbacks > 0, "no penalised run rolled back");
    }
}
