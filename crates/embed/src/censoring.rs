//! Right-censoring extension: survival terms for nodes observed
//! *uninfected* within the window.
//!
//! The paper's likelihood (eq. 8) covers infected nodes only — a node
//! that never adopted contributes nothing, so the model is free to
//! assign high rates to pairs that never interact. Survival analysis
//! says an uninfected node `v` observed until the window end `T`
//! contributes the log-survival of every potential infection:
//!
//! ```text
//! ΔL_c = Σ_{v ∉ c} Σ_{l ∈ c} ln S_{lv}(T − t_l)
//!      = − ⟨ W_c , Σ_{v ∉ c} B_v ⟩ ,    W_c = Σ_{l ∈ c} (T − t_l) A_l
//! ```
//!
//! The double sum looks `O(n · s)` per cascade, but factorises: with the
//! global column sum `S_B = Σ_v B_v` precomputed once per epoch, each
//! cascade costs `O(s · K)` and the per-node `∇B` corrections are
//! accumulated in one final `O(n · K)` sweep:
//!
//! * `∇A_l` gains `−(T − t_l) (S_B − Σ_{v∈c} B_v)` for `l ∈ c`;
//! * `∇B_v` gains `−(Σ_c W_c − Σ_{c ∋ v} W_c)` for every `v`.
//!
//! This is the "optional/extension" feature of DESIGN.md §6: off by
//! default ([`crate::pgd::PgdConfig::censoring_window`] = `None`), the
//! paper's exact objective; on, a principled alternative to the L1
//! shrinkage for suppressing signal-free rates.

use crate::embedding::dot;
use crate::subcascade::IndexedCascade;

/// Reusable buffers for the censoring sweeps.
#[derive(Clone, Debug)]
pub struct CensorScratch {
    /// Global column sum of `B` (length `k`).
    sum_b: Vec<f64>,
    /// Per-cascade `W_c` accumulator (length `k`).
    w_c: Vec<f64>,
    /// Per-cascade member column sum of `B` (length `k`).
    member_b: Vec<f64>,
    /// `Σ_c W_c` (length `k`).
    total_w: Vec<f64>,
    /// Per-row correction `Σ_{c ∋ v} W_c` (length `rows × k`).
    corr: Vec<f64>,
}

impl CensorScratch {
    /// Buffers for `k` topics (row-dependent buffers grow on demand).
    pub fn new(k: usize) -> Self {
        CensorScratch {
            sum_b: vec![0.0; k],
            w_c: vec![0.0; k],
            member_b: vec![0.0; k],
            total_w: vec![0.0; k],
            corr: Vec::new(),
        }
    }
}

/// Adds the censoring gradient over a whole epoch's cascades to
/// `grad_a` / `grad_b` and returns the censoring log-likelihood
/// contribution (always ≤ 0).
///
/// `window` is the observation-window length `T`; infection times must
/// satisfy `t ≤ T` (times beyond the window are clamped, contributing
/// zero exposure).
#[allow(clippy::too_many_arguments)] // hot-loop plumbing mirrors accumulate_gradients
pub fn accumulate_censoring(
    cascades: &[IndexedCascade],
    a: &[f64],
    b: &[f64],
    k: usize,
    window: f64,
    grad_a: &mut [f64],
    grad_b: &mut [f64],
    scratch: &mut CensorScratch,
) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let rows = a.len() / k;
    let CensorScratch {
        sum_b,
        w_c,
        member_b,
        total_w,
        corr,
    } = scratch;

    // Global column sum of B.
    sum_b.fill(0.0);
    for v in 0..rows {
        for t in 0..k {
            sum_b[t] += b[v * k + t];
        }
    }
    total_w.fill(0.0);
    corr.clear();
    corr.resize(rows * k, 0.0);

    let mut ll = 0.0;
    for c in cascades {
        w_c.fill(0.0);
        member_b.fill(0.0);
        for (i, &row) in c.rows.iter().enumerate() {
            let exposure = (window - c.times[i]).max(0.0);
            let ar = &a[row as usize * k..(row as usize + 1) * k];
            let br = &b[row as usize * k..(row as usize + 1) * k];
            for t in 0..k {
                w_c[t] += exposure * ar[t];
                member_b[t] += br[t];
            }
        }
        // ∇A for members; LL term.
        let mut outside_b_dot_w = dot(w_c, sum_b) - dot(w_c, member_b);
        // Guard tiny negative values from floating-point cancellation.
        if outside_b_dot_w < 0.0 {
            outside_b_dot_w = 0.0;
        }
        ll -= outside_b_dot_w;
        for (i, &row) in c.rows.iter().enumerate() {
            let exposure = (window - c.times[i]).max(0.0);
            let ga = &mut grad_a[row as usize * k..(row as usize + 1) * k];
            for t in 0..k {
                ga[t] -= exposure * (sum_b[t] - member_b[t]);
            }
        }
        // Defer ∇B: every row pays −W_c except the members.
        for t in 0..k {
            total_w[t] += w_c[t];
        }
        for &row in &c.rows {
            for t in 0..k {
                corr[row as usize * k + t] += w_c[t];
            }
        }
    }

    for v in 0..rows {
        let gb = &mut grad_b[v * k..(v + 1) * k];
        for t in 0..k {
            gb[t] -= total_w[t] - corr[v * k + t];
        }
    }
    ll
}

/// Reference `O(n · s · K)` implementation for validation.
pub fn censoring_log_likelihood_naive(
    cascades: &[IndexedCascade],
    a: &[f64],
    b: &[f64],
    k: usize,
    window: f64,
) -> f64 {
    let rows = a.len() / k;
    let mut ll = 0.0;
    for c in cascades {
        for v in 0..rows {
            if c.rows.contains(&(v as u32)) {
                continue;
            }
            let bv = &b[v * k..(v + 1) * k];
            for (i, &row) in c.rows.iter().enumerate() {
                let exposure = (window - c.times[i]).max(0.0);
                let al = &a[row as usize * k..(row as usize + 1) * k];
                ll -= exposure * dot(al, bv);
            }
        }
    }
    ll
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instance() -> (Vec<f64>, Vec<f64>, Vec<IndexedCascade>, usize) {
        let k = 2;
        let rows = 5;
        let a: Vec<f64> = (0..rows * k).map(|i| 0.1 + (i % 7) as f64 * 0.13).collect();
        let b: Vec<f64> = (0..rows * k)
            .map(|i| 0.05 + (i % 5) as f64 * 0.21)
            .collect();
        let cascades = vec![
            IndexedCascade {
                rows: vec![0, 2],
                times: vec![0.0, 0.4],
            },
            IndexedCascade {
                rows: vec![3, 1, 4],
                times: vec![0.1, 0.5, 0.9],
            },
        ];
        (a, b, cascades, k)
    }

    #[test]
    fn factorised_ll_matches_naive() {
        let (a, b, cascades, k) = instance();
        let mut ga = vec![0.0; a.len()];
        let mut gb = vec![0.0; b.len()];
        let mut scratch = CensorScratch::new(k);
        let fast = accumulate_censoring(&cascades, &a, &b, k, 1.0, &mut ga, &mut gb, &mut scratch);
        let slow = censoring_log_likelihood_naive(&cascades, &a, &b, k, 1.0);
        assert!((fast - slow).abs() < 1e-10, "{fast} vs {slow}");
        assert!(fast <= 0.0);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let (a, b, cascades, k) = instance();
        let mut ga = vec![0.0; a.len()];
        let mut gb = vec![0.0; b.len()];
        let mut scratch = CensorScratch::new(k);
        accumulate_censoring(&cascades, &a, &b, k, 1.0, &mut ga, &mut gb, &mut scratch);

        let eps = 1e-6;
        for idx in 0..a.len() {
            let mut ap = a.clone();
            ap[idx] += eps;
            let mut am = a.clone();
            am[idx] -= eps;
            let fd = (censoring_log_likelihood_naive(&cascades, &ap, &b, k, 1.0)
                - censoring_log_likelihood_naive(&cascades, &am, &b, k, 1.0))
                / (2.0 * eps);
            assert!(
                (ga[idx] - fd).abs() < 1e-5 * (1.0 + fd.abs()),
                "dA[{idx}] {} vs fd {fd}",
                ga[idx]
            );
        }
        for idx in 0..b.len() {
            let mut bp = b.clone();
            bp[idx] += eps;
            let mut bm = b.clone();
            bm[idx] -= eps;
            let fd = (censoring_log_likelihood_naive(&cascades, &a, &bp, k, 1.0)
                - censoring_log_likelihood_naive(&cascades, &a, &bm, k, 1.0))
                / (2.0 * eps);
            assert!(
                (gb[idx] - fd).abs() < 1e-5 * (1.0 + fd.abs()),
                "dB[{idx}] {} vs fd {fd}",
                gb[idx]
            );
        }
    }

    #[test]
    fn full_coverage_cascade_contributes_nothing() {
        // If a cascade infects every row, there is no one left to censor.
        let k = 1;
        let a = vec![1.0, 1.0];
        let b = vec![1.0, 1.0];
        let cascades = vec![IndexedCascade {
            rows: vec![0, 1],
            times: vec![0.0, 0.5],
        }];
        let mut ga = vec![0.0; 2];
        let mut gb = vec![0.0; 2];
        let mut scratch = CensorScratch::new(k);
        let ll = accumulate_censoring(&cascades, &a, &b, k, 1.0, &mut ga, &mut gb, &mut scratch);
        assert_eq!(ll, 0.0);
        assert_eq!(gb, vec![0.0, 0.0]);
    }

    #[test]
    fn censoring_pushes_uninfected_selectivity_down() {
        // Node 2 never adopts: its B gradient must be negative.
        let k = 1;
        let a = vec![1.0, 1.0, 1.0];
        let b = vec![1.0, 1.0, 1.0];
        let cascades = vec![IndexedCascade {
            rows: vec![0, 1],
            times: vec![0.0, 0.2],
        }];
        let mut ga = vec![0.0; 3];
        let mut gb = vec![0.0; 3];
        let mut scratch = CensorScratch::new(k);
        accumulate_censoring(&cascades, &a, &b, k, 1.0, &mut ga, &mut gb, &mut scratch);
        assert!(gb[2] < 0.0, "uninfected node gradient {}", gb[2]);
        assert_eq!(gb[0], 0.0, "members carry no censoring ∇B");
        // Members' influence is penalised for failing to infect node 2.
        assert!(ga[0] < 0.0 && ga[1] < 0.0);
    }

    #[test]
    fn zero_window_exposure_is_zero() {
        let (a, b, cascades, k) = instance();
        let mut ga = vec![0.0; a.len()];
        let mut gb = vec![0.0; b.len()];
        let mut scratch = CensorScratch::new(k);
        let ll = accumulate_censoring(&cascades, &a, &b, k, 0.0, &mut ga, &mut gb, &mut scratch);
        assert_eq!(ll, 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Factorised and naive censoring likelihoods agree on random
    /// instances.
    #[test]
    fn factorisation_correct() {
        for case in 0..32 {
            let mut rng = StdRng::seed_from_u64(case);
            let k = 2;
            let a: Vec<f64> = (0..12).map(|_| rng.gen_range(0.0f64..2.0)).collect();
            let b: Vec<f64> = (0..12).map(|_| rng.gen_range(0.0f64..2.0)).collect();
            let t1 = rng.gen_range(0.0f64..1.0);
            let t2 = rng.gen_range(0.0f64..1.0);
            let cascades = vec![IndexedCascade {
                rows: vec![1, 4],
                times: vec![t1.min(t2), t1.max(t2)],
            }];
            let mut ga = vec![0.0; 12];
            let mut gb = vec![0.0; 12];
            let mut scratch = CensorScratch::new(k);
            let fast =
                accumulate_censoring(&cascades, &a, &b, k, 1.0, &mut ga, &mut gb, &mut scratch);
            let slow = censoring_log_likelihood_naive(&cascades, &a, &b, k, 1.0);
            assert!(
                (fast - slow).abs() < 1e-8 * (1.0 + slow.abs()),
                "case {case}: factorised {fast} vs naive {slow}"
            );
            assert!(fast <= 1e-12, "case {case}: positive log-survival {fast}");
        }
    }
}
