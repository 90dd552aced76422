//! The cascade log-likelihood — eq. 8 of the paper.
//!
//! For one cascade `c` with infections ordered by time,
//!
//! ```text
//! L_c(A, B) = Σ_{v ∈ c, v ≠ seed} [ Σ_{l ≺ v} (t_l − t_v) ⟨A_l, B_v⟩
//!                                   + ln Σ_{u ≺ v} ⟨A_u, B_v⟩ ]
//! ```
//!
//! With the prefix sums `H = Σ_{l≺v} A_l` and `G = Σ_{l≺v} t_l A_l`,
//! each node costs one `O(K)` update — "the time complexity here is
//! linear in the number of infections in the cascade" (Section IV-A).
//! The seed contributes no term: its infection is the conditioning
//! event, not something the model explains.
//!
//! Ties in infection time are resolved by position: an infection at the
//! same timestamp is treated as a predecessor of the ones after it,
//! matching the simulator's deterministic tie-breaking.

use crate::subcascade::IndexedCascade;
use viralcast_propagation::dot;

/// Floor applied inside `ln(·)` and to gradient denominators so that
/// all-zero rows cannot produce `−∞` or division by zero.
pub const RATE_FLOOR: f64 = 1e-12;

/// Log-likelihood of one (sub-)cascade under matrices `a`, `b`
/// (row-major, `k` columns, rows indexed by `IndexedCascade::rows`).
#[cfg(test)]
pub(crate) fn cascade_log_likelihood(c: &IndexedCascade, a: &[f64], b: &[f64], k: usize) -> f64 {
    forward_sweep(c, a, b, k, &mut vec![0.0; k], &mut vec![0.0; k])
}

/// Total log-likelihood over a corpus of (sub-)cascades — the objective
/// of eq. 9. The same expression in the same order as the sum of
/// [`crate::gradient::accumulate_gradients`]' returns, so the two are
/// equal to the last bit.
pub fn corpus_log_likelihood(cs: &[IndexedCascade], a: &[f64], b: &[f64], k: usize) -> f64 {
    let (mut h, mut g) = (vec![0.0; k], vec![0.0; k]);
    let mut ll = 0.0;
    for c in cs {
        ll += forward_sweep(c, a, b, k, &mut h, &mut g);
    }
    ll
}

/// The forward sweep of eqs. 12–15 without the gradient: `h` and `g`
/// (length `k`, any contents) are the prefix sums' workspace.
fn forward_sweep(
    c: &IndexedCascade,
    a: &[f64],
    b: &[f64],
    k: usize,
    h: &mut [f64],
    g: &mut [f64],
) -> f64 {
    debug_assert_eq!(a.len() % k, 0);
    h.fill(0.0);
    g.fill(0.0);
    let mut ll = 0.0;
    for (i, (&v, &tv)) in c.rows.iter().zip(&c.times).enumerate() {
        let row = v as usize * k..(v as usize + 1) * k;
        if i > 0 {
            let bv = &b[row.clone()];
            let d = dot(h, bv);
            ll += dot(g, bv) - tv * d + d.max(RATE_FLOOR).ln();
        }
        for ((h, g), &av) in h.iter_mut().zip(g.iter_mut()).zip(&a[row]) {
            *h += av;
            *g += tv * av;
        }
    }
    ll
}

/// Reference `O(s²·K)` implementation of eq. 8, used to validate the
/// linear-time sweep in tests.
#[cfg(test)]
fn cascade_log_likelihood_naive(c: &IndexedCascade, a: &[f64], b: &[f64], k: usize) -> f64 {
    let s = c.len();
    let mut ll = 0.0;
    for i in 1..s {
        let v = c.rows[i] as usize;
        let tv = c.times[i];
        let bv = &b[v * k..(v + 1) * k];
        let mut linear = 0.0;
        let mut rate_sum = 0.0;
        for j in 0..i {
            let l = c.rows[j] as usize;
            let tl = c.times[j];
            let al = &a[l * k..(l + 1) * k];
            let rate = dot(al, bv);
            linear += (tl - tv) * rate;
            rate_sum += rate;
        }
        ll += linear + rate_sum.max(RATE_FLOOR).ln();
    }
    ll
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node_cascade(dt: f64) -> IndexedCascade {
        IndexedCascade {
            rows: vec![0, 1],
            times: vec![0.0, dt],
        }
    }

    #[test]
    fn two_node_closed_form() {
        // LL = -dt·⟨A_0,B_1⟩ + ln⟨A_0,B_1⟩; with rate 2 and dt 0.5:
        let a = vec![2.0, 0.0]; // A_0 = [2], A_1 = [0]   (k = 1)
        let b = vec![0.0, 1.0]; // B_0 = [0], B_1 = [1]
        let ll = cascade_log_likelihood(&two_node_cascade(0.5), &a, &b, 1);
        let expect = -0.5 * 2.0 + (2.0f64).ln();
        assert!((ll - expect).abs() < 1e-12, "{ll} vs {expect}");
    }

    #[test]
    fn seed_only_cascade_is_zero() {
        let c = IndexedCascade {
            rows: vec![0],
            times: vec![0.0],
        };
        assert_eq!(cascade_log_likelihood(&c, &[1.0], &[1.0], 1), 0.0);
    }

    #[test]
    fn matches_naive_on_small_instances() {
        // Deterministic pseudo-random matrices.
        let k = 3;
        let n = 6;
        let a: Vec<f64> = (0..n * k)
            .map(|i| ((i * 7 + 3) % 11) as f64 / 10.0 + 0.05)
            .collect();
        let b: Vec<f64> = (0..n * k)
            .map(|i| ((i * 5 + 1) % 13) as f64 / 12.0 + 0.05)
            .collect();
        let c = IndexedCascade {
            rows: vec![2, 0, 5, 1, 4],
            times: vec![0.0, 0.7, 1.1, 2.4, 3.0],
        };
        let fast = cascade_log_likelihood(&c, &a, &b, k);
        let slow = cascade_log_likelihood_naive(&c, &a, &b, k);
        assert!((fast - slow).abs() < 1e-10, "{fast} vs {slow}");
    }

    #[test]
    fn zero_rates_floor_not_nan() {
        let c = two_node_cascade(1.0);
        let ll = cascade_log_likelihood(&c, &[0.0, 0.0], &[0.0, 0.0], 1);
        assert!(ll.is_finite());
        assert!(ll < -20.0); // ln(RATE_FLOOR)
    }

    #[test]
    fn longer_delay_lower_likelihood() {
        // With a fixed positive rate, a longer delay is less likely.
        let a = vec![1.0, 0.0];
        let b = vec![0.0, 1.0];
        let short = cascade_log_likelihood(&two_node_cascade(0.5), &a, &b, 1);
        let long = cascade_log_likelihood(&two_node_cascade(5.0), &a, &b, 1);
        assert!(short > long);
    }

    #[test]
    fn likelihood_peaks_at_true_rate() {
        // For a two-node cascade with delay dt, LL(λ) = −λ·dt + ln λ is
        // maximised at λ = 1/dt.
        let dt = 0.25;
        let eval =
            |rate: f64| cascade_log_likelihood(&two_node_cascade(dt), &[rate, 0.0], &[0.0, 1.0], 1);
        let at_mle = eval(1.0 / dt);
        assert!(at_mle > eval(1.0 / dt * 1.3));
        assert!(at_mle > eval(1.0 / dt * 0.7));
    }

    #[test]
    fn corpus_sums_cascades() {
        let a = vec![1.0, 1.0];
        let b = vec![1.0, 1.0];
        let c1 = two_node_cascade(0.5);
        let c2 = two_node_cascade(1.5);
        let total = corpus_log_likelihood(&[c1.clone(), c2.clone()], &a, &b, 1);
        let sum = cascade_log_likelihood(&c1, &a, &b, 1) + cascade_log_likelihood(&c2, &a, &b, 1);
        assert!((total - sum).abs() < 1e-12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `(A, B, cascade, K)`: 8 nodes, K in 1–3, entries in [0, 2), and
    /// a cascade over distinct rows 0..s (s in 2–7) with strictly
    /// increasing times (gaps in [0.01, 3)).
    fn instance(rng: &mut StdRng) -> (Vec<f64>, Vec<f64>, IndexedCascade, usize) {
        let k = rng.gen_range(1usize..4);
        let s = rng.gen_range(2usize..8);
        let a = (0..8 * k).map(|_| rng.gen_range(0.0f64..2.0)).collect();
        let b = (0..8 * k).map(|_| rng.gen_range(0.0f64..2.0)).collect();
        let mut t = 0.0;
        let times = (0..s)
            .map(|_| {
                t += rng.gen_range(0.01f64..3.0);
                t
            })
            .collect();
        let rows = (0..s as u32).collect();
        (a, b, IndexedCascade { rows, times }, k)
    }

    /// The linear-time sweep equals the quadratic reference.
    #[test]
    fn sweep_matches_naive() {
        for case in 0..64 {
            let (a, b, c, k) = instance(&mut StdRng::seed_from_u64(case));
            let fast = cascade_log_likelihood(&c, &a, &b, k);
            let slow = cascade_log_likelihood_naive(&c, &a, &b, k);
            assert!(
                (fast - slow).abs() < 1e-8 * (1.0 + slow.abs()),
                "case {case}: sweep {fast} vs naive {slow}"
            );
        }
    }

    /// The likelihood is always finite thanks to the rate floor.
    #[test]
    fn always_finite() {
        for case in 0..64 {
            let (a, b, c, k) = instance(&mut StdRng::seed_from_u64(case));
            let ll = cascade_log_likelihood(&c, &a, &b, k);
            assert!(ll.is_finite(), "case {case}: {ll}");
        }
    }
}
