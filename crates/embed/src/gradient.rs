//! Linear-time gradients of the cascade log-likelihood — eqs. 12–16.
//!
//! For a cascade `c` and node `v ∈ c` (non-seed):
//!
//! ```text
//! ∇_{B_v} L_c = G(v) − t_v H(v) + H(v) / ⟨H(v), B_v⟩            (eq. 13)
//!   H(v) = Σ_{l ≺ v} A_l,   G(v) = Σ_{l ≺ v} t_l A_l           (eqs. 14–15)
//! ∇_{A_u} L_c = t_u P(u) − Q(u) + Σ_{v: u ≺ v} B_v / ⟨H(v), B_v⟩  (eq. 16)
//!   P(u) = Σ_{v ≻ u} B_v,   Q(u) = Σ_{v ≻ u} t_v B_v
//! ```
//!
//! One forward sweep ([`sweep_forward`]) accumulates `H`, `G`, `∇B`
//! and the denominators `d_v = ⟨H(v), B_v⟩`; one backward sweep
//! ([`sweep_backward`]) accumulates `P`, `Q` and `R = Σ B_v / d_v` into
//! `∇A`. Total cost `O(s·K)` per cascade — the property that makes the
//! stochastic-gradient inference "fast" in the paper's terms.

use crate::likelihood::RATE_FLOOR;
use crate::subcascade::IndexedCascade;
use viralcast_propagation::dot;

/// Reusable workspace for the gradient sweeps (avoids per-cascade
/// allocation in the optimiser's hot loop).
#[derive(Clone, Debug)]
pub struct GradScratch {
    h: Vec<f64>,
    g: Vec<f64>,
    p: Vec<f64>,
    q: Vec<f64>,
    r: Vec<f64>,
    denom: Vec<f64>,
}

impl GradScratch {
    /// A workspace for `k` topics.
    pub fn new(k: usize) -> Self {
        GradScratch {
            h: vec![0.0; k],
            g: vec![0.0; k],
            p: vec![0.0; k],
            q: vec![0.0; k],
            r: vec![0.0; k],
            denom: Vec::new(),
        }
    }
}

/// Accumulates `∇ L_c` into `grad_a` / `grad_b` (same shapes as
/// `a` / `b`) and returns the cascade's log-likelihood at the current
/// parameters. The gradient is *added*, so callers can batch over many
/// cascades into one accumulator, exactly like Algorithm 1's `dA`/`dB`.
///
/// The composition of [`sweep_forward`] and [`sweep_backward`]; the
/// optimiser runs the two halves apart, the backward one only for a
/// step it keeps.
pub fn accumulate_gradients(
    c: &IndexedCascade,
    a: &[f64],
    b: &[f64],
    k: usize,
    grad_a: &mut [f64],
    grad_b: &mut [f64],
    scratch: &mut GradScratch,
) -> f64 {
    debug_assert_eq!(a.len(), grad_a.len());
    let mut denom = std::mem::take(&mut scratch.denom);
    denom.clear();
    let ll = sweep_forward(c, a, b, k, grad_b, &mut denom, scratch);
    sweep_backward(c, b, k, grad_a, &denom, scratch);
    scratch.denom = denom;
    ll
}

/// The forward half of the sweep: `H`, `G` prefixes, `∇B_v` added into
/// `grad_b` and the log-likelihood terms. Pushes the denominators
/// `d_v = max(⟨H(v), B_v⟩, RATE_FLOOR)` onto `denom`, one per non-seed
/// infection in cascade order, for [`sweep_backward`]; returns the
/// cascade's log-likelihood, bit for bit
/// [`crate::likelihood::corpus_log_likelihood`]'s term.
pub(crate) fn sweep_forward(
    c: &IndexedCascade,
    a: &[f64],
    b: &[f64],
    k: usize,
    grad_b: &mut [f64],
    denom: &mut Vec<f64>,
    scratch: &mut GradScratch,
) -> f64 {
    debug_assert_eq!(b.len(), grad_b.len());
    let row = |v: u32| v as usize * k..(v as usize + 1) * k;
    // Sliced to `k` once, so every zipped loop below has one known length.
    let (h, g) = (&mut scratch.h[..k], &mut scratch.g[..k]);
    let mut infections = c.rows.iter().zip(&c.times);
    let Some((&seed, &t_seed)) = infections.next() else {
        return 0.0;
    };
    h.fill(0.0);
    g.fill(0.0);

    // The seed has no predecessor: it only enters the prefixes.
    for ((h, g), &av) in h.iter_mut().zip(g.iter_mut()).zip(&a[row(seed)]) {
        *h += av;
        *g += t_seed * av;
    }
    let mut ll = 0.0;
    for (&v, &tv) in infections {
        let bv = &b[row(v)];
        let hb = dot(h, bv);
        let d = hb.max(RATE_FLOOR);
        denom.push(d);
        ll += dot(g, bv) - tv * hb + d.ln();
        let gb = grad_b[row(v)].iter_mut();
        for (((gb, h), g), &av) in gb.zip(h.iter_mut()).zip(g.iter_mut()).zip(&a[row(v)]) {
            *gb += *g - tv * *h + *h / d;
            *h += av;
            *g += tv * av;
        }
    }
    ll
}

/// The backward half of the sweep: `P`, `Q`, `R` suffixes and `∇A_u`
/// added into `grad_a`. `denom` is what [`sweep_forward`] pushed for
/// `c`: one entry per non-seed infection, in cascade order.
pub(crate) fn sweep_backward(
    c: &IndexedCascade,
    b: &[f64],
    k: usize,
    grad_a: &mut [f64],
    denom: &[f64],
    scratch: &mut GradScratch,
) {
    let row = |v: u32| v as usize * k..(v as usize + 1) * k;
    let (p, q, r) = (
        &mut scratch.p[..k],
        &mut scratch.q[..k],
        &mut scratch.r[..k],
    );
    let mut infections = c.rows.iter().zip(&c.times);
    let Some((&seed, &t_seed)) = infections.next() else {
        return;
    };
    debug_assert_eq!(denom.len(), c.rows.len() - 1);
    p.fill(0.0);
    q.fill(0.0);
    r.fill(0.0);

    let mut successors = infections.zip(denom).rev();
    let Some(((&last, &t_last), &d)) = successors.next() else {
        return;
    };
    // The last infection has no successor: it only folds its B row into
    // the suffix sums.
    for (((p, q), r), &bu) in (p.iter_mut().zip(q.iter_mut()).zip(r.iter_mut())).zip(&b[row(last)])
    {
        *p += bu;
        *q += t_last * bu;
        *r += bu / d;
    }
    for ((&u, &tu), &d) in successors {
        let ga = grad_a[row(u)].iter_mut();
        for ((((ga, p), q), r), &bu) in
            (ga.zip(p.iter_mut()).zip(q.iter_mut()).zip(r.iter_mut())).zip(&b[row(u)])
        {
            *ga += tu * *p - *q + *r;
            *p += bu;
            *q += tu * bu;
            *r += bu / d;
        }
    }
    // The seed succeeds nobody: it only receives.
    for (((ga, p), q), r) in grad_a[row(seed)]
        .iter_mut()
        .zip(p.iter())
        .zip(q.iter())
        .zip(r.iter())
    {
        *ga += t_seed * p - q + r;
    }
}

/// Reference `O(s²·K)` gradient for validation: differentiates the naive
/// likelihood term by term.
#[cfg(test)]
fn gradients_naive(c: &IndexedCascade, a: &[f64], b: &[f64], k: usize) -> (Vec<f64>, Vec<f64>) {
    let s = c.len();
    let mut ga = vec![0.0; a.len()];
    let mut gb = vec![0.0; b.len()];
    for i in 1..s {
        let v = c.rows[i] as usize;
        let tv = c.times[i];
        let bv = &b[v * k..(v + 1) * k];
        let mut rate_sum = 0.0;
        for j in 0..i {
            let l = c.rows[j] as usize;
            rate_sum += dot(&a[l * k..(l + 1) * k], bv);
        }
        let d = rate_sum.max(RATE_FLOOR);
        for j in 0..i {
            let l = c.rows[j] as usize;
            let tl = c.times[j];
            let al = &a[l * k..(l + 1) * k];
            for t in 0..k {
                // ∂/∂B_{v,t}: (t_l − t_v) A_{l,t} + A_{l,t}/d
                gb[v * k + t] += (tl - tv) * al[t] + al[t] / d;
                // ∂/∂A_{l,t}: (t_l − t_v) B_{v,t} + B_{v,t}/d
                ga[l * k + t] += (tl - tv) * bv[t] + bv[t] / d;
            }
        }
    }
    (ga, gb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::likelihood::cascade_log_likelihood;

    fn deterministic_instance(
        n: usize,
        k: usize,
        s: usize,
    ) -> (Vec<f64>, Vec<f64>, IndexedCascade) {
        let a: Vec<f64> = (0..n * k)
            .map(|i| ((i * 7 + 3) % 11) as f64 / 10.0 + 0.1)
            .collect();
        let b: Vec<f64> = (0..n * k)
            .map(|i| ((i * 5 + 1) % 13) as f64 / 12.0 + 0.1)
            .collect();
        let rows: Vec<u32> = (0..s as u32).collect();
        let times: Vec<f64> = (0..s).map(|i| i as f64 * 0.4 + 0.1).collect();
        (a, b, IndexedCascade { rows, times })
    }

    #[test]
    fn sweep_matches_naive_gradient() {
        let (a, b, c) = deterministic_instance(6, 3, 5);
        let k = 3;
        let mut ga = vec![0.0; a.len()];
        let mut gb = vec![0.0; b.len()];
        let mut scratch = GradScratch::new(k);
        accumulate_gradients(&c, &a, &b, k, &mut ga, &mut gb, &mut scratch);
        let (na, nb) = gradients_naive(&c, &a, &b, k);
        for (x, y) in ga.iter().zip(&na) {
            assert!((x - y).abs() < 1e-9, "A gradient mismatch: {x} vs {y}");
        }
        for (x, y) in gb.iter().zip(&nb) {
            assert!((x - y).abs() < 1e-9, "B gradient mismatch: {x} vs {y}");
        }
    }

    #[test]
    fn matches_finite_differences() {
        let (a, b, c) = deterministic_instance(5, 2, 4);
        let k = 2;
        let mut ga = vec![0.0; a.len()];
        let mut gb = vec![0.0; b.len()];
        let mut scratch = GradScratch::new(k);
        accumulate_gradients(&c, &a, &b, k, &mut ga, &mut gb, &mut scratch);

        let eps = 1e-6;
        for idx in 0..a.len() {
            let mut ap = a.clone();
            ap[idx] += eps;
            let mut am = a.clone();
            am[idx] -= eps;
            let fd = (cascade_log_likelihood(&c, &ap, &b, k)
                - cascade_log_likelihood(&c, &am, &b, k))
                / (2.0 * eps);
            assert!(
                (ga[idx] - fd).abs() < 1e-4 * (1.0 + fd.abs()),
                "dA[{idx}]: analytic {} vs fd {fd}",
                ga[idx]
            );
        }
        for idx in 0..b.len() {
            let mut bp = b.clone();
            bp[idx] += eps;
            let mut bm = b.clone();
            bm[idx] -= eps;
            let fd = (cascade_log_likelihood(&c, &a, &bp, k)
                - cascade_log_likelihood(&c, &a, &bm, k))
                / (2.0 * eps);
            assert!(
                (gb[idx] - fd).abs() < 1e-4 * (1.0 + fd.abs()),
                "dB[{idx}]: analytic {} vs fd {fd}",
                gb[idx]
            );
        }
    }

    #[test]
    fn returned_ll_matches_likelihood_module() {
        let (a, b, c) = deterministic_instance(6, 3, 6);
        let k = 3;
        let mut ga = vec![0.0; a.len()];
        let mut gb = vec![0.0; b.len()];
        let mut scratch = GradScratch::new(k);
        let ll = accumulate_gradients(&c, &a, &b, k, &mut ga, &mut gb, &mut scratch);
        let direct = cascade_log_likelihood(&c, &a, &b, k);
        assert_eq!(ll.to_bits(), direct.to_bits());
    }

    #[test]
    fn accumulation_adds_across_cascades() {
        let (a, b, c) = deterministic_instance(5, 2, 4);
        let k = 2;
        let mut scratch = GradScratch::new(k);
        let mut once_a = vec![0.0; a.len()];
        let mut once_b = vec![0.0; b.len()];
        accumulate_gradients(&c, &a, &b, k, &mut once_a, &mut once_b, &mut scratch);
        let mut twice_a = vec![0.0; a.len()];
        let mut twice_b = vec![0.0; b.len()];
        accumulate_gradients(&c, &a, &b, k, &mut twice_a, &mut twice_b, &mut scratch);
        accumulate_gradients(&c, &a, &b, k, &mut twice_a, &mut twice_b, &mut scratch);
        for (x, y) in twice_a.iter().zip(&once_a) {
            assert!((x - 2.0 * y).abs() < 1e-9);
        }
        for (x, y) in twice_b.iter().zip(&once_b) {
            assert!((x - 2.0 * y).abs() < 1e-9);
        }
    }

    #[test]
    fn seed_gets_no_selectivity_gradient() {
        // The seed node never appears as a successor, so ∇B_seed = 0
        // (unless the seed also appears later, which it cannot).
        let (a, b, c) = deterministic_instance(5, 2, 4);
        let k = 2;
        let mut ga = vec![0.0; a.len()];
        let mut gb = vec![0.0; b.len()];
        let mut scratch = GradScratch::new(k);
        accumulate_gradients(&c, &a, &b, k, &mut ga, &mut gb, &mut scratch);
        let seed = c.rows[0] as usize;
        assert_eq!(&gb[seed * k..(seed + 1) * k], &[0.0, 0.0]);
        // And the last node gets no influence gradient.
        let last = *c.rows.last().unwrap() as usize;
        assert_eq!(&ga[last * k..(last + 1) * k], &[0.0, 0.0]);
    }

    #[test]
    fn two_node_gradient_closed_form() {
        // k = 1, cascade 0 → 1 with delay dt, rate λ = A_0 B_1:
        // LL = −dt λ + ln λ; ∂/∂A_0 = −dt B_1 + B_1/λ.
        let a = vec![2.0, 0.5];
        let b = vec![0.7, 1.5];
        let dt = 0.4;
        let c = IndexedCascade {
            rows: vec![0, 1],
            times: vec![0.0, dt],
        };
        let mut ga = vec![0.0; 2];
        let mut gb = vec![0.0; 2];
        let mut scratch = GradScratch::new(1);
        accumulate_gradients(&c, &a, &b, 1, &mut ga, &mut gb, &mut scratch);
        let lambda = a[0] * b[1];
        assert!((ga[0] - (-dt * b[1] + b[1] / lambda)).abs() < 1e-12);
        assert!((gb[1] - (-dt * a[0] + a[0] / lambda)).abs() < 1e-12);
        assert_eq!(ga[1], 0.0);
        assert_eq!(gb[0], 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `(A, B, cascade, K)`: 8 nodes, K in 1–3, entries in [0.05, 2),
    /// and a cascade over rows 0..s (s in 2–6) with gaps in [0.05, 2).
    fn instance(rng: &mut StdRng) -> (Vec<f64>, Vec<f64>, IndexedCascade, usize) {
        let k = rng.gen_range(1usize..4);
        let s = rng.gen_range(2usize..7);
        let a = (0..8 * k).map(|_| rng.gen_range(0.05f64..2.0)).collect();
        let b = (0..8 * k).map(|_| rng.gen_range(0.05f64..2.0)).collect();
        let mut t = 0.0;
        let times = (0..s)
            .map(|_| {
                t += rng.gen_range(0.05f64..2.0);
                t
            })
            .collect();
        let rows = (0..s as u32).collect();
        (a, b, IndexedCascade { rows, times }, k)
    }

    /// The sweep as it stood before it was fused, kept verbatim: five
    /// indexed loops per infection and `⟨H, B_v⟩` computed twice.
    fn accumulate_gradients_reference(
        c: &IndexedCascade,
        a: &[f64],
        b: &[f64],
        k: usize,
        grad_a: &mut [f64],
        grad_b: &mut [f64],
        scratch: &mut GradScratch,
    ) -> f64 {
        debug_assert_eq!(a.len(), grad_a.len());
        debug_assert_eq!(b.len(), grad_b.len());
        let s = c.len();
        let GradScratch {
            h,
            g,
            p,
            q,
            r,
            denom,
        } = scratch;
        h.fill(0.0);
        g.fill(0.0);
        p.fill(0.0);
        q.fill(0.0);
        r.fill(0.0);
        denom.clear();
        denom.resize(s, 0.0);

        // Forward sweep: H, G prefixes; ∇B_v and LL terms; denominators.
        let mut ll = 0.0;
        #[allow(clippy::needless_range_loop)] // i walks rows, times and denom in lockstep
        for i in 0..s {
            let v = c.rows[i] as usize;
            let tv = c.times[i];
            if i > 0 {
                let bv = &b[v * k..(v + 1) * k];
                let d = dot(h, bv).max(RATE_FLOOR);
                denom[i] = d;
                ll += dot(g, bv) - tv * dot(h, bv) + d.ln();
                let gb = &mut grad_b[v * k..(v + 1) * k];
                for t in 0..k {
                    gb[t] += g[t] - tv * h[t] + h[t] / d;
                }
            }
            let av = &a[v * k..(v + 1) * k];
            for t in 0..k {
                h[t] += av[t];
                g[t] += tv * av[t];
            }
        }

        // Backward sweep: P, Q, R suffixes; ∇A_u.
        for i in (0..s).rev() {
            let u = c.rows[i] as usize;
            let tu = c.times[i];
            if i < s - 1 {
                let ga = &mut grad_a[u * k..(u + 1) * k];
                for t in 0..k {
                    ga[t] += tu * p[t] - q[t] + r[t];
                }
            }
            if i > 0 {
                // Node at position i acts as a successor `v` for everyone
                // before it; fold its B row into the suffix sums.
                let bu = &b[u * k..(u + 1) * k];
                let d = denom[i];
                for t in 0..k {
                    p[t] += bu[t];
                    q[t] += tu * bu[t];
                    r[t] += bu[t] / d;
                }
            }
        }
        ll
    }

    /// The fused sweep is the reference bit for bit — returned LL and
    /// both accumulators — for every K and cascade length that picks a
    /// different peeling (length 1 is the seed alone; at length 2 the
    /// two peeled ends meet and no interior iteration runs), with tied
    /// timestamps, all-zero `A` rows (the `RATE_FLOOR` branch) and a
    /// non-zero accumulator on entry (gradients are *added*).
    #[test]
    fn fused_sweep_matches_reference_bit_for_bit() {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for case in 0..40 {
            let mut rng = StdRng::seed_from_u64(case);
            for k in [1usize, 2, 3, 8, 16] {
                for s in [1usize, 2, 3, 17, 64] {
                    let n = 64;
                    let mut a: Vec<f64> = (0..n * k).map(|_| rng.gen_range(0.0f64..2.0)).collect();
                    let b: Vec<f64> = (0..n * k).map(|_| rng.gen_range(0.0f64..2.0)).collect();
                    // A rotation of 0..s: distinct rows, not in storage order.
                    let shift = rng.gen_range(0..n);
                    let rows: Vec<u32> = (0..s).map(|i| ((i + shift) % n) as u32).collect();
                    // Every third case silences the cascade's first half,
                    // so the early denominators sit on the floor.
                    let floored = case % 3 == 0;
                    if floored {
                        for &r in &rows[..s / 2 + 1] {
                            a[r as usize * k..(r as usize + 1) * k].fill(0.0);
                        }
                    }
                    let mut t = 0.0;
                    let times = (0..s)
                        .map(|_| {
                            // Ties: the clock stands still half the time.
                            if rng.gen_bool(0.5) {
                                t += rng.gen_range(0.05f64..2.0);
                            }
                            t
                        })
                        .collect();
                    let c = IndexedCascade { rows, times };

                    let entry_a: Vec<f64> =
                        (0..n * k).map(|_| rng.gen_range(-1.0f64..1.0)).collect();
                    let entry_b: Vec<f64> =
                        (0..n * k).map(|_| rng.gen_range(-1.0f64..1.0)).collect();
                    let (mut ga, mut gb) = (entry_a.clone(), entry_b.clone());
                    let (mut ra, mut rb) = (entry_a, entry_b);
                    let mut scratch = GradScratch::new(k);
                    let ll = accumulate_gradients(&c, &a, &b, k, &mut ga, &mut gb, &mut scratch);
                    let want = accumulate_gradients_reference(
                        &c,
                        &a,
                        &b,
                        k,
                        &mut ra,
                        &mut rb,
                        &mut scratch,
                    );
                    assert_eq!(ll.to_bits(), want.to_bits(), "case {case} k {k} s {s}: LL");
                    let direct = crate::likelihood::cascade_log_likelihood(&c, &a, &b, k);
                    assert_eq!(ll.to_bits(), direct.to_bits(), "case {case} k {k} s {s}");
                    if floored && s == 2 {
                        assert_eq!(ll, RATE_FLOOR.ln(), "case {case} k {k}: floor not hit");
                    }
                    assert_eq!(bits(&ga), bits(&ra), "case {case} k {k} s {s}: dA");
                    assert_eq!(bits(&gb), bits(&rb), "case {case} k {k} s {s}: dB");
                }
            }
        }
    }

    /// The linear-time sweep agrees with the quadratic reference on
    /// random instances.
    #[test]
    fn sweep_equals_naive() {
        for case in 0..48 {
            let (a, b, c, k) = instance(&mut StdRng::seed_from_u64(case));
            let mut ga = vec![0.0; a.len()];
            let mut gb = vec![0.0; b.len()];
            let mut scratch = GradScratch::new(k);
            accumulate_gradients(&c, &a, &b, k, &mut ga, &mut gb, &mut scratch);
            let (na, nb) = gradients_naive(&c, &a, &b, k);
            for (i, (x, y)) in ga.iter().zip(&na).enumerate() {
                assert!(
                    (x - y).abs() < 1e-7 * (1.0 + y.abs()),
                    "case {case}: dA[{i}] sweep {x} vs naive {y}"
                );
            }
            for (i, (x, y)) in gb.iter().zip(&nb).enumerate() {
                assert!(
                    (x - y).abs() < 1e-7 * (1.0 + y.abs()),
                    "case {case}: dB[{i}] sweep {x} vs naive {y}"
                );
            }
        }
    }
}
