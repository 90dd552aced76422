//! Hazard and survival functions from survival analysis (Section III-A).
//!
//! For an infection delay `Δt` along a link, the *hazard* `h(Δt)` is the
//! instantaneous infection rate conditioned on no earlier infection, and
//! the *survival* `S(Δt)` is the probability the infection has not
//! happened by `Δt`; they are related by `S(Δt) = exp(−∫₀^{Δt} h)`.
//!
//! The paper's model (eqs. 6–7) uses the constant hazard
//! `h_uv(Δt) = ⟨A_u, B_v⟩` — an exponential delay — because the minimum
//! of `K` independent exponentials with rates `A_{u,k} B_{v,k}` is again
//! exponential with the summed rate.

use rand::Rng;

/// A parametric delay distribution expressed through its hazard/survival
/// pair, with enough structure to simulate and to score likelihoods.
pub trait HazardFunction: Clone + Send + Sync {
    /// Hazard `h(Δt)` for `Δt ≥ 0`.
    fn hazard(&self, dt: f64) -> f64;

    /// Survival `S(Δt) = P[delay > Δt]`.
    fn survival(&self, dt: f64) -> f64;

    /// `ln S(Δt)`, computed directly to avoid underflow for large `Δt`.
    fn log_survival(&self, dt: f64) -> f64;

    /// Draws one delay.
    fn sample<R: Rng>(&self, rng: &mut R) -> f64;

    /// Expected delay, if finite.
    fn mean(&self) -> f64;
}

/// Exponential delay: `h(Δt) = λ`, `S(Δt) = e^{−λΔt}`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Exponential {
    /// Rate `λ > 0`.
    pub rate: f64,
}

impl Exponential {
    /// An exponential delay with rate `λ`.
    ///
    /// # Panics
    /// Panics if `rate` is not strictly positive and finite.
    pub fn new(rate: f64) -> Self {
        assert!(
            rate > 0.0 && rate.is_finite(),
            "rate must be positive, got {rate}"
        );
        Exponential { rate }
    }
}

impl HazardFunction for Exponential {
    #[inline]
    fn hazard(&self, _dt: f64) -> f64 {
        self.rate
    }

    #[inline]
    fn survival(&self, dt: f64) -> f64 {
        (-self.rate * dt).exp()
    }

    #[inline]
    fn log_survival(&self, dt: f64) -> f64 {
        -self.rate * dt
    }

    #[inline]
    fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        // Inverse CDF; 1 − U avoids ln(0).
        let u: f64 = rng.gen_range(0.0..1.0);
        -(1.0 - u).ln() / self.rate
    }

    #[inline]
    fn mean(&self) -> f64 {
        1.0 / self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exponential_survival_matches_log() {
        let e = Exponential::new(0.7);
        for dt in [0.0, 0.5, 2.0, 10.0] {
            assert!((e.survival(dt).ln() - e.log_survival(dt)).abs() < 1e-12);
        }
    }

    #[test]
    fn exponential_survival_at_zero_is_one() {
        assert_eq!(Exponential::new(3.0).survival(0.0), 1.0);
    }

    #[test]
    fn exponential_sample_mean_close_to_inverse_rate() {
        let e = Exponential::new(2.0);
        let mut rng = StdRng::seed_from_u64(1);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| e.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - e.mean()).abs() < 0.01, "sample mean {mean}");
    }

    #[test]
    fn survival_is_consistent_with_hazard_integral() {
        // S(t) = exp(-∫h); numerically integrate and compare.
        let r = Exponential::new(0.8);
        let t = 2.0;
        let steps = 100_000;
        let h = t / steps as f64;
        let integral: f64 = (0..steps).map(|i| r.hazard((i as f64 + 0.5) * h) * h).sum();
        assert!(((-integral).exp() - r.survival(t)).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_rate_rejected() {
        Exponential::new(0.0);
    }

    #[test]
    fn higher_rate_means_shorter_delays() {
        let mut rng = StdRng::seed_from_u64(3);
        let fast: f64 = (0..10_000)
            .map(|_| Exponential::new(5.0).sample(&mut rng))
            .sum();
        let slow: f64 = (0..10_000)
            .map(|_| Exponential::new(0.5).sample(&mut rng))
            .sum();
        assert!(fast < slow);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A parameter in [0.01, 20) and an ordered pair of delays in [0, 10).
    fn parameter_and_delays(rng: &mut StdRng) -> (f64, f64, f64) {
        let parameter = rng.gen_range(0.01f64..20.0);
        let a = rng.gen_range(0.0f64..10.0);
        let b = rng.gen_range(0.0f64..10.0);
        (parameter, a.min(b), a.max(b))
    }

    /// Survival is monotonically non-increasing in Δt and bounded by
    /// [0, 1]; samples are non-negative.
    #[test]
    fn exponential_laws() {
        for case in 0..64 {
            let mut rng = StdRng::seed_from_u64(case);
            let (rate, lo, hi) = parameter_and_delays(&mut rng);
            let e = Exponential::new(rate);
            assert!(
                e.survival(lo) >= e.survival(hi),
                "case {case}: rate {rate}, {lo} vs {hi}"
            );
            assert!(
                (0.0..=1.0).contains(&e.survival(hi)),
                "case {case}: rate {rate}, S({hi})"
            );
            assert!(e.sample(&mut rng) >= 0.0, "case {case}: rate {rate}");
        }
    }
}
