//! Order statistics over small samples.
//!
//! Two interpolation rules are in play and kept apart on purpose:
//! latency percentiles inside one run use the common linear rule
//! (Hyndman–Fan type 7), while quartiles *across* runs use Python's
//! `statistics.quantiles(values, n=4)` default ("exclusive", type 6),
//! because that is what the benchmark driver applies to this program's
//! output when it judges run-to-run spread.

/// Sorts a copy of `values` ascending (NaNs last, never expected).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of an ascending slice, interpolating
/// linearly between the two closest ranks. `None` on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let position = q * (sorted.len() - 1) as f64;
    let below = position.floor() as usize;
    let above = position.ceil() as usize;
    let frac = position - below as f64;
    Some(sorted[below] + frac * (sorted[above] - sorted[below]))
}

/// The median of an unsorted sample.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile_sorted(&sorted(values), 0.5)
}

/// How many observations lie strictly beyond the `q`-quantile's rank —
/// the guide's test for whether a percentile is supported by the sample
/// ("at least ten samples beyond it").
pub fn samples_beyond(len: usize, q: f64) -> usize {
    len.saturating_sub((q * len as f64).ceil() as usize)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them: the cut point
/// `i` sits at position `i·(len+1)/4` (1-based), interpolated, clamped
/// to the sample. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let v = sorted(values);
    let len = v.len();
    let mut cuts = [0.0; 3];
    for (slot, i) in cuts.iter_mut().zip(1..=3usize) {
        // Python: j = i*(ld+1)//n clamped to [1, ld-1];
        // delta = i*(ld+1) - j*n; result = (data[j-1]*(n-delta) + data[j]*delta)/n
        let scaled = i * (len + 1);
        let j = (scaled / 4).clamp(1, len - 1);
        let delta = scaled as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(cuts)
}

/// Run-to-run spread as the driver measures it: (Q3 − Q1) / |median|.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Which direction of change is a regression.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (latency, cost).
    Lower,
    /// Larger values are better (throughput).
    Higher,
}

impl Better {
    /// The contract's spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `candidate` is than `base`, as a share of `base`;
    /// negative when it is better.
    pub fn worsening(self, base: f64, candidate: f64) -> f64 {
        let change = (candidate - base) / base.abs();
        match self {
            Better::Lower => change,
            Better::Higher => -change,
        }
    }

    /// Whether `a` is strictly better than `b`.
    pub fn is_better(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_quantiles_interpolate_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(quantile_sorted(&v, 1.0), Some(4.0));
        assert_eq!(quantile_sorted(&v, 0.5), Some(2.5));
        assert_eq!(quantile_sorted(&v, 0.25), Some(1.75));
        assert_eq!(quantile_sorted(&[7.0], 0.99), Some(7.0));
        assert_eq!(quantile_sorted(&[], 0.5), None);
        assert_eq!(quantile_sorted(&v, 1.5), None);
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(
            quartiles(&[160.0, 10.0, 80.0, 20.0, 40.0]),
            Some([15.0, 40.0, 120.0])
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_iqr_is_the_interquartile_share_of_the_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(relative_iqr(&ten), Some(1.0));
        assert_eq!(relative_iqr(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn percentile_support_counts_samples_beyond_the_rank() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(500, 0.99), 5);
        assert_eq!(samples_beyond(30, 0.7), 9);
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((Better::Lower.worsening(100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((Better::Higher.worsening(100.0, 110.0) + 0.10).abs() < 1e-12);
        assert!(Better::Higher.is_better(2.0, 1.0));
        assert!(Better::Lower.is_better(1.0, 2.0));
    }
}
