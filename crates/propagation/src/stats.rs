//! Corpus-level cascade statistics.
//!
//! Section II of the paper characterises the GDELT data through these
//! lenses: the short life cycle of events (most reported within the
//! first ~50 hours) and the locality of cascades. These helpers compute
//! the corresponding numbers for any
//! [`CascadeSet`] so harnesses can print them alongside paper values.

use crate::cascade::CascadeSet;

/// Five-number-ish summary of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SampleSummary {
    /// Sample size.
    pub count: usize,
    /// Minimum.
    pub min: f64,
    /// Mean.
    pub mean: f64,
    /// Median (lower of the two middles for even counts).
    pub median: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Maximum.
    pub max: f64,
}

impl SampleSummary {
    /// Summarises a sample; returns zeros for an empty input.
    fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return SampleSummary {
                count: 0,
                min: 0.0,
                mean: 0.0,
                median: 0.0,
                p90: 0.0,
                max: 0.0,
            };
        }
        let mut v = samples.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let count = v.len();
        let pick = |q: f64| v[((count as f64 - 1.0) * q).floor() as usize];
        SampleSummary {
            count,
            min: v[0],
            mean: v.iter().sum::<f64>() / count as f64,
            median: pick(0.5),
            p90: pick(0.9),
            max: v[count - 1],
        }
    }
}

/// Summary of cascade sizes.
pub fn size_summary(set: &CascadeSet) -> SampleSummary {
    let sizes: Vec<f64> = set.cascades().iter().map(|c| c.len() as f64).collect();
    SampleSummary::from_samples(&sizes)
}

/// Summary of cascade durations (first to last infection).
pub fn duration_summary(set: &CascadeSet) -> SampleSummary {
    let d: Vec<f64> = set.cascades().iter().map(|c| c.duration()).collect();
    SampleSummary::from_samples(&d)
}

/// Histogram of cascade sizes with fixed-width bins (the bars of
/// Figures 9 and 12).
pub fn size_histogram(set: &CascadeSet, bin_width: usize) -> Vec<(usize, usize)> {
    assert!(bin_width > 0);
    let max = set.cascades().iter().map(|c| c.len()).max().unwrap_or(0);
    let nbins = max / bin_width + 1;
    let mut bins = vec![0usize; nbins];
    for c in set.cascades() {
        bins[c.len() / bin_width] += 1;
    }
    bins.into_iter()
        .enumerate()
        .map(|(i, count)| (i * bin_width, count))
        .collect()
}

/// Fraction of cascades whose infections stay within one group of
/// `membership` — the paper's "most cascades are local" observation.
pub fn locality_fraction(set: &CascadeSet, membership: &[usize]) -> f64 {
    if set.is_empty() {
        return 0.0;
    }
    let local = set
        .cascades()
        .iter()
        .filter(|c| {
            let first = membership[c.seed().node.index()];
            c.infections()
                .iter()
                .all(|i| membership[i.node.index()] == first)
        })
        .count();
    local as f64 / set.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cascade::{Cascade, Infection};

    fn cascade(nodes: &[(u32, f64)]) -> Cascade {
        Cascade::new(nodes.iter().map(|&(n, t)| Infection::new(n, t)).collect()).unwrap()
    }

    fn corpus() -> CascadeSet {
        CascadeSet::new(
            6,
            vec![
                cascade(&[(0, 0.0), (1, 1.0), (2, 2.0)]),
                cascade(&[(3, 0.0), (4, 0.5)]),
                cascade(&[(0, 0.0)]),
            ],
        )
    }

    #[test]
    fn summary_of_known_sample() {
        let s = SampleSummary::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.mean, 3.0);
    }

    #[test]
    fn summary_empty_is_zeros() {
        let s = SampleSummary::from_samples(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn size_summary_counts_cascades() {
        let s = size_summary(&corpus());
        assert_eq!(s.count, 3);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.min, 1.0);
        assert!((s.mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn duration_summary_spans() {
        let s = duration_summary(&corpus());
        assert_eq!(s.max, 2.0);
        assert_eq!(s.min, 0.0);
    }

    #[test]
    fn histogram_bins_sizes() {
        let h = size_histogram(&corpus(), 2);
        // sizes 3, 2, 1 -> bins [0,2): {1}, [2,4): {3, 2}
        assert_eq!(h, vec![(0, 1), (2, 2)]);
    }

    #[test]
    fn histogram_total_equals_cascade_count() {
        let h = size_histogram(&corpus(), 1);
        let total: usize = h.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn locality_with_perfect_split() {
        // Membership: {0,1,2} region 0, {3,4,5} region 1 — all three
        // cascades stay local.
        let f = locality_fraction(&corpus(), &[0, 0, 0, 1, 1, 1]);
        assert_eq!(f, 1.0);
        // Flip node 2's region — first cascade goes cross-region.
        let f = locality_fraction(&corpus(), &[0, 0, 1, 1, 1, 1]);
        assert!((f - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn locality_of_empty_corpus() {
        let set = CascadeSet::new(2, vec![]);
        assert_eq!(locality_fraction(&set, &[0, 0]), 0.0);
    }
}
