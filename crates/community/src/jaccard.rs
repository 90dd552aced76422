//! Jaccard similarity between cascades (paper eq. 1).
//!
//! Section II measures the distance between two news-event cascades as
//! the Jaccard index of their reporting-site sets,
//! `|N(i) ∩ N(j)| / |N(i) ∪ N(j)|`; the hierarchical clustering of
//! Figure 1 runs on the corresponding distance `1 − Jaccard`.

use viralcast_graph::NodeId;

/// Jaccard index of two node sets given as *sorted, deduplicated*
/// slices. Empty-vs-empty is defined as 1 (identical sets).
fn jaccard_index(a: &[NodeId], b: &[NodeId]) -> f64 {
    debug_assert!(
        a.windows(2).all(|w| w[0] < w[1]),
        "input must be sorted/deduped"
    );
    debug_assert!(
        b.windows(2).all(|w| w[0] < w[1]),
        "input must be sorted/deduped"
    );
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let mut inter = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Jaccard distance `1 − index`.
fn jaccard_distance(a: &[NodeId], b: &[NodeId]) -> f64 {
    1.0 - jaccard_index(a, b)
}

/// A condensed (upper-triangular, row-major) pairwise distance matrix.
#[derive(Clone, Debug)]
pub struct CondensedMatrix {
    n: usize,
    data: Vec<f64>,
}

impl CondensedMatrix {
    /// Number of items.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Distance between items `i` and `j` (0 on the diagonal).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        self.data[Self::offset(self.n, i, j)]
    }

    /// Sets the distance between distinct items `i` and `j`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, d: f64) {
        assert_ne!(i, j, "diagonal is fixed at zero");
        self.data[Self::offset(self.n, i, j)] = d;
    }

    /// A zero matrix over `n` items.
    pub fn zeros(n: usize) -> Self {
        CondensedMatrix {
            n,
            data: vec![0.0; n * (n - 1) / 2],
        }
    }

    #[inline]
    fn offset(n: usize, i: usize, j: usize) -> usize {
        let (i, j) = if i < j { (i, j) } else { (j, i) };
        debug_assert!(j < n);
        // Row i starts after rows 0..i: sum_{r<i} (n-1-r) = i(2n-i-1)/2.
        i * (2 * n - i - 1) / 2 + (j - i - 1)
    }
}

/// Builds the condensed pairwise Jaccard-distance matrix over item node
/// sets. Each set is sorted and deduplicated internally.
pub fn pairwise_jaccard_distances(sets: &[Vec<NodeId>]) -> CondensedMatrix {
    let n = sets.len();
    if n == 0 {
        return CondensedMatrix { n: 0, data: vec![] };
    }
    let normalized: Vec<Vec<NodeId>> = sets
        .iter()
        .map(|s| {
            let mut v = s.clone();
            v.sort_unstable();
            v.dedup();
            v
        })
        .collect();
    let mut m = CondensedMatrix::zeros(n);
    for i in 0..n {
        for j in (i + 1)..n {
            m.set(i, j, jaccard_distance(&normalized[i], &normalized[j]));
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(xs: &[u32]) -> Vec<NodeId> {
        xs.iter().copied().map(NodeId).collect()
    }

    #[test]
    fn identical_sets_have_index_one() {
        let a = ids(&[1, 2, 3]);
        assert_eq!(jaccard_index(&a, &a), 1.0);
        assert_eq!(jaccard_distance(&a, &a), 0.0);
    }

    #[test]
    fn disjoint_sets_have_index_zero() {
        assert_eq!(jaccard_index(&ids(&[1, 2]), &ids(&[3, 4])), 0.0);
    }

    #[test]
    fn partial_overlap() {
        // |{1,2} ∩ {2,3}| / |{1,2,3}| = 1/3
        let v = jaccard_index(&ids(&[1, 2]), &ids(&[2, 3]));
        assert!((v - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_conventions() {
        assert_eq!(jaccard_index(&[], &[]), 1.0);
        assert_eq!(jaccard_index(&[], &ids(&[1])), 0.0);
    }

    #[test]
    fn condensed_offsets_cover_triangle() {
        let mut m = CondensedMatrix::zeros(4);
        let mut v = 1.0;
        for i in 0..4 {
            for j in (i + 1)..4 {
                m.set(i, j, v);
                v += 1.0;
            }
        }
        // 6 entries, all distinct, symmetric access.
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    let bits = m.get(i, j).to_bits();
                    assert_eq!(m.get(i, j), m.get(j, i));
                    seen.insert(bits);
                }
            }
        }
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn pairwise_matrix_matches_direct() {
        let sets = vec![ids(&[0, 1]), ids(&[1, 2]), ids(&[5])];
        let m = pairwise_jaccard_distances(&sets);
        assert!((m.get(0, 1) - (1.0 - 1.0 / 3.0)).abs() < 1e-12);
        assert_eq!(m.get(0, 2), 1.0);
        assert_eq!(m.get(1, 1), 0.0);
    }

    #[test]
    fn pairwise_handles_unsorted_input() {
        let sets = vec![ids(&[3, 1, 2]), ids(&[2, 3, 1])];
        let m = pairwise_jaccard_distances(&sets);
        assert_eq!(m.get(0, 1), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    /// A sorted set of 0–14 distinct nodes below 30.
    fn sorted_set(rng: &mut StdRng) -> Vec<NodeId> {
        let size = rng.gen_range(0..15usize);
        let mut set = BTreeSet::new();
        while set.len() < size {
            set.insert(rng.gen_range(0u32..30));
        }
        set.into_iter().map(NodeId).collect()
    }

    /// Jaccard is symmetric and bounded in [0, 1].
    #[test]
    fn symmetric_and_bounded() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let (a, b) = (sorted_set(&mut rng), sorted_set(&mut rng));
            let ab = jaccard_index(&a, &b);
            let ba = jaccard_index(&b, &a);
            assert!((ab - ba).abs() < 1e-15, "case {case}: {ab} vs {ba}");
            assert!((0.0..=1.0).contains(&ab), "case {case}: {ab}");
        }
    }

    /// Jaccard distance satisfies the triangle inequality (it is a
    /// proper metric on finite sets).
    #[test]
    fn triangle_inequality() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let (a, b, c) = (
                sorted_set(&mut rng),
                sorted_set(&mut rng),
                sorted_set(&mut rng),
            );
            let dab = jaccard_distance(&a, &b);
            let dbc = jaccard_distance(&b, &c);
            let dac = jaccard_distance(&a, &c);
            assert!(
                dac <= dab + dbc + 1e-12,
                "case {case}: {dac} > {dab} + {dbc}"
            );
        }
    }
}
