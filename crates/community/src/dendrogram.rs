//! Dendrograms over Ward merges.
//!
//! Figure 1 of the paper annotates the clustering tree's inner nodes with
//! their Ward distance and leaf count and reads off three regional
//! clusters. [`Dendrogram`] supports exactly those uses: cutting the tree
//! into `k` flat clusters, cutting at a distance, and summarising the top
//! merges for textual display.

use crate::ward::Merge;
use serde::{Deserialize, Serialize};

/// A dendrogram: `n` leaves plus the `n − 1` merges that join them.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Dendrogram {
    leaf_count: usize,
    merges: Vec<Merge>,
}

impl Dendrogram {
    /// Wraps linkage output.
    ///
    /// # Panics
    /// Panics if the merge count is not `leaf_count − 1` (for
    /// `leaf_count ≥ 1`).
    pub fn new(leaf_count: usize, merges: Vec<Merge>) -> Self {
        assert_eq!(
            merges.len(),
            leaf_count.saturating_sub(1),
            "a dendrogram over {leaf_count} leaves needs {} merges",
            leaf_count.saturating_sub(1)
        );
        Dendrogram { leaf_count, merges }
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.leaf_count
    }

    /// The merges, sorted by Ward distance.
    pub fn merges(&self) -> &[Merge] {
        &self.merges
    }

    /// Flat clustering with exactly `k` clusters (1 ≤ k ≤ leaves):
    /// applies the first `n − k` merges and labels the resulting groups
    /// `0..k` in order of their smallest leaf.
    pub fn cut_k(&self, k: usize) -> Vec<usize> {
        assert!(
            (1..=self.leaf_count.max(1)).contains(&k),
            "k = {k} out of range for {} leaves",
            self.leaf_count
        );
        self.cut_after(self.leaf_count - k)
    }

    /// Flat clustering keeping only merges with `distance <= threshold`.
    pub fn cut_distance(&self, threshold: f64) -> Vec<usize> {
        let applied = self.merges.partition_point(|m| m.distance <= threshold);
        self.cut_after(applied)
    }

    /// The `k` highest merges (the annotated inner nodes of Figure 1),
    /// highest first, as `(distance, size)` pairs.
    pub fn top_merges(&self, k: usize) -> Vec<(f64, usize)> {
        self.merges
            .iter()
            .rev()
            .take(k)
            .map(|m| (m.distance, m.size))
            .collect()
    }

    /// Applies the first `applied` merges via union-find and returns
    /// dense cluster labels.
    fn cut_after(&self, applied: usize) -> Vec<usize> {
        let n = self.leaf_count;
        if n == 0 {
            return Vec::new();
        }
        // Union-find over leaf ids and internal ids n..n+applied.
        let mut parent: Vec<usize> = (0..n + applied).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for (s, m) in self.merges[..applied].iter().enumerate() {
            let internal = n + s;
            let l = find(&mut parent, m.left);
            let r = find(&mut parent, m.right);
            parent[l] = internal;
            parent[r] = internal;
        }
        // Dense labels in order of first appearance over leaves.
        let mut label_of_root: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::new();
        let mut out = Vec::with_capacity(n);
        for leaf in 0..n {
            let root = find(&mut parent, leaf);
            let next = label_of_root.len();
            let label = *label_of_root.entry(root).or_insert(next);
            out.push(label);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dendrogram over 4 leaves: (0,1)@1, (2,3)@2, join@5.
    fn sample() -> Dendrogram {
        Dendrogram::new(
            4,
            vec![
                Merge {
                    left: 0,
                    right: 1,
                    distance: 1.0,
                    size: 2,
                },
                Merge {
                    left: 2,
                    right: 3,
                    distance: 2.0,
                    size: 2,
                },
                Merge {
                    left: 4,
                    right: 5,
                    distance: 5.0,
                    size: 4,
                },
            ],
        )
    }

    #[test]
    fn cut_into_singletons() {
        assert_eq!(sample().cut_k(4), vec![0, 1, 2, 3]);
    }

    #[test]
    fn cut_into_two() {
        assert_eq!(sample().cut_k(2), vec![0, 0, 1, 1]);
    }

    #[test]
    fn cut_into_one() {
        assert_eq!(sample().cut_k(1), vec![0, 0, 0, 0]);
    }

    #[test]
    fn cut_into_three_applies_lowest_merge() {
        assert_eq!(sample().cut_k(3), vec![0, 0, 1, 2]);
    }

    #[test]
    fn cut_by_distance() {
        let d = sample();
        assert_eq!(d.cut_distance(0.5), vec![0, 1, 2, 3]);
        assert_eq!(d.cut_distance(1.5), vec![0, 0, 1, 2]);
        assert_eq!(d.cut_distance(3.0), vec![0, 0, 1, 1]);
        assert_eq!(d.cut_distance(10.0), vec![0, 0, 0, 0]);
    }

    #[test]
    fn top_merges_highest_first() {
        let t = sample().top_merges(2);
        assert_eq!(t, vec![(5.0, 4), (2.0, 2)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cut_zero_rejected() {
        sample().cut_k(0);
    }

    #[test]
    #[should_panic(expected = "needs")]
    fn wrong_merge_count_rejected() {
        Dendrogram::new(3, vec![]);
    }

    #[test]
    fn single_leaf() {
        let d = Dendrogram::new(1, vec![]);
        assert_eq!(d.cut_k(1), vec![0]);
        assert!(d.top_merges(3).is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::ward::proptests::random_matrix;
    use crate::ward::ward_linkage;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// cut_k yields exactly k clusters, and coarser cuts merge finer
    /// ones (nesting property of hierarchical clusterings).
    #[test]
    fn cuts_nest() {
        for case in 0..48 {
            let m = random_matrix(&mut StdRng::seed_from_u64(case));
            let d = Dendrogram::new(m.len(), ward_linkage(&m));
            let n = d.leaf_count();
            for k in 1..=n {
                let mut labels = d.cut_k(k);
                labels.sort_unstable();
                labels.dedup();
                assert_eq!(labels.len(), k, "case {case}: cut_k({k})");
            }
            for k in 1..n {
                let coarse = d.cut_k(k);
                let fine = d.cut_k(k + 1);
                // Same fine cluster ⇒ same coarse cluster.
                for i in 0..n {
                    for j in 0..n {
                        if fine[i] == fine[j] {
                            assert_eq!(
                                coarse[i],
                                coarse[j],
                                "case {case}: leaves {i}, {j} split going from {} to {k} clusters",
                                k + 1
                            );
                        }
                    }
                }
            }
        }
    }
}
