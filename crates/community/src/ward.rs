//! Agglomerative hierarchical clustering with the Ward criterion —
//! the method behind the dendrogram of Figure 1.
//!
//! "The hierarchical clustering algorithm, which merges iteratively the
//! closest cascades according to the Ward distance measure among all
//! pairs of cascades, is applied to obtain a dendrogram." We implement
//! the nearest-neighbour-chain algorithm: `O(n²)` time and one condensed
//! distance matrix of memory, with cluster distances updated through the
//! Lance–Williams recurrence for Ward's linkage
//!
//! ```text
//! d(i∪j, k)² = [ (nᵢ+nₖ) d(i,k)² + (nⱼ+nₖ) d(j,k)² − nₖ d(i,j)² ] / (nᵢ+nⱼ+nₖ)
//! ```
//!
//! NN-chain is exact for Ward because the linkage is *reducible*:
//! merging two clusters never makes either closer to a third, so
//! reciprocal nearest neighbours can be merged in any discovery order
//! and yield the same dendrogram as the naive global-minimum algorithm.

use crate::jaccard::CondensedMatrix;

/// One agglomeration step, in the SciPy linkage convention: leaves are
/// clusters `0..n`, and the cluster created by step `s` has id `n + s`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Merge {
    /// Smaller of the two merged cluster ids.
    pub left: usize,
    /// Larger of the two merged cluster ids.
    pub right: usize,
    /// Ward distance at which the merge happened.
    pub distance: f64,
    /// Number of leaves in the new cluster.
    pub size: usize,
}

/// Runs Ward agglomerative clustering on a condensed distance matrix,
/// returning the `n − 1` merges in execution order (sorted by distance).
///
/// ```
/// use viralcast_community::jaccard::pairwise_jaccard_distances;
/// use viralcast_community::{ward_linkage, Dendrogram};
/// use viralcast_graph::NodeId;
///
/// // Two events over almost-identical site sets, one disjoint.
/// let sets = vec![
///     vec![NodeId(0), NodeId(1), NodeId(2)],
///     vec![NodeId(0), NodeId(1)],
///     vec![NodeId(7), NodeId(8)],
/// ];
/// let merges = ward_linkage(&pairwise_jaccard_distances(&sets));
/// let dendrogram = Dendrogram::new(3, merges);
/// // Cutting at two clusters separates the disjoint event.
/// assert_eq!(dendrogram.cut_k(2), vec![0, 0, 1]);
/// ```
pub fn ward_linkage(distances: &CondensedMatrix) -> Vec<Merge> {
    let n = distances.len();
    if n <= 1 {
        return Vec::new();
    }
    // Working state: slot-indexed. A merge reuses the lower slot.
    let mut d = distances.clone();
    let mut active: Vec<bool> = vec![true; n];
    let mut sizes: Vec<usize> = vec![1; n];
    let mut cluster_id: Vec<usize> = (0..n).collect();
    let mut merges: Vec<Merge> = Vec::with_capacity(n - 1);
    let mut chain: Vec<usize> = Vec::with_capacity(n);
    let mut next_id = n;

    while merges.len() < n - 1 {
        if chain.is_empty() {
            let first = active
                .iter()
                .position(|&a| a)
                .expect("at least two clusters remain");
            chain.push(first);
        }
        loop {
            let a = *chain.last().unwrap();
            // Nearest active neighbour of `a`, smallest slot on ties.
            let mut best = usize::MAX;
            let mut best_d = f64::INFINITY;
            #[allow(clippy::needless_range_loop)] // k indexes both `active` and the matrix
            for k in 0..n {
                if k == a || !active[k] {
                    continue;
                }
                let dk = d.get(a, k);
                if dk < best_d {
                    best_d = dk;
                    best = k;
                }
            }
            debug_assert_ne!(best, usize::MAX);
            if chain.len() >= 2 && chain[chain.len() - 2] == best {
                // Reciprocal nearest neighbours: merge.
                chain.pop();
                chain.pop();
                merge(
                    &mut d,
                    &mut active,
                    &mut sizes,
                    &mut cluster_id,
                    &mut merges,
                    a,
                    best,
                    best_d,
                    &mut next_id,
                );
                break;
            }
            chain.push(best);
        }
    }
    // NN-chain discovers merges out of global order; Ward heights are
    // monotone, so sorting by distance restores the dendrogram order.
    // Re-label internal ids to match the sorted order.
    relabel_sorted(n, merges)
}

#[allow(clippy::too_many_arguments)]
fn merge(
    d: &mut CondensedMatrix,
    active: &mut [bool],
    sizes: &mut [usize],
    cluster_id: &mut [usize],
    merges: &mut Vec<Merge>,
    a: usize,
    b: usize,
    dist: f64,
    next_id: &mut usize,
) {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    let (ni, nj) = (sizes[lo] as f64, sizes[hi] as f64);
    let dij = dist;
    let n = active.len();
    for k in 0..n {
        if !active[k] || k == lo || k == hi {
            continue;
        }
        let nk = sizes[k] as f64;
        let dik = d.get(lo, k);
        let djk = d.get(hi, k);
        let num = (ni + nk) * dik * dik + (nj + nk) * djk * djk - nk * dij * dij;
        let new_d = (num / (ni + nj + nk)).max(0.0).sqrt();
        d.set(lo, k, new_d);
    }
    let (ida, idb) = (cluster_id[lo], cluster_id[hi]);
    merges.push(Merge {
        left: ida.min(idb),
        right: ida.max(idb),
        distance: dist,
        size: sizes[lo] + sizes[hi],
    });
    sizes[lo] += sizes[hi];
    active[hi] = false;
    cluster_id[lo] = *next_id;
    *next_id += 1;
}

/// Sorts merges by distance and renumbers internal cluster ids to the
/// SciPy convention (step `s` creates id `n + s`).
fn relabel_sorted(n: usize, mut merges: Vec<Merge>) -> Vec<Merge> {
    // Stable sort keeps equal-height merges in execution order, which is
    // a valid tie-break.
    let order: Vec<usize> = {
        let mut idx: Vec<usize> = (0..merges.len()).collect();
        idx.sort_by(|&x, &y| {
            merges[x]
                .distance
                .partial_cmp(&merges[y].distance)
                .unwrap()
                .then(x.cmp(&y))
        });
        idx
    };
    // old internal id (n + exec_step) -> new internal id (n + rank)
    let mut remap = vec![0usize; merges.len()];
    for (rank, &step) in order.iter().enumerate() {
        remap[step] = n + rank;
    }
    let fix = |id: usize| if id < n { id } else { remap[id - n] };
    let mut out: Vec<Merge> = order
        .iter()
        .map(|&step| {
            let m = merges[step];
            let (l, r) = (fix(m.left), fix(m.right));
            Merge {
                left: l.min(r),
                right: l.max(r),
                distance: m.distance,
                size: m.size,
            }
        })
        .collect();
    merges.clear();
    merges.append(&mut out);
    merges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(n: usize, entries: &[(usize, usize, f64)]) -> CondensedMatrix {
        let mut m = CondensedMatrix::zeros(n);
        for &(i, j, d) in entries {
            m.set(i, j, d);
        }
        m
    }

    #[test]
    fn two_points_single_merge() {
        let m = matrix(2, &[(0, 1, 3.0)]);
        let merges = ward_linkage(&m);
        assert_eq!(merges.len(), 1);
        assert_eq!((merges[0].left, merges[0].right), (0, 1));
        assert_eq!(merges[0].distance, 3.0);
        assert_eq!(merges[0].size, 2);
    }

    #[test]
    fn closest_pair_merges_first() {
        // 0-1 close, 2 far from both.
        let m = matrix(3, &[(0, 1, 1.0), (0, 2, 10.0), (1, 2, 10.0)]);
        let merges = ward_linkage(&m);
        assert_eq!(merges.len(), 2);
        assert_eq!((merges[0].left, merges[0].right), (0, 1));
        assert!(merges[1].distance > merges[0].distance);
        // Second merge joins leaf 2 with internal cluster 3.
        assert_eq!((merges[1].left, merges[1].right), (2, 3));
        assert_eq!(merges[1].size, 3);
    }

    #[test]
    fn two_tight_pairs_then_join() {
        let m = matrix(
            4,
            &[
                (0, 1, 1.0),
                (2, 3, 1.0),
                (0, 2, 20.0),
                (0, 3, 20.0),
                (1, 2, 20.0),
                (1, 3, 20.0),
            ],
        );
        let merges = ward_linkage(&m);
        assert_eq!(merges.len(), 3);
        // First two merges are the tight pairs (order between them is a
        // tie), final merge joins the two internal clusters.
        let firsts: Vec<(usize, usize)> = merges[..2].iter().map(|m| (m.left, m.right)).collect();
        assert!(firsts.contains(&(0, 1)));
        assert!(firsts.contains(&(2, 3)));
        assert_eq!((merges[2].left, merges[2].right), (4, 5));
        assert_eq!(merges[2].size, 4);
    }

    #[test]
    fn distances_are_monotone_nondecreasing() {
        // Random-ish matrix; Ward heights must be sorted after linkage.
        let mut m = CondensedMatrix::zeros(8);
        let mut v = 0.1;
        for i in 0..8 {
            for j in (i + 1)..8 {
                v = (v * 1.7 + 0.3) % 5.0 + 0.2;
                m.set(i, j, v);
            }
        }
        let merges = ward_linkage(&m);
        assert_eq!(merges.len(), 7);
        for w in merges.windows(2) {
            assert!(
                w[1].distance >= w[0].distance - 1e-9,
                "heights not monotone: {} then {}",
                w[0].distance,
                w[1].distance
            );
        }
    }

    #[test]
    fn sizes_sum_correctly() {
        let mut m = CondensedMatrix::zeros(6);
        for i in 0..6 {
            for j in (i + 1)..6 {
                m.set(i, j, ((i * 7 + j * 13) % 10) as f64 + 1.0);
            }
        }
        let merges = ward_linkage(&m);
        assert_eq!(merges.last().unwrap().size, 6);
    }

    #[test]
    fn internal_ids_follow_scipy_convention() {
        let mut m = CondensedMatrix::zeros(5);
        for i in 0..5 {
            for j in (i + 1)..5 {
                m.set(i, j, (i + j) as f64 + 1.0);
            }
        }
        let merges = ward_linkage(&m);
        for (s, mg) in merges.iter().enumerate() {
            assert!(mg.left < 5 + s, "merge {s} references future cluster");
            assert!(mg.right < 5 + s);
            assert!(mg.left < mg.right);
        }
    }

    #[test]
    fn trivial_inputs() {
        assert!(ward_linkage(&CondensedMatrix::zeros(1)).is_empty());
        let empty = crate::jaccard::pairwise_jaccard_distances(&[]);
        assert!(ward_linkage(&empty).is_empty());
    }
}

#[cfg(test)]
pub(crate) mod proptests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Distances in [0.1, 10) between 2–11 points.
    pub(crate) fn random_matrix(rng: &mut StdRng) -> CondensedMatrix {
        let n = rng.gen_range(2usize..12);
        let mut m = CondensedMatrix::zeros(n);
        for i in 0..n {
            for j in (i + 1)..n {
                m.set(i, j, rng.gen_range(0.1f64..10.0));
            }
        }
        m
    }

    /// Structural laws of any linkage output: n−1 merges, each
    /// cluster used at most once as a child, final size n, heights
    /// monotone.
    #[test]
    fn linkage_laws() {
        for case in 0..48 {
            let m = random_matrix(&mut StdRng::seed_from_u64(case));
            let n = m.len();
            let merges = ward_linkage(&m);
            assert_eq!(merges.len(), n - 1, "case {case}");
            let mut used = vec![false; 2 * n - 1];
            for mg in &merges {
                assert!(
                    !used[mg.left],
                    "case {case}: cluster {} used twice",
                    mg.left
                );
                assert!(
                    !used[mg.right],
                    "case {case}: cluster {} used twice",
                    mg.right
                );
                used[mg.left] = true;
                used[mg.right] = true;
            }
            assert_eq!(merges.last().unwrap().size, n, "case {case}");
            for w in merges.windows(2) {
                assert!(
                    w[1].distance >= w[0].distance - 1e-9,
                    "case {case}: height drops from {} to {}",
                    w[0].distance,
                    w[1].distance
                );
            }
        }
    }
}
