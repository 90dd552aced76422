//! Sub-cascade extraction — Algorithm 1, lines 1–11.
//!
//! "At the beginning, each cascade is divided into multiple sub-cascades
//! according to the node memberships." A sub-cascade keeps only the
//! infections of nodes in one community, preserving their relative
//! times, and is expressed in *local row indices* so that a worker
//! holding a community's matrix block can apply gradients without any
//! global indexing.

use std::ops::Range;
use viralcast_community::MergeHierarchy;
use viralcast_obs as obs;
use viralcast_propagation::{Cascade, CascadeSet};

/// Bucket bounds for the per-cascade split fan-out histogram
/// (`split.fanout` — how many sub-cascades one cascade produced).
const FANOUT_BOUNDS: [f64; 5] = [1.0, 2.0, 4.0, 8.0, 16.0];

/// A cascade over local matrix rows: `rows[i]` was infected at
/// `times[i]`, times non-decreasing.
#[derive(Clone, Debug, PartialEq)]
pub struct IndexedCascade {
    /// Local row indices, parallel to `times`.
    pub rows: Vec<u32>,
    /// Infection times, non-decreasing.
    pub times: Vec<f64>,
}

impl IndexedCascade {
    /// Number of infections.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the sub-cascade is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Builds from a full cascade with the identity node → row mapping
    /// (sequential inference over the whole matrix).
    pub fn from_cascade(c: &Cascade) -> Self {
        IndexedCascade {
            rows: c.infections().iter().map(|i| i.node.0).collect(),
            times: c.infections().iter().map(|i| i.time).collect(),
        }
    }
}

/// Splits every cascade of `set` into per-group sub-cascades for the
/// given hierarchy level. Returns one `Vec<IndexedCascade>` per group
/// (same order as [`MergeHierarchy::node_ranges`]); sub-cascades shorter
/// than two infections are dropped because they carry no likelihood
/// terms (the seed's own infection is conditioned on, not modelled).
pub fn split_cascades(
    set: &CascadeSet,
    hierarchy: &MergeHierarchy,
    level: usize,
) -> Vec<Vec<IndexedCascade>> {
    let ranges = hierarchy.node_ranges(level);
    split_cascades_by_ranges(set, hierarchy, &ranges)
}

/// As [`split_cascades`], for explicit position ranges (must be sorted
/// and disjoint, as produced by the hierarchy).
pub fn split_cascades_by_ranges(
    set: &CascadeSet,
    hierarchy: &MergeHierarchy,
    ranges: &[Range<usize>],
) -> Vec<Vec<IndexedCascade>> {
    let _span = obs::Span::enter("split");
    let fanout_hist = obs::metrics().histogram("split.fanout", &FANOUT_BOUNDS);
    let starts: Vec<usize> = ranges.iter().map(|r| r.start).collect();
    let mut out: Vec<Vec<IndexedCascade>> = vec![Vec::new(); ranges.len()];
    // Scratch buffers reused across cascades.
    let mut buckets: Vec<IndexedCascade> = ranges
        .iter()
        .map(|_| IndexedCascade {
            rows: Vec::new(),
            times: Vec::new(),
        })
        .collect();
    for cascade in set.cascades() {
        for inf in cascade.infections() {
            let pos = hierarchy.position_of(inf.node);
            // Group index: last range starting at or before pos.
            let g = match starts.binary_search(&pos) {
                Ok(i) => i,
                Err(i) => i - 1,
            };
            debug_assert!(ranges[g].contains(&pos));
            buckets[g].rows.push((pos - ranges[g].start) as u32);
            buckets[g].times.push(inf.time);
        }
        let mut fanout = 0u64;
        for (g, bucket) in buckets.iter_mut().enumerate() {
            if bucket.len() >= 2 {
                out[g].push(bucket.clone());
                fanout += 1;
            }
            bucket.rows.clear();
            bucket.times.clear();
        }
        fanout_hist.record(fanout as f64);
    }
    obs::metrics()
        .counter("split.subcascades")
        .incr(out.iter().map(|g| g.len() as u64).sum());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use viralcast_community::{Balance, Partition};
    use viralcast_propagation::Infection;

    fn cascade(pairs: &[(u32, f64)]) -> Cascade {
        Cascade::new(pairs.iter().map(|&(n, t)| Infection::new(n, t)).collect()).unwrap()
    }

    /// 6 nodes, communities {0,1,2} and {3,4,5}.
    fn hierarchy() -> MergeHierarchy {
        MergeHierarchy::build(
            Partition::from_membership(&[0, 0, 0, 1, 1, 1]),
            Balance::LeafCount,
        )
    }

    #[test]
    fn identity_mapping_from_cascade() {
        let c = cascade(&[(4, 0.0), (1, 1.0)]);
        let ic = IndexedCascade::from_cascade(&c);
        assert_eq!(ic.rows, vec![4, 1]);
        assert_eq!(ic.times, vec![0.0, 1.0]);
    }

    #[test]
    fn split_respects_memberships() {
        let h = hierarchy();
        let set = CascadeSet::new(6, vec![cascade(&[(0, 0.0), (3, 1.0), (1, 2.0), (4, 3.0)])]);
        let groups = split_cascades(&set, &h, 0);
        assert_eq!(groups.len(), 2);
        // Community 0 sub-cascade: nodes 0, 1 at times 0, 2.
        assert_eq!(groups[0].len(), 1);
        assert_eq!(groups[0][0].times, vec![0.0, 2.0]);
        // Community 1 sub-cascade: nodes 3, 4 at times 1, 3.
        assert_eq!(groups[1].len(), 1);
        assert_eq!(groups[1][0].times, vec![1.0, 3.0]);
    }

    #[test]
    fn rows_are_local_to_the_block() {
        let h = hierarchy();
        let set = CascadeSet::new(6, vec![cascade(&[(3, 0.0), (5, 1.0)])]);
        let groups = split_cascades(&set, &h, 0);
        // Positions of 3 and 5 within the second block are local (0-based).
        assert!(groups[0].is_empty());
        let sc = &groups[1][0];
        assert!(
            sc.rows.iter().all(|&r| r < 3),
            "rows {:?} not local",
            sc.rows
        );
    }

    #[test]
    fn singleton_subcascades_dropped() {
        let h = hierarchy();
        // One infection in each community: both sub-cascades have size 1.
        let set = CascadeSet::new(6, vec![cascade(&[(0, 0.0), (3, 1.0)])]);
        let groups = split_cascades(&set, &h, 0);
        assert!(groups[0].is_empty());
        assert!(groups[1].is_empty());
    }

    #[test]
    fn top_level_keeps_whole_cascades() {
        let h = hierarchy();
        let set = CascadeSet::new(6, vec![cascade(&[(0, 0.0), (3, 1.0), (5, 2.0)])]);
        let top = h.level_count() - 1;
        let groups = split_cascades(&set, &h, top);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0][0].len(), 3);
        assert_eq!(groups[0][0].times, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn times_stay_sorted_in_subcascades() {
        let h = hierarchy();
        let set = CascadeSet::new(
            6,
            vec![cascade(&[(5, 0.5), (0, 1.0), (4, 2.0), (2, 3.0), (1, 4.0)])],
        );
        for group in split_cascades(&set, &h, 0) {
            for sc in group {
                assert!(sc.times.windows(2).all(|w| w[0] <= w[1]));
            }
        }
    }

    #[test]
    fn infection_counts_preserved_at_top_level() {
        let h = hierarchy();
        let set = CascadeSet::new(
            6,
            vec![
                cascade(&[(0, 0.0), (1, 1.0), (3, 2.0)]),
                cascade(&[(2, 0.0), (4, 1.0)]),
            ],
        );
        let top = h.level_count() - 1;
        let groups = split_cascades(&set, &h, top);
        let total: usize = groups[0].iter().map(|sc| sc.len()).sum();
        assert_eq!(total, set.total_infections());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;
    use viralcast_community::{Balance, Partition};
    use viralcast_propagation::Infection;

    /// Splitting conserves infections, modulo dropped singletons,
    /// and all rows stay inside their block.
    #[test]
    fn split_conserves_infections() {
        for case in 0..48 {
            let mut rng = StdRng::seed_from_u64(case);
            let membership: Vec<usize> = (0..rng.gen_range(8..16usize))
                .map(|_| rng.gen_range(0usize..4))
                .collect();
            // 2–7 infections of distinct nodes below 8.
            let len = rng.gen_range(2..8usize);
            let mut infs = BTreeMap::new();
            while infs.len() < len {
                infs.insert(rng.gen_range(0u32..8), rng.gen_range(0.0f64..10.0));
            }
            let n = membership.len();
            let h =
                MergeHierarchy::build(Partition::from_membership(&membership), Balance::LeafCount);
            let c =
                Cascade::new(infs.iter().map(|(&u, &t)| Infection::new(u, t)).collect()).unwrap();
            let set = CascadeSet::new(n, vec![c.clone()]);
            for level in 0..h.level_count() {
                let ranges = h.node_ranges(level);
                let groups = split_cascades(&set, &h, level);
                let kept: usize = groups.iter().flatten().map(|sc| sc.len()).sum();
                assert!(
                    kept <= c.len(),
                    "case {case}: level {level} grew the cascade"
                );
                for (g, group) in groups.iter().enumerate() {
                    for sc in group {
                        assert!(sc.len() >= 2, "case {case}: level {level} kept a singleton");
                        let width = ranges[g].len() as u32;
                        assert!(
                            sc.rows.iter().all(|&r| r < width),
                            "case {case}: level {level} group {g} row outside its block"
                        );
                        assert!(
                            sc.times.windows(2).all(|w| w[0] <= w[1]),
                            "case {case}: level {level} group {g} times decrease"
                        );
                    }
                }
            }
            // At the top level nothing is dropped (single group holds all).
            let top = h.level_count() - 1;
            let groups = split_cascades(&set, &h, top);
            let kept: usize = groups.iter().flatten().map(|sc| sc.len()).sum();
            assert_eq!(kept, c.len(), "case {case}");
        }
    }
}
