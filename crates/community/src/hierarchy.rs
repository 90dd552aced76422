//! The binary merge tree behind Algorithm 2.
//!
//! The communities found by SLPA form the leaves of a clustering tree;
//! Algorithm 2 runs Algorithm 1 on every community of a level in
//! parallel, then "joins every two communities" and repeats one level up
//! until few enough communities remain. This module precomputes that
//! schedule and — crucially for the lock-free parallel update — a node
//! layout in which every group at every level occupies a *contiguous
//! range* of node positions, so each worker can be handed a disjoint
//! `&mut` block of the embedding matrices with no locking at all.
//!
//! The layout works because pairing always joins *adjacent* groups: if
//! leaves are laid out left to right, every ancestor covers a contiguous
//! leaf interval, hence a contiguous node interval. The leaves keep
//! SLPA's order, so the tree is balanced by the number of leaves in each
//! branch, as in the paper's implementation. Balancing by node count,
//! which the paper leaves as future work, models at the same speedup
//! ceiling (ROADMAP item 16), so it is not offered.

use crate::partition::Partition;
use std::ops::Range;
use viralcast_graph::NodeId;

/// A precomputed merge schedule over the leaf communities of a
/// [`Partition`].
#[derive(Clone, Debug)]
pub struct MergeHierarchy {
    /// Nodes grouped by leaf, in leaf order.
    node_order: Vec<NodeId>,
    /// Inverse of `node_order`: node index → position.
    node_pos: Vec<usize>,
    /// `leaf_starts[i]` = first node position of the i-th leaf in order;
    /// has `k + 1` entries.
    leaf_starts: Vec<usize>,
    /// Per level, the groups as ranges over *leaf-order indices*.
    levels: Vec<Vec<Range<usize>>>,
}

impl MergeHierarchy {
    /// Builds the schedule from leaf communities, in their partition
    /// order.
    pub fn build(base: Partition) -> Self {
        let k = base.community_count();

        // Node layout: concatenate community members in leaf order.
        let mut node_order = Vec::with_capacity(base.node_count());
        let mut leaf_starts = Vec::with_capacity(k + 1);
        leaf_starts.push(0);
        for members in base.communities() {
            node_order.extend_from_slice(&members);
            leaf_starts.push(node_order.len());
        }
        let mut node_pos = vec![0usize; base.node_count()];
        for (pos, &u) in node_order.iter().enumerate() {
            node_pos[u.index()] = pos;
        }

        // Level 0: singleton groups; each next level pairs adjacent
        // groups, promoting a trailing odd group unchanged.
        let mut levels: Vec<Vec<Range<usize>>> = Vec::new();
        let mut current: Vec<Range<usize>> = (0..k).map(|i| i..i + 1).collect();
        if !current.is_empty() {
            levels.push(current.clone());
            while current.len() > 1 {
                let mut next = Vec::with_capacity(current.len().div_ceil(2));
                let mut it = current.chunks(2);
                for pair in &mut it {
                    match pair {
                        [a, b] => next.push(a.start..b.end),
                        [a] => next.push(a.clone()),
                        _ => unreachable!(),
                    }
                }
                levels.push(next.clone());
                current = next;
            }
        }

        MergeHierarchy {
            node_order,
            node_pos,
            leaf_starts,
            levels,
        }
    }

    /// Number of levels (level 0 = leaves, last level = one group). Zero
    /// only for an empty partition.
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Number of groups at `level`.
    #[cfg(test)]
    fn group_count(&self, level: usize) -> usize {
        self.levels[level].len()
    }

    /// The node layout: nodes in block order. Position `p` in every
    /// embedding matrix corresponds to `node_layout()[p]`.
    pub fn node_layout(&self) -> &[NodeId] {
        &self.node_order
    }

    /// Position of node `u` in the layout.
    #[inline]
    pub fn position_of(&self, u: NodeId) -> usize {
        self.node_pos[u.index()]
    }

    /// Contiguous node-position ranges of the groups at `level`; ranges
    /// are disjoint, sorted and cover `0..node_count` exactly.
    pub fn node_ranges(&self, level: usize) -> Vec<Range<usize>> {
        self.levels[level]
            .iter()
            .map(|r| self.leaf_starts[r.start]..self.leaf_starts[r.end])
            .collect()
    }

    /// The partition induced by `level`'s groups (community of a node =
    /// its group index).
    #[cfg(test)]
    fn partition_at(&self, level: usize) -> Partition {
        let mut raw = vec![0usize; self.node_order.len()];
        for (gi, range) in self.node_ranges(level).into_iter().enumerate() {
            for p in range {
                raw[self.node_order[p].index()] = gi;
            }
        }
        Partition::from_labels(&raw)
    }

    /// Levels to execute so that the run terminates once the group count
    /// drops to `q` or below (Algorithm 2's stopping rule). Always
    /// includes level 0 when the hierarchy is non-empty; always ends with
    /// the first level whose group count is ≤ `q`.
    pub fn levels_until(&self, q: usize) -> Vec<usize> {
        let mut out = Vec::new();
        for (i, groups) in self.levels.iter().enumerate() {
            out.push(i);
            if groups.len() <= q.max(1) {
                break;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn partition(sizes: &[usize]) -> Partition {
        let mut raw = Vec::new();
        for (c, &s) in sizes.iter().enumerate() {
            raw.extend(std::iter::repeat_n(c, s));
        }
        Partition::from_labels(&raw)
    }

    #[test]
    fn four_leaves_make_three_levels() {
        let h = MergeHierarchy::build(partition(&[2, 2, 2, 2]));
        assert_eq!(h.level_count(), 3);
        assert_eq!(h.group_count(0), 4);
        assert_eq!(h.group_count(1), 2);
        assert_eq!(h.group_count(2), 1);
    }

    #[test]
    fn node_ranges_cover_everything() {
        let h = MergeHierarchy::build(partition(&[3, 1, 2]));
        for level in 0..h.level_count() {
            let ranges = h.node_ranges(level);
            let total: usize = ranges.iter().map(|r| r.len()).sum();
            assert_eq!(total, 6, "level {level}");
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "gap at level {level}");
            }
        }
    }

    #[test]
    fn level_zero_matches_base_partition() {
        let base = partition(&[2, 3, 1]);
        let h = MergeHierarchy::build(base.clone());
        let level0 = h.partition_at(0);
        // Same grouping (community ids may be permuted).
        assert!(level0.is_refined_by(&base) && base.is_refined_by(&level0));
    }

    #[test]
    fn top_level_is_one_group() {
        let h = MergeHierarchy::build(partition(&[2, 2, 2]));
        let top = h.partition_at(h.level_count() - 1);
        assert_eq!(top.community_count(), 1);
    }

    #[test]
    fn each_level_refines_the_next() {
        let h = MergeHierarchy::build(partition(&[1, 2, 3, 4, 5]));
        for l in 0..h.level_count() - 1 {
            let fine = h.partition_at(l);
            let coarse = h.partition_at(l + 1);
            assert!(
                coarse.is_refined_by(&fine),
                "level {} does not refine level {}",
                l,
                l + 1
            );
        }
    }

    #[test]
    fn odd_group_promotes() {
        let h = MergeHierarchy::build(partition(&[1, 1, 1]));
        // 3 -> 2 -> 1
        assert_eq!(h.group_count(0), 3);
        assert_eq!(h.group_count(1), 2);
        assert_eq!(h.group_count(2), 1);
    }

    #[test]
    fn positions_invert_layout() {
        let h = MergeHierarchy::build(partition(&[2, 3]));
        for (pos, &u) in h.node_layout().iter().enumerate() {
            assert_eq!(h.position_of(u), pos);
        }
    }

    #[test]
    fn levels_until_stops_at_threshold() {
        let h = MergeHierarchy::build(partition(&[1; 8]));
        // Group counts per level: 8, 4, 2, 1.
        assert_eq!(h.levels_until(2), vec![0, 1, 2]);
        assert_eq!(h.levels_until(1), vec![0, 1, 2, 3]);
        assert_eq!(h.levels_until(100), vec![0]);
    }

    #[test]
    fn empty_partition_yields_empty_hierarchy() {
        let h = MergeHierarchy::build(Partition::from_labels(&[]));
        assert_eq!(h.level_count(), 0);
        assert!(h.node_layout().is_empty());
        assert!(h.levels_until(4).is_empty());
    }

    #[test]
    fn single_community_is_one_level() {
        let h = MergeHierarchy::build(Partition::whole(5));
        assert_eq!(h.level_count(), 1);
        assert_eq!(h.node_ranges(0), vec![0..5]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// For any base partition: every level's ranges tile the node
    /// positions, each level refines the next, and the top level has one
    /// group.
    #[test]
    fn hierarchy_laws() {
        for case in 0..48 {
            let mut rng = StdRng::seed_from_u64(case);
            let raw: Vec<usize> = (0..rng.gen_range(1..60usize))
                .map(|_| rng.gen_range(0usize..7))
                .collect();
            let base = Partition::from_labels(&raw);
            let h = MergeHierarchy::build(base.clone());
            assert!(h.level_count() >= 1, "case {case}");
            for level in 0..h.level_count() {
                let ranges = h.node_ranges(level);
                let total: usize = ranges.iter().map(|r| r.len()).sum();
                assert_eq!(total, raw.len(), "case {case}: level {level}");
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "case {case}: level {level}");
                }
            }
            for l in 0..h.level_count() - 1 {
                assert!(
                    h.partition_at(l + 1).is_refined_by(&h.partition_at(l)),
                    "case {case}: level {l} does not refine level {}",
                    l + 1
                );
            }
            let top = h.partition_at(h.level_count() - 1);
            assert_eq!(top.community_count(), 1, "case {case}");
            // Level 0 equals the base partition up to label permutation.
            let l0 = h.partition_at(0);
            assert!(
                l0.is_refined_by(&base) && base.is_refined_by(&l0),
                "case {case}: level 0 is not the base partition"
            );
        }
    }

    /// Group counts halve (rounding up) at each level.
    #[test]
    fn group_counts_halve() {
        for case in 0..48 {
            let k = StdRng::seed_from_u64(case).gen_range(1usize..40);
            let raw: Vec<usize> = (0..k).collect();
            let h = MergeHierarchy::build(Partition::from_labels(&raw));
            for l in 0..h.level_count() - 1 {
                assert_eq!(
                    h.group_count(l + 1),
                    h.group_count(l).div_ceil(2),
                    "case {case}: {k} groups, level {l}"
                );
            }
        }
    }
}
