//! Disjoint node partitions.
//!
//! A [`Partition`] assigns every node to exactly one community — the
//! non-overlapping decomposition Algorithm 1 requires ("since the
//! communities do not have any intersection, the Write-Write conflicts
//! can be completely avoided").

use serde::{Deserialize, Serialize};
use viralcast_graph::NodeId;

/// A disjoint partition of nodes `0..n` into dense communities
/// `0..community_count`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    membership: Vec<usize>,
    community_count: usize,
}

impl Partition {
    /// Builds a partition from raw membership labels, compacting the
    /// label space to `0..k` while preserving first-appearance order.
    pub fn from_labels(raw: &[usize]) -> Self {
        let mut remap: Vec<Option<usize>> = Vec::new();
        let mut membership = Vec::with_capacity(raw.len());
        let mut next = 0usize;
        for &label in raw {
            if label >= remap.len() {
                remap.resize(label + 1, None);
            }
            let dense = *remap[label].get_or_insert_with(|| {
                let d = next;
                next += 1;
                d
            });
            membership.push(dense);
        }
        Partition {
            membership,
            community_count: next,
        }
    }

    /// One community containing every node.
    pub fn whole(n: usize) -> Self {
        Partition {
            membership: vec![0; n],
            community_count: if n == 0 { 0 } else { 1 },
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.membership.len()
    }

    /// Number of communities.
    pub fn community_count(&self) -> usize {
        self.community_count
    }

    /// Community of node `u`.
    #[inline]
    pub fn community_of(&self, u: NodeId) -> usize {
        self.membership[u.index()]
    }

    /// The raw dense membership array.
    pub fn membership(&self) -> &[usize] {
        &self.membership
    }

    /// Community member lists, indexed by community id; members sorted.
    pub fn communities(&self) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.community_count];
        for (i, &c) in self.membership.iter().enumerate() {
            out[c].push(NodeId::new(i));
        }
        out
    }

    /// Community sizes, indexed by community id.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.community_count];
        for &c in &self.membership {
            sizes[c] += 1;
        }
        sizes
    }

    /// Whether `other` refines `self` (every community of `other` is
    /// contained in one community of `self`).
    #[cfg(test)]
    pub(crate) fn is_refined_by(&self, other: &Partition) -> bool {
        if self.node_count() != other.node_count() {
            return false;
        }
        // Map each community of `other` to the `self`-community of its
        // first member and check consistency.
        let mut rep: Vec<Option<usize>> = vec![None; other.community_count];
        for (i, &oc) in other.membership.iter().enumerate() {
            let sc = self.membership[i];
            match rep[oc] {
                None => rep[oc] = Some(sc),
                Some(existing) if existing != sc => return false,
                _ => {}
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_labels_compacts_labels() {
        let p = Partition::from_labels(&[7, 7, 3, 9, 3]);
        assert_eq!(p.community_count(), 3);
        assert_eq!(p.membership(), &[0, 0, 1, 2, 1]);
    }

    #[test]
    fn singletons_and_whole() {
        let s = Partition::from_labels(&[0, 1, 2, 3]);
        assert_eq!(s.community_count(), 4);
        let w = Partition::whole(4);
        assert_eq!(w.community_count(), 1);
        assert!(w.is_refined_by(&s));
        assert!(!s.is_refined_by(&w));
    }

    #[test]
    fn communities_listing() {
        let p = Partition::from_labels(&[0, 1, 0, 1, 2]);
        let cs = p.communities();
        assert_eq!(cs[0], vec![NodeId(0), NodeId(2)]);
        assert_eq!(cs[1], vec![NodeId(1), NodeId(3)]);
        assert_eq!(cs[2], vec![NodeId(4)]);
        assert_eq!(p.sizes(), vec![2, 2, 1]);
    }

    #[test]
    fn refinement_is_reflexive() {
        let p = Partition::from_labels(&[0, 1, 0, 2]);
        assert!(p.is_refined_by(&p));
    }

    #[test]
    fn refinement_rejects_cross_cutting() {
        let a = Partition::from_labels(&[0, 0, 1, 1]);
        let b = Partition::from_labels(&[0, 1, 1, 0]);
        assert!(!a.is_refined_by(&b));
    }

    #[test]
    fn refinement_rejects_size_mismatch() {
        let a = Partition::whole(3);
        let b = Partition::whole(4);
        assert!(!a.is_refined_by(&b));
    }

    #[test]
    fn empty_partition() {
        let p = Partition::from_labels(&[]);
        assert_eq!(p.node_count(), 0);
        assert_eq!(p.community_count(), 0);
        assert!(p.communities().is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `len` labels below `labels`, with `len` drawn from `lens`.
    fn membership(rng: &mut StdRng, labels: usize, lens: std::ops::Range<usize>) -> Vec<usize> {
        (0..rng.gen_range(lens))
            .map(|_| rng.gen_range(0..labels))
            .collect()
    }

    /// Compaction is idempotent and preserves co-membership.
    #[test]
    fn compaction_preserves_structure() {
        for case in 0..256 {
            let raw = membership(&mut StdRng::seed_from_u64(case), 10, 0..50);
            let p = Partition::from_labels(&raw);
            for i in 0..raw.len() {
                for j in 0..raw.len() {
                    assert_eq!(
                        raw[i] == raw[j],
                        p.membership()[i] == p.membership()[j],
                        "case {case}: nodes {i}, {j}"
                    );
                }
            }
            let q = Partition::from_labels(p.membership());
            assert_eq!(p.membership(), q.membership(), "case {case}");
        }
    }

    /// Sizes sum to the node count and every community is non-empty.
    #[test]
    fn sizes_partition_nodes() {
        for case in 0..256 {
            let raw = membership(&mut StdRng::seed_from_u64(case), 8, 1..60);
            let p = Partition::from_labels(&raw);
            let sizes = p.sizes();
            assert_eq!(sizes.iter().sum::<usize>(), raw.len(), "case {case}");
            assert!(sizes.iter().all(|&s| s > 0), "case {case}: {sizes:?}");
        }
    }
}
