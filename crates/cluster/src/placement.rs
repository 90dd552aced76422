//! Node → shard membership vectors.
//!
//! Community-aligned placement keeps each SLPA community on one shard —
//! per the paper's decomposition, intra-community hazard mass dominates,
//! so a cascade's hot candidate rows land on the shard its seed already
//! lives on. (The fallback, round-robin, needs no vector: a round-robin
//! manifest compiles to `RowBlock::round_robin`.) The placement is
//! deterministic: the same inputs always produce the same vector, so
//! every shard and the router derive identical row blocks from one
//! manifest.

use viralcast_community::Partition;

/// Community-aligned membership: whole communities are greedily
/// bin-packed onto shards, largest community first (ties broken by the
/// community's smallest node id), each onto the currently least-loaded
/// shard (ties to the lowest shard index). Deterministic, and balanced
/// to within one community's size.
///
/// # Panics
/// Panics if `shards == 0`.
pub fn community_aligned(partition: &Partition, shards: usize) -> Vec<usize> {
    assert!(shards > 0, "cluster must have at least one shard");
    let communities = partition.communities();
    // Sort by (size desc, min node asc): the classic LPT greedy order,
    // with a total tie-break so the layout never depends on hash order.
    let mut order: Vec<usize> = (0..communities.len()).collect();
    order.sort_by(|&a, &b| {
        communities[b]
            .len()
            .cmp(&communities[a].len())
            .then_with(|| communities[a].first().cmp(&communities[b].first()))
    });
    let mut load = vec![0usize; shards];
    let mut membership = vec![0usize; partition.node_count()];
    for c in order {
        let target = (0..shards).min_by_key(|&s| (load[s], s)).unwrap();
        load[target] += communities[c].len();
        for &node in &communities[c] {
            membership[node.index()] = target;
        }
    }
    membership
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn communities_stay_whole() {
        // Communities: {0,1,2}, {3,4}, {5}.
        let p = Partition::from_membership(&[0, 0, 0, 1, 1, 2]);
        let m = community_aligned(&p, 2);
        assert_eq!(m.len(), 6);
        assert_eq!(m[0], m[1]);
        assert_eq!(m[1], m[2]);
        assert_eq!(m[3], m[4]);
        // Largest community (3 nodes) goes to shard 0; the 2-node one to
        // shard 1; the singleton to the lighter shard 1 (load 2 < 3).
        assert_eq!(m[0], 0);
        assert_eq!(m[3], 1);
        assert_eq!(m[5], 1);
    }

    #[test]
    fn placement_is_deterministic_and_balanced() {
        let raw: Vec<usize> = (0..100).map(|i| i / 7).collect();
        let p = Partition::from_membership(&raw);
        let a = community_aligned(&p, 4);
        let b = community_aligned(&p, 4);
        assert_eq!(a, b);
        let mut load = [0usize; 4];
        for &s in &a {
            load[s] += 1;
        }
        // 15 communities of ≤ 7 nodes over 4 shards: every shard is
        // within one community of the mean (25).
        for (shard, &l) in load.iter().enumerate() {
            assert!((18..=32).contains(&l), "shard {shard} has load {l}");
        }
    }

    #[test]
    fn more_shards_than_communities_leaves_some_empty() {
        let p = Partition::from_membership(&[0, 0, 1]);
        let m = community_aligned(&p, 5);
        let used: std::collections::BTreeSet<usize> = m.iter().copied().collect();
        assert!(used.len() <= 2);
        assert!(m.iter().all(|&s| s < 5));
    }
}
