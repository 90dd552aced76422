//! Row-block ownership for sharded serving.
//!
//! A cluster splits the candidate rows across N daemons: every shard
//! loads the *full* model (rates need every selectivity row) but
//! answers `/v1/predict` and `/v1/influencers` only for the candidate
//! rows it owns. Ownership is a [`RowBlock`]: the ascending list of the
//! node ids a shard owns, by the cluster's one rule — shard `i` of `total`
//! owns node `v` iff `v mod total = i`. A scan walks that list, so a
//! shard scores only its own rows. The blocks of shards `0..total` are
//! disjoint and cover every node, which is what makes the router's
//! merged top-k exactly equal the single-box ranking.

use viralcast_graph::NodeId;

/// The set of candidate rows one shard owns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowBlock {
    shard: usize,
    total: usize,
    /// The node universe the block was built for.
    node_count: usize,
    /// The owned node ids, ascending.
    rows: Vec<NodeId>,
}

impl RowBlock {
    /// Shard `i` of `total` owns every node `v` with `v % total == i`.
    ///
    /// # Errors
    /// `total` must be ≥ 1 and `shard < total`.
    pub fn round_robin(node_count: usize, shard: usize, total: usize) -> Result<RowBlock, String> {
        if total == 0 {
            return Err("cluster must have at least one shard".into());
        }
        if shard >= total {
            return Err(format!("shard index {shard} out of range (total {total})"));
        }
        let rows = (shard..node_count)
            .step_by(total)
            .map(NodeId::new)
            .collect();
        Ok(RowBlock {
            shard,
            total,
            node_count,
            rows,
        })
    }

    /// Whether this shard owns node `v` as a candidate row. Nodes beyond
    /// the block's universe (a model grown past the manifest) are
    /// unowned — they are served by nobody rather than by everybody,
    /// keeping shards disjoint under drift.
    pub fn contains(&self, v: NodeId) -> bool {
        self.rows.binary_search(&v).is_ok()
    }

    /// The owned node ids below `node_count`, ascending: the rows a scan
    /// over a `node_count`-node model visits.
    pub(crate) fn rows_below(&self, node_count: usize) -> &[NodeId] {
        &self.rows[..self.rows.partition_point(|v| v.index() < node_count)]
    }

    /// This shard's index.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Total shards in the cluster.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of nodes this shard owns.
    pub fn owned_count(&self) -> usize {
        self.rows.len()
    }

    /// The node universe the block was built for.
    pub fn node_count(&self) -> usize {
        self.node_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_blocks_are_disjoint_and_cover() {
        let total = 3;
        let blocks: Vec<RowBlock> = (0..total)
            .map(|s| RowBlock::round_robin(10, s, total).unwrap())
            .collect();
        for v in 0..10u32 {
            let owners = blocks.iter().filter(|b| b.contains(NodeId(v))).count();
            assert_eq!(owners, 1, "node {v} owned by {owners} shards");
        }
        assert_eq!(blocks.iter().map(RowBlock::owned_count).sum::<usize>(), 10);
        assert!(blocks[0].contains(NodeId(0)));
        assert!(blocks[1].contains(NodeId(1)));
        assert!(blocks[0].contains(NodeId(9)));
    }

    #[test]
    fn shapes_are_validated() {
        assert!(RowBlock::round_robin(5, 0, 0).is_err());
        assert!(RowBlock::round_robin(5, 3, 3).is_err());
    }

    #[test]
    fn nodes_past_the_universe_are_unowned() {
        let b = RowBlock::round_robin(5, 0, 2).unwrap();
        assert!(b.contains(NodeId(0)));
        assert!(b.contains(NodeId(4)));
        assert!(!b.contains(NodeId(6)));
        assert!(!b.contains(NodeId(99)));
        assert_eq!(b.node_count(), 5);
        assert_eq!(b.rows_below(5), &[NodeId(0), NodeId(2), NodeId(4)]);
        assert_eq!(b.rows_below(4), &[NodeId(0), NodeId(2)]);
        assert_eq!(b.rows_below(99), b.rows_below(5));
    }
}
