//! The frequent co-occurrence graph of Section IV-B.
//!
//! For two nodes `u`, `v`, with `c(u)` the number of cascades containing
//! `u` and `c(u, v)` the number of cascades in which `u` is infected
//! strictly before `v`, the directed edge weight is
//!
//! ```text
//! w(u, v) = 2 c(u, v) / (c(u) + c(v))   ∈ [0, 1]
//! ```
//!
//! The paper runs SLPA on this graph to find the communities that drive
//! the parallel decomposition. Input here is deliberately minimal — any
//! slice of time-ordered node sequences — so the propagation crate (which
//! depends on this one) can feed real cascades in without a cyclic
//! dependency.

use crate::digraph::{DiGraph, GraphBuilder};
use crate::node::NodeId;
use std::collections::HashMap;
use viralcast_obs as obs;

/// The co-occurrence graph plus the per-node cascade counts that produced
/// it.
#[derive(Clone, Debug)]
pub struct CooccurrenceGraph {
    graph: DiGraph,
    cascade_counts: Vec<usize>,
}

/// Options bounding the pair-counting work.
#[derive(Clone, Copy, Debug)]
pub struct CooccurrenceOptions {
    /// Ordered pairs are only counted within a sliding window of this many
    /// successors per node; `None` counts all `O(s²)` pairs as the paper
    /// does. Very long cascades make the quadratic count expensive, and
    /// influence decays with delay anyway (eq. 12's `(t_l − t_v)` term), so
    /// a window is a faithful approximation for huge inputs.
    pub successor_window: Option<usize>,
    /// Drop edges whose final weight falls below this threshold.
    pub min_weight: f64,
}

impl Default for CooccurrenceOptions {
    fn default() -> Self {
        CooccurrenceOptions {
            successor_window: None,
            min_weight: 0.0,
        }
    }
}

impl CooccurrenceGraph {
    /// Builds the co-occurrence graph from time-ordered node sequences.
    ///
    /// Each inner slice must list the distinct nodes of one cascade in
    /// infection order (earliest first). `n` is the number of nodes in the
    /// universe.
    ///
    /// ```
    /// use viralcast_graph::cooccurrence::{CooccurrenceGraph, CooccurrenceOptions};
    /// use viralcast_graph::NodeId;
    ///
    /// // One cascade where node 0 precedes node 1.
    /// let sequences = vec![vec![NodeId(0), NodeId(1)]];
    /// let g = CooccurrenceGraph::build(2, &sequences, CooccurrenceOptions::default());
    /// // w(0, 1) = 2·c(0,1) / (c(0) + c(1)) = 2·1 / (1 + 1) = 1.
    /// assert_eq!(g.graph().edge_weight(NodeId(0), NodeId(1)), Some(1.0));
    /// assert_eq!(g.graph().edge_weight(NodeId(1), NodeId(0)), None);
    /// ```
    pub fn build(n: usize, sequences: &[Vec<NodeId>], options: CooccurrenceOptions) -> Self {
        let _span = obs::Span::enter("cooccurrence");
        let mut cascade_counts = vec![0usize; n];
        let mut pair_counts: HashMap<(NodeId, NodeId), usize> = HashMap::new();

        for seq in sequences {
            for &u in seq {
                cascade_counts[u.index()] += 1;
            }
            for (i, &u) in seq.iter().enumerate() {
                let end = match options.successor_window {
                    Some(w) => (i + 1 + w).min(seq.len()),
                    None => seq.len(),
                };
                for &v in &seq[i + 1..end] {
                    *pair_counts.entry((u, v)).or_insert(0) += 1;
                }
            }
        }

        let mut b = GraphBuilder::with_capacity(n, pair_counts.len());
        for (&(u, v), &cuv) in &pair_counts {
            let denom = cascade_counts[u.index()] + cascade_counts[v.index()];
            if denom == 0 {
                continue;
            }
            let w = 2.0 * cuv as f64 / denom as f64;
            if w >= options.min_weight {
                b.add_edge(u, v, w);
            }
        }
        let graph = b.build();
        obs::metrics()
            .counter("cooccurrence.sequences")
            .incr(sequences.len() as u64);
        obs::metrics()
            .gauge("cooccurrence.edges")
            .set(graph.edge_count() as f64);
        obs::debug(
            "cooccurrence",
            "graph built",
            &[
                ("nodes", n.into()),
                ("sequences", sequences.len().into()),
                ("edges", graph.edge_count().into()),
            ],
        );
        CooccurrenceGraph {
            graph,
            cascade_counts,
        }
    }

    /// The directed weighted graph with `w(u, v)` weights.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// Consumes self, returning the directed graph.
    pub fn into_graph(self) -> DiGraph {
        self.graph
    }

    /// `c(u)` — the number of cascades containing `u`.
    pub fn cascade_count(&self, u: NodeId) -> usize {
        self.cascade_counts[u.index()]
    }

    /// The symmetrised view used by community detection.
    pub fn undirected(&self) -> DiGraph {
        self.graph.to_undirected()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(xs: &[u32]) -> Vec<NodeId> {
        xs.iter().copied().map(NodeId).collect()
    }

    #[test]
    fn weight_formula_on_a_single_cascade() {
        // One cascade 0 -> 1: c(0) = c(1) = 1, c(0,1) = 1, w = 2/2 = 1.
        let g = CooccurrenceGraph::build(2, &[ids(&[0, 1])], CooccurrenceOptions::default());
        assert_eq!(g.graph().edge_weight(NodeId(0), NodeId(1)), Some(1.0));
        assert_eq!(g.graph().edge_weight(NodeId(1), NodeId(0)), None);
    }

    #[test]
    fn weight_is_directional_by_infection_order() {
        // Cascade A: 0 before 1. Cascade B: 1 before 0.
        let seqs = vec![ids(&[0, 1]), ids(&[1, 0])];
        let g = CooccurrenceGraph::build(2, &seqs, CooccurrenceOptions::default());
        // c(0) = c(1) = 2, c(0,1) = c(1,0) = 1, w = 2*1/4 = 0.5 each way.
        assert_eq!(g.graph().edge_weight(NodeId(0), NodeId(1)), Some(0.5));
        assert_eq!(g.graph().edge_weight(NodeId(1), NodeId(0)), Some(0.5));
    }

    #[test]
    fn weights_lie_in_unit_interval() {
        let seqs = vec![
            ids(&[0, 1, 2, 3]),
            ids(&[2, 0, 3]),
            ids(&[1, 2]),
            ids(&[3, 1, 0]),
        ];
        let g = CooccurrenceGraph::build(4, &seqs, CooccurrenceOptions::default());
        for (_, _, w) in g.graph().edges() {
            assert!((0.0..=1.0).contains(&w), "weight {w} out of range");
        }
    }

    #[test]
    fn cascade_counts_are_recorded() {
        let seqs = vec![ids(&[0, 1]), ids(&[0, 2]), ids(&[0, 1, 2])];
        let g = CooccurrenceGraph::build(3, &seqs, CooccurrenceOptions::default());
        assert_eq!(g.cascade_count(NodeId(0)), 3);
        assert_eq!(g.cascade_count(NodeId(1)), 2);
        assert_eq!(g.cascade_count(NodeId(2)), 2);
    }

    #[test]
    fn successor_window_limits_pairs() {
        let seqs = vec![ids(&[0, 1, 2, 3])];
        let opts = CooccurrenceOptions {
            successor_window: Some(1),
            min_weight: 0.0,
        };
        let g = CooccurrenceGraph::build(4, &seqs, opts);
        // Only adjacent pairs counted: (0,1), (1,2), (2,3).
        assert_eq!(g.graph().edge_count(), 3);
        assert!(g.graph().has_edge(NodeId(0), NodeId(1)));
        assert!(!g.graph().has_edge(NodeId(0), NodeId(2)));
    }

    #[test]
    fn min_weight_filters_weak_edges() {
        // Pair (0,1) appears once while both appear in 4 cascades:
        // w = 2/8 = 0.25 < 0.3 threshold.
        let seqs = vec![
            ids(&[0, 1]),
            ids(&[0]),
            ids(&[0]),
            ids(&[0]),
            ids(&[1]),
            ids(&[1]),
            ids(&[1]),
        ];
        let opts = CooccurrenceOptions {
            successor_window: None,
            min_weight: 0.3,
        };
        let g = CooccurrenceGraph::build(2, &seqs, opts);
        assert_eq!(g.graph().edge_count(), 0);
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let g = CooccurrenceGraph::build(5, &[], CooccurrenceOptions::default());
        assert_eq!(g.graph().edge_count(), 0);
        assert_eq!(g.cascade_count(NodeId(3)), 0);
    }

    #[test]
    fn undirected_view_is_symmetric() {
        let seqs = vec![ids(&[0, 1, 2]), ids(&[2, 1])];
        let g = CooccurrenceGraph::build(3, &seqs, CooccurrenceOptions::default());
        let u = g.undirected();
        for (a, b, w) in u.edges() {
            assert_eq!(u.edge_weight(b, a), Some(w));
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// 0–24 cascades over 12 nodes, each 1–7 draws sorted and deduped.
    fn cascades(rng: &mut StdRng) -> Vec<Vec<NodeId>> {
        (0..rng.gen_range(0..25usize))
            .map(|_| {
                let mut v: Vec<u32> = (0..rng.gen_range(1..8usize))
                    .map(|_| rng.gen_range(0u32..12))
                    .collect();
                v.sort_unstable();
                v.dedup();
                v.into_iter().map(NodeId).collect()
            })
            .collect()
    }

    /// All weights lie in [0, 1] — the paper states this range
    /// explicitly.
    #[test]
    fn weights_bounded() {
        for case in 0..64 {
            let seqs = cascades(&mut StdRng::seed_from_u64(case));
            let g = CooccurrenceGraph::build(12, &seqs, CooccurrenceOptions::default());
            for (u, v, w) in g.graph().edges() {
                assert!(
                    w > 0.0 && w <= 1.0 + 1e-12,
                    "case {case}: weight {w} on {u:?}->{v:?}"
                );
            }
        }
    }

    /// Node cascade counts equal direct recounts.
    #[test]
    fn counts_match_recount() {
        for case in 0..64 {
            let seqs = cascades(&mut StdRng::seed_from_u64(case));
            let g = CooccurrenceGraph::build(12, &seqs, CooccurrenceOptions::default());
            for u in 0..12u32 {
                let direct = seqs.iter().filter(|s| s.contains(&NodeId(u))).count();
                assert_eq!(g.cascade_count(NodeId(u)), direct, "case {case}: node {u}");
            }
        }
    }

    /// A window never *adds* edges relative to the unwindowed build.
    #[test]
    fn window_is_a_subgraph() {
        for case in 0..64 {
            let mut rng = StdRng::seed_from_u64(case);
            let seqs = cascades(&mut rng);
            let w = rng.gen_range(1usize..5);
            let full = CooccurrenceGraph::build(12, &seqs, CooccurrenceOptions::default());
            let opts = CooccurrenceOptions {
                successor_window: Some(w),
                min_weight: 0.0,
            };
            let windowed = CooccurrenceGraph::build(12, &seqs, opts);
            for (u, v, _) in windowed.graph().edges() {
                assert!(
                    full.graph().has_edge(u, v),
                    "case {case}: window {w} added {u:?}->{v:?}"
                );
            }
        }
    }
}
