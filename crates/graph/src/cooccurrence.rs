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
//!
//! # How the pairs are counted
//!
//! Row by row, with a sparse accumulator (Gustavson's row-wise sparse
//! product). One pass over the input records `c(u)` and an inverted index
//! node → `(cascade, position)`. Then for each source `u` in ascending
//! order, every occurrence of `u` adds its successors into a dense
//! `count[v]` row while a `touched` list records first hits; `touched` is
//! sorted, each `(v, c(u, v))` is weighed and filtered, the survivors are
//! appended straight to the CSR arrays, and the row is zeroed again
//! through `touched`. No pair is ever hashed and no edge list is built:
//! the cost is `O(increments + Σ deg·log deg)` time — `increments` the
//! successors visited, `deg` a row's distinct targets before `min_weight`
//! — and `O(n + infections + kept edges)` memory, with no `O(n)` sweep
//! per source.

use crate::digraph::DiGraph;
use crate::node::NodeId;
use viralcast_obs as obs;

/// The co-occurrence graph plus the per-node cascade counts that produced
/// it.
#[derive(Clone, Debug)]
pub struct CooccurrenceGraph {
    graph: DiGraph,
    cascade_counts: Vec<usize>,
    /// Successors visited while counting: the work done.
    pair_increments: usize,
    /// Distinct ordered pairs before `min_weight`; edges ÷ this is the
    /// filter's yield.
    pairs_seen: usize,
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
    ///
    /// # Panics
    /// Panics if a sequence names a node outside `0..n`.
    pub fn build(n: usize, sequences: &[Vec<NodeId>], options: CooccurrenceOptions) -> Self {
        let _span = obs::Span::enter("cooccurrence");
        let mut cascade_counts = vec![0usize; n];
        for seq in sequences {
            for &u in seq {
                assert!(u.index() < n, "node {u} out of range (n = {n})");
                cascade_counts[u.index()] += 1;
            }
        }

        // Inverted index: the occurrences of node `u` are
        // `occurrences[starts[u]..starts[u + 1]]`, as (cascade, position).
        let mut starts = Vec::with_capacity(n + 1);
        starts.push(0usize);
        for &c in &cascade_counts {
            starts.push(starts[starts.len() - 1] + c);
        }
        let mut occurrences = vec![(0u32, 0u32); starts[n]];
        let mut cursor = starts[..n].to_vec();
        for (cascade, seq) in sequences.iter().enumerate() {
            let cascade = u32::try_from(cascade).expect("more than u32::MAX cascades");
            for (position, &u) in seq.iter().enumerate() {
                let position = u32::try_from(position).expect("cascade longer than u32::MAX");
                let slot = &mut cursor[u.index()];
                occurrences[*slot] = (cascade, position);
                *slot += 1;
            }
        }

        let mut count = vec![0usize; n];
        let mut touched: Vec<NodeId> = Vec::new();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::new();
        let mut weights = Vec::new();
        let (mut pair_increments, mut pairs_seen) = (0usize, 0usize);
        offsets.push(0);
        for u in 0..n {
            for &(cascade, position) in &occurrences[starts[u]..starts[u + 1]] {
                let seq = &sequences[cascade as usize];
                let first = position as usize + 1;
                let end = match options.successor_window {
                    Some(w) => first.saturating_add(w).min(seq.len()),
                    None => seq.len(),
                };
                pair_increments += end - first;
                for &v in &seq[first..end] {
                    let c = &mut count[v.index()];
                    if *c == 0 {
                        touched.push(v);
                    }
                    *c += 1;
                }
            }
            touched.sort_unstable();
            pairs_seen += touched.len();
            for v in touched.drain(..) {
                let cuv = std::mem::take(&mut count[v.index()]);
                let denom = cascade_counts[u] + cascade_counts[v.index()];
                let w = 2.0 * cuv as f64 / denom as f64;
                if w >= options.min_weight {
                    targets.push(v);
                    weights.push(w);
                }
            }
            offsets.push(targets.len());
        }
        let built = CooccurrenceGraph {
            graph: DiGraph::from_sorted_rows(n, offsets, targets, weights),
            cascade_counts,
            pair_increments,
            pairs_seen,
        };
        built.report(sequences.len());
        built
    }

    fn report(&self, sequences: usize) {
        let registry = obs::metrics();
        registry
            .counter("cooccurrence.sequences")
            .incr(sequences as u64);
        registry
            .counter("cooccurrence.pair_increments")
            .incr(self.pair_increments as u64);
        registry
            .counter("cooccurrence.pairs_seen")
            .incr(self.pairs_seen as u64);
        registry
            .gauge("cooccurrence.edges")
            .set(self.graph.edge_count() as f64);
        obs::debug(
            "cooccurrence",
            "graph built",
            &[
                ("nodes", self.graph.node_count().into()),
                ("sequences", sequences.into()),
                ("pair_increments", self.pair_increments.into()),
                ("pairs_seen", self.pairs_seen.into()),
                ("edges", self.graph.edge_count().into()),
            ],
        );
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

    #[test]
    fn work_counters_on_four_cascades() {
        let seqs = vec![
            ids(&[0, 1, 2, 3]),
            ids(&[2, 0, 3]),
            ids(&[1, 2]),
            ids(&[3, 1, 0]),
        ];
        // Every node is in three cascades, so w = 2c/6: the pairs seen
        // twice — (0,3), (1,2), (2,3) — weigh 2/3, the other seven 1/3.
        let opts = CooccurrenceOptions {
            successor_window: None,
            min_weight: 0.5,
        };
        let g = CooccurrenceGraph::build(4, &seqs, opts);
        // Successors visited: 6 + 3 + 1 + 3.
        assert_eq!(g.pair_increments, 13);
        assert_eq!(g.pairs_seen, 10);
        assert_eq!(g.graph().edge_count(), 3);

        // A window bounds the work, not only the output: 3 + 2 + 1 + 2.
        let windowed = CooccurrenceOptions {
            successor_window: Some(1),
            min_weight: 0.0,
        };
        let g = CooccurrenceGraph::build(4, &seqs, windowed);
        assert_eq!(g.pair_increments, 8);
        assert_eq!(g.pairs_seen, 7);
        assert_eq!(g.graph().edge_count(), 7);
    }

    #[test]
    #[should_panic(expected = "node 2 out of range (n = 2)")]
    fn out_of_range_node_is_named() {
        CooccurrenceGraph::build(2, &[ids(&[0, 2])], CooccurrenceOptions::default());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::digraph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    /// The pair-by-pair count this module used before it counted row by
    /// row: every ordered pair through a map, the map through
    /// `GraphBuilder`. Returns the graph and the per-node counts.
    fn reference_build(
        n: usize,
        sequences: &[Vec<NodeId>],
        options: CooccurrenceOptions,
    ) -> (DiGraph, Vec<usize>) {
        let mut cascade_counts = vec![0usize; n];
        let mut pair_counts: BTreeMap<(u32, u32), usize> = BTreeMap::new();
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
                    *pair_counts.entry((u.0, v.0)).or_insert(0) += 1;
                }
            }
        }
        let mut b = GraphBuilder::with_capacity(n, pair_counts.len());
        for (&(u, v), &cuv) in &pair_counts {
            let denom = cascade_counts[u as usize] + cascade_counts[v as usize];
            let w = 2.0 * cuv as f64 / denom as f64;
            if w >= options.min_weight {
                b.add_edge(NodeId(u), NodeId(v), w);
            }
        }
        (b.build(), cascade_counts)
    }

    /// The row-wise count equals the pair-by-pair reference bit for bit:
    /// every edge, every weight, every `c(u)` — over every window, every
    /// threshold, empty and one-node sequences, nodes repeated inside a
    /// sequence (self-loops), a node that never appears, and `n = 0`.
    #[test]
    fn row_wise_count_matches_pairwise_reference() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            // Ids are drawn below `n - 1`, so the last node never appears.
            let n = rng.gen_range(0..14usize);
            let seqs: Vec<Vec<NodeId>> = (0..rng.gen_range(0..25usize))
                .map(|_| {
                    let len = if n < 2 { 0 } else { rng.gen_range(0..8usize) };
                    (0..len)
                        .map(|_| NodeId::new(rng.gen_range(0..n - 1)))
                        .collect()
                })
                .collect();
            let options = CooccurrenceOptions {
                successor_window: match rng.gen_range(0..6usize) {
                    0 => None,
                    w => Some(w),
                },
                min_weight: [0.0, 0.05, 0.3][rng.gen_range(0..3usize)],
            };
            let got = CooccurrenceGraph::build(n, &seqs, options);
            let (want, want_counts) = reference_build(n, &seqs, options);

            let bits = |g: &DiGraph| -> Vec<(NodeId, NodeId, u64)> {
                g.edges().map(|(u, v, w)| (u, v, w.to_bits())).collect()
            };
            assert_eq!(
                bits(got.graph()),
                bits(&want),
                "case {case}: n {n}, {options:?}, {seqs:?}"
            );
            assert_eq!(got.graph().node_count(), n, "case {case}");
            assert_eq!(got.cascade_counts, want_counts, "case {case}");
        }
    }

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
