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
//! appended straight to the CSR arrays (each weight interned into the
//! graph's table of distinct weights, see [`crate::digraph`]), and the
//! row is zeroed again
//! through `touched`. The rows are counted twice: a first pass, with no
//! sort and no push, only counts each row's survivors, so the CSR arrays
//! are allocated once at their exact length and never grow — a caller
//! that counts on every batch (the serving trainer) leaves no trail of
//! doubled-and-freed blocks in the heap. No pair is ever hashed and no
//! edge list is built: the cost is `O(increments + Σ deg·log deg)` time
//! — `increments` the successors visited, `deg` a row's distinct targets
//! before `min_weight` — and `O(n + infections + kept edges)` memory,
//! with no `O(n)` sweep per source.
//!
//! Community detection reads only the symmetrised view, and
//! [`CooccurrenceGraph::build_undirected`] counts it in the same pass:
//! each occurrence of `u` also adds its *predecessors*, into the high half
//! of the same `u64` accumulator slot, so row `u` holds `c(u, v)` and
//! `c(v, u)` side by side and is written as `w(u, v) + w(v, u)` directly.
//! Neither the directed graph nor its transpose is ever allocated.

use crate::digraph::{DiGraph, WeightTable};
use crate::node::NodeId;
use viralcast_obs as obs;

/// One visit to a successor `v` of `u`: the low half of a row
/// accumulator slot counts `c(u, v)`.
const AFTER: u64 = 1;
/// One visit to a predecessor `v` of `u`: the high half counts `c(v, u)`.
const BEFORE: u64 = 1 << 32;

/// Adds `one` to the accumulator slot of every node in `neighbours`,
/// listing first hits in `touched`.
fn tally(count: &mut [u64], touched: &mut Vec<NodeId>, neighbours: &[NodeId], one: u64) {
    for &v in neighbours {
        let c = &mut count[v.index()];
        if *c == 0 {
            touched.push(v);
        }
        *c += one;
    }
}

/// The co-occurrence graph plus the per-node cascade counts that produced
/// it.
#[derive(Clone, Debug)]
pub struct CooccurrenceGraph {
    graph: DiGraph,
    cascade_counts: Vec<usize>,
    /// Neighbours visited by one of the two counting passes. Successors only
    /// for the directed graph; successors and predecessors, so every
    /// pair from both ends, for the undirected one.
    pair_increments: usize,
    /// Distinct row entries before `min_weight` — ordered pairs for the
    /// directed graph, unordered pairs from each end (a self-loop once)
    /// for the undirected one; edges ÷ this is the filter's yield.
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
        let built = Self::count::<false>(n, sequences, options);
        built.report(sequences.len());
        built
    }

    /// Builds the symmetrised co-occurrence graph — what
    /// `build(n, sequences, options).undirected()` returns, bit for bit —
    /// without the directed graph or its transpose.
    ///
    /// Both directions of a pair are weighed and filtered by `min_weight`
    /// separately, as [`build`](Self::build) does; row `u` then holds
    /// `w(u, v) + w(v, u)`, or the one direction that survived, and a
    /// self-loop once with its own weight. `successor_window = Some(w)`
    /// also bounds the predecessors counted to `w` positions.
    ///
    /// ```
    /// use viralcast_graph::cooccurrence::{CooccurrenceGraph, CooccurrenceOptions};
    /// use viralcast_graph::NodeId;
    ///
    /// // Node 0 precedes node 1 in both cascades: w(0, 1) = 1, w(1, 0) = 0.
    /// let sequences = vec![vec![NodeId(0), NodeId(1)], vec![NodeId(0), NodeId(1)]];
    /// let g = CooccurrenceGraph::build_undirected(2, &sequences, CooccurrenceOptions::default());
    /// assert_eq!(g.edge_weight(NodeId(0), NodeId(1)), Some(1.0));
    /// assert_eq!(g.edge_weight(NodeId(1), NodeId(0)), Some(1.0));
    /// ```
    ///
    /// # Panics
    /// Panics if a sequence names a node outside `0..n`, or if one row
    /// visits more than `u32::MAX` neighbours in either direction.
    pub fn build_undirected(
        n: usize,
        sequences: &[Vec<NodeId>],
        options: CooccurrenceOptions,
    ) -> DiGraph {
        let _span = obs::Span::enter("cooccurrence");
        let built = Self::count::<true>(n, sequences, options);
        built.report(sequences.len());
        built.graph
    }

    /// The counting core of both builders. With `SYMMETRIC`, row `u`
    /// also counts the predecessors of each occurrence of `u`, into the
    /// high half of the accumulator slot ([`BEFORE`]).
    fn count<const SYMMETRIC: bool>(
        n: usize,
        sequences: &[Vec<NodeId>],
        options: CooccurrenceOptions,
    ) -> Self {
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

        // Row `u`'s accumulator: `count[v]` is `c(u, v)`, plus `c(v, u)`
        // in the high half when `SYMMETRIC`. `touched` lists first hits,
        // at most `n`, so it never grows either.
        let mut count = vec![0u64; n];
        let mut touched: Vec<NodeId> = Vec::with_capacity(n);
        // Tallies row `u` into `count`; returns the neighbours visited.
        let tally_row = |u: usize, count: &mut [u64], touched: &mut Vec<NodeId>| {
            let (mut after, mut before) = (0usize, 0usize);
            for &(cascade, position) in &occurrences[starts[u]..starts[u + 1]] {
                let seq = &sequences[cascade as usize];
                let at = position as usize;
                let (successors, predecessors) = match options.successor_window {
                    Some(w) => (
                        at + 1..(at + 1).saturating_add(w).min(seq.len()),
                        at.saturating_sub(w)..at,
                    ),
                    None => (at + 1..seq.len(), 0..at),
                };
                after += successors.len();
                tally(count, touched, &seq[successors], AFTER);
                if SYMMETRIC {
                    before += predecessors.len();
                    tally(count, touched, &seq[predecessors], BEFORE);
                }
            }
            // A half holds at most the row's visits in its direction.
            assert!(
                !SYMMETRIC || after.max(before) <= u32::MAX as usize,
                "row {u} visits more than u32::MAX neighbours"
            );
            after + before
        };
        // The weight row `u` keeps for `v` from its accumulator slot `c`,
        // or `None` when `min_weight` drops both directions.
        let entry = |u: usize, v: NodeId, c: u64| {
            let (cuv, cvu) = if SYMMETRIC {
                (c & (BEFORE - 1), c >> 32)
            } else {
                (c, 0)
            };
            let denom = (cascade_counts[u] + cascade_counts[v.index()]) as f64;
            let weigh = |c: u64| {
                (c > 0)
                    .then(|| 2.0 * c as f64 / denom)
                    .filter(|&w| w >= options.min_weight)
            };
            match (weigh(cuv), weigh(cvu)) {
                // Both directions survived: `to_undirected`'s sum.
                (Some(a), Some(b)) if v.index() != u => Some(a + b),
                // A self-loop is its own reverse (`cvu == cuv`).
                (Some(a), _) | (None, Some(a)) => Some(a),
                (None, None) => None,
            }
        };

        // First pass: how many entries each row keeps, so the CSR arrays
        // are allocated once at their final length and never grow.
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        for u in 0..n {
            tally_row(u, &mut count, &mut touched);
            let kept = touched
                .drain(..)
                .filter(|&v| entry(u, v, std::mem::take(&mut count[v.index()])).is_some())
                .count();
            offsets.push(offsets[u] + kept);
        }

        // Second pass: the same rows again, sorted and written.
        let mut targets = Vec::with_capacity(offsets[n]);
        let mut weight_ids = Vec::with_capacity(offsets[n]);
        let mut table = WeightTable::default();
        let (mut pair_increments, mut pairs_seen) = (0usize, 0usize);
        for u in 0..n {
            pair_increments += tally_row(u, &mut count, &mut touched);
            touched.sort_unstable();
            pairs_seen += touched.len();
            for v in touched.drain(..) {
                if let Some(w) = entry(u, v, std::mem::take(&mut count[v.index()])) {
                    targets.push(v);
                    weight_ids.push(table.intern(w));
                }
            }
            debug_assert_eq!(
                targets.len(),
                offsets[u + 1],
                "row {u}: the fill pass wrote a different length than the counting pass found"
            );
        }
        CooccurrenceGraph {
            graph: DiGraph::from_sorted_rows(n, offsets, targets, weight_ids, table.into_values()),
            cascade_counts,
            pair_increments,
            pairs_seen,
        }
    }

    /// Adds this build to `cooccurrence.{sequences, pair_increments,
    /// pairs_seen}` and sets the `cooccurrence.{edges, distinct_weights}`
    /// gauges — the second is the size of the graph's weight table. After
    /// [`build_undirected`](Self::build_undirected) — the pipeline's path —
    /// the increments count every pair from both ends, `pairs_seen`
    /// counts unordered pairs from each end and `edges` is the
    /// undirected edge count.
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
        registry
            .gauge("cooccurrence.distinct_weights")
            .set(self.graph.distinct_weights() as f64);
        obs::debug(
            "cooccurrence",
            "graph built",
            &[
                ("nodes", self.graph.node_count().into()),
                ("sequences", sequences.into()),
                ("pair_increments", self.pair_increments.into()),
                ("pairs_seen", self.pairs_seen.into()),
                ("edges", self.graph.edge_count().into()),
                ("distinct_weights", self.graph.distinct_weights().into()),
            ],
        );
    }

    /// The directed weighted graph with `w(u, v)` weights.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// `c(u)` — the number of cascades containing `u`.
    pub fn cascade_count(&self, u: NodeId) -> usize {
        self.cascade_counts[u.index()]
    }

    /// The symmetrised view. Community detection counts it directly with
    /// [`build_undirected`](Self::build_undirected), which equals this bit
    /// for bit.
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

        // The symmetric count visits every pair from both ends. All six
        // unordered pairs co-occur, so each row sees three neighbours;
        // the three 2/3 pairs survive as six undirected edges.
        let g = CooccurrenceGraph::count::<true>(4, &seqs, opts);
        assert_eq!(g.pair_increments, 26);
        assert_eq!(g.pairs_seen, 12);
        assert_eq!(g.graph().edge_count(), 6);
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
            assert_eq!(
                bits(got.graph()),
                bits(&want),
                "case {case}: n {n}, {options:?}, {seqs:?}"
            );
            assert_eq!(got.graph().node_count(), n, "case {case}");
            assert_eq!(got.cascade_counts, want_counts, "case {case}");
        }
    }

    /// The one-pass symmetric count equals the directed count followed by
    /// `to_undirected`, bit for bit — over isolated nodes, empty and
    /// one-node sequences, nodes repeated inside a sequence (self-loops),
    /// windows and thresholds that keep only one direction of a pair.
    #[test]
    fn build_undirected_matches_directed_then_undirected() {
        // Directed edges seen: self-loops, one-way and two-way pairs.
        let mut shapes = [0usize; 3];
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            // Ids are drawn below `n - 1`, so the last node never appears;
            // with few ids per sequence a node often repeats.
            let n = rng.gen_range(0..16usize);
            let seqs: Vec<Vec<NodeId>> = (0..rng.gen_range(0..25usize))
                .map(|_| {
                    let len = if n < 2 { 0 } else { rng.gen_range(0..9usize) };
                    (0..len)
                        .map(|_| NodeId::new(rng.gen_range(0..n - 1)))
                        .collect()
                })
                .collect();
            let options = CooccurrenceOptions {
                successor_window: [None, Some(1), Some(3)][rng.gen_range(0..3usize)],
                min_weight: [0.0, 0.05, 0.5, 1.0][rng.gen_range(0..4usize)],
            };
            let got = CooccurrenceGraph::build_undirected(n, &seqs, options);
            let directed = CooccurrenceGraph::build(n, &seqs, options);
            let want = directed.undirected();
            assert_eq!(
                bits(&got),
                bits(&want),
                "case {case}: n {n}, {options:?}, {seqs:?}"
            );
            assert_eq!(got.node_count(), n, "case {case}");
            for (u, v, _) in directed.graph().edges() {
                let shape = match (u == v, directed.graph().has_edge(v, u)) {
                    (true, _) => 0,
                    (false, false) => 1,
                    (false, true) => 2,
                };
                shapes[shape] += 1;
            }
        }
        assert!(shapes.iter().all(|&s| s > 0), "shapes seen {shapes:?}");
    }

    fn bits(g: &DiGraph) -> Vec<(NodeId, NodeId, u64)> {
        g.edges().map(|(u, v, w)| (u, v, w.to_bits())).collect()
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
