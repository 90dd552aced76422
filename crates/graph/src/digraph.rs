//! Immutable CSR-backed weighted directed graphs.
//!
//! The workspace stores graphs in compressed-sparse-row form: one `offsets`
//! array of length `n + 1` and parallel `targets` / `weight_ids` arrays of
//! length `m`. Neighbour scans are then contiguous slices — the access
//! pattern the inference and community-detection loops hammer — and the
//! whole structure is trivially shareable across rayon workers because it
//! is never mutated after construction.
//!
//! Each distinct weight is stored once, in a `weight_values` table, and an
//! edge holds its index: 8 bytes an entry instead of 12. The co-occurrence
//! weight `2·c(u, v) / (c(u) + c(v))` is a ratio of small cascade counts,
//! so a graph of a million entries holds a few thousand distinct weights,
//! and a generated graph whose weights are all `1.0` holds one. Every
//! constructor interns its weights by their bits (a [`WeightTable`]), so
//! `+0.0` and `−0.0` stay distinct and every weight reads back bit for bit.

use crate::node::NodeId;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// An immutable weighted directed graph in CSR form.
///
/// Build one with [`GraphBuilder`]; parallel edges are merged by summing
/// their weights, and self-loops are permitted (generators avoid them, but
/// co-occurrence counting may produce them when a node appears twice in a
/// malformed input — they are kept so callers can detect that).
#[derive(Clone, Debug)]
pub struct DiGraph {
    n: usize,
    offsets: Vec<usize>,
    targets: Vec<NodeId>,
    /// Per edge, parallel to `targets`: an index into `weight_values`.
    weight_ids: Vec<u32>,
    /// Each distinct weight once, by bits, in first-seen order.
    weight_values: Vec<f64>,
}

impl DiGraph {
    /// An empty graph over `n` isolated nodes.
    pub fn empty(n: usize) -> Self {
        DiGraph {
            n,
            offsets: vec![0; n + 1],
            targets: Vec::new(),
            weight_ids: Vec::new(),
            weight_values: Vec::new(),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of directed edges (after merging parallel edges).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n as u32).map(NodeId)
    }

    /// Out-neighbours of `u` as a contiguous slice, sorted by target id.
    #[inline]
    pub fn out_neighbors(&self, u: NodeId) -> &[NodeId] {
        let (lo, hi) = self.row(u);
        &self.targets[lo..hi]
    }

    /// Weights parallel to [`DiGraph::out_neighbors`].
    #[inline]
    pub fn out_weights(&self, u: NodeId) -> impl Iterator<Item = f64> + '_ {
        let (lo, hi) = self.row(u);
        self.weight_ids[lo..hi]
            .iter()
            .map(|&id| self.weight_values[id as usize])
    }

    /// `(target, weight)` pairs leaving `u`.
    pub fn out_edges(&self, u: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.out_neighbors(u)
            .iter()
            .copied()
            .zip(self.out_weights(u))
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        let (lo, hi) = self.row(u);
        hi - lo
    }

    /// Weight of edge `u -> v`, or `None` if absent. `O(log deg(u))`.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        let (lo, hi) = self.row(u);
        self.targets[lo..hi]
            .binary_search(&v)
            .ok()
            .map(|i| self.weight(lo + i))
    }

    /// Whether the edge `u -> v` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_weight(u, v).is_some()
    }

    /// All edges as `(source, target, weight)` triples in CSR order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        (0..self.n).flat_map(move |u| {
            let u = NodeId::new(u);
            self.out_edges(u).map(move |(v, w)| (u, v, w))
        })
    }

    /// How many distinct weights (by bits) the graph's edges carry.
    pub fn distinct_weights(&self) -> usize {
        self.weight_values.len()
    }

    /// Total weight over all directed edges.
    #[cfg(test)]
    fn total_weight(&self) -> f64 {
        self.edges().map(|(_, _, w)| w).sum()
    }

    /// The transposed graph (every edge reversed), preserving weights.
    ///
    /// A counting sort by target: sources are visited in ascending order,
    /// so every transposed row comes out sorted. The weight ids move with
    /// their edges and the table is shared as it is. `O(n + m)`.
    pub fn transpose(&self) -> DiGraph {
        let mut offsets = vec![0usize; self.n + 1];
        for &v in &self.targets {
            offsets[v.index() + 1] += 1;
        }
        for i in 0..self.n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets[..self.n].to_vec();
        let mut targets = vec![NodeId(0); self.targets.len()];
        let mut weight_ids = vec![0u32; self.weight_ids.len()];
        for u in self.nodes() {
            let (lo, hi) = self.row(u);
            for (&v, &id) in self.targets[lo..hi].iter().zip(&self.weight_ids[lo..hi]) {
                let slot = &mut cursor[v.index()];
                targets[*slot] = u;
                weight_ids[*slot] = id;
                *slot += 1;
            }
        }
        DiGraph::from_sorted_rows(
            self.n,
            offsets,
            targets,
            weight_ids,
            self.weight_values.clone(),
        )
    }

    /// The symmetrised graph: for every unordered pair `{u, v}` both
    /// directions carry the *sum* of the original `u->v` and `v->u`
    /// weights (a self-loop is kept once, with its own weight). Community
    /// detection operates on this view.
    ///
    /// Row `u` of the result is the sorted merge of row `u` and row `u` of
    /// the transpose. `O(n + m)`.
    pub fn to_undirected(&self) -> DiGraph {
        let reversed = self.transpose();
        let mut offsets = Vec::with_capacity(self.n + 1);
        let mut targets = Vec::with_capacity(2 * self.targets.len());
        let mut weight_ids = Vec::with_capacity(2 * self.weight_ids.len());
        let mut table = WeightTable::default();
        offsets.push(0);
        for u in self.nodes() {
            let (out, inc) = (self.out_neighbors(u), reversed.out_neighbors(u));
            let out_w = |i: usize| self.weight(self.offsets[u.index()] + i);
            let inc_w = |j: usize| reversed.weight(reversed.offsets[u.index()] + j);
            let (mut i, mut j) = (0, 0);
            while i < out.len() || j < inc.len() {
                let order = match (out.get(i), inc.get(j)) {
                    (Some(a), Some(b)) => a.cmp(b),
                    (Some(_), None) => Ordering::Less,
                    _ => Ordering::Greater,
                };
                let (v, w) = match order {
                    Ordering::Less => (out[i], out_w(i)),
                    Ordering::Greater => (inc[j], inc_w(j)),
                    // A self-loop is its own reverse and is kept once.
                    Ordering::Equal if out[i] == u => (u, out_w(i)),
                    Ordering::Equal => (out[i], out_w(i) + inc_w(j)),
                };
                i += usize::from(order != Ordering::Greater);
                j += usize::from(order != Ordering::Less);
                targets.push(v);
                weight_ids.push(table.intern(w));
            }
            offsets.push(targets.len());
        }
        DiGraph::from_sorted_rows(self.n, offsets, targets, weight_ids, table.into_values())
    }

    /// Wraps CSR arrays whose rows are already sorted by target and free
    /// of repeats — what [`GraphBuilder::build`] establishes by sorting —
    /// with each edge's weight an index into `weight_values`, a table of
    /// distinct bit patterns (what [`WeightTable`] builds).
    pub(crate) fn from_sorted_rows(
        n: usize,
        offsets: Vec<usize>,
        targets: Vec<NodeId>,
        weight_ids: Vec<u32>,
        weight_values: Vec<f64>,
    ) -> DiGraph {
        debug_assert_eq!(offsets.len(), n + 1);
        debug_assert_eq!(offsets[n], targets.len());
        debug_assert_eq!(targets.len(), weight_ids.len());
        debug_assert!(offsets.windows(2).all(|o| {
            let row = &targets[o[0]..o[1]];
            row.windows(2).all(|t| t[0] < t[1]) && row.iter().all(|t| t.index() < n)
        }));
        debug_assert!(weight_ids
            .iter()
            .all(|&id| (id as usize) < weight_values.len()));
        DiGraph {
            n,
            offsets,
            targets,
            weight_ids,
            weight_values,
        }
    }

    /// The weight of the edge at CSR position `slot`.
    #[inline]
    fn weight(&self, slot: usize) -> f64 {
        self.weight_values[self.weight_ids[slot] as usize]
    }

    fn row(&self, u: NodeId) -> (usize, usize) {
        let i = u.index();
        assert!(i < self.n, "node {u} out of range (n = {})", self.n);
        (self.offsets[i], self.offsets[i + 1])
    }
}

/// The interner every graph constructor writes its weights through: each
/// distinct bit pattern gets the next `u32` id, in first-seen order.
#[derive(Default)]
pub(crate) struct WeightTable {
    ids: HashMap<u64, u32, BuildHasherDefault<BitsHasher>>,
    values: Vec<f64>,
}

impl WeightTable {
    /// The id of `w`'s bit pattern, added to the table on first sight.
    ///
    /// # Panics
    /// Panics past `u32::MAX` distinct weights.
    #[inline]
    pub(crate) fn intern(&mut self, w: f64) -> u32 {
        let values = &mut self.values;
        *self.ids.entry(w.to_bits()).or_insert_with(|| {
            let id = u32::try_from(values.len()).expect("more than u32::MAX distinct weights");
            values.push(w);
            id
        })
    }

    /// The distinct weights, indexed by id.
    pub(crate) fn into_values(self) -> Vec<f64> {
        self.values
    }
}

/// Hashes a weight's bits for [`WeightTable`]: one multiply, with the
/// high bits folded down first, since the dyadic weights (`1.0`, `0.5`,
/// integer counts) differ only there. SipHash's resistance to chosen
/// keys buys nothing for a graph's own weights, and interning the served
/// fit's 1.28 M entries took ≈ 23 ms with it against ≈ 9 ms with this,
/// beside a ≈ 190 ms count.
#[derive(Default)]
struct BitsHasher(u64);

impl Hasher for BitsHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, bits: u64) {
        let x = self.0 ^ bits;
        self.0 = (x ^ (x >> 32) ^ (x >> 52)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Accumulates edges and produces a [`DiGraph`].
///
/// Edges may be added in any order; `build` sorts each adjacency row and
/// merges duplicates by summing weights. It serves the generators ([`sbm`],
/// the backbone and the synthetic worlds), which emit edges in no
/// particular order; the co-occurrence count and the symmetrised view
/// produce their rows already sorted and write the CSR arrays directly.
///
/// [`sbm`]: crate::sbm
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId, f64)>,
}

impl GraphBuilder {
    /// A builder for a graph over `n` nodes.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Pre-allocates room for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
        }
    }

    /// Adds a directed edge. Duplicate `(u, v)` pairs are merged at build
    /// time by summing weights.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    #[inline]
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: f64) {
        assert!(
            u.index() < self.n && v.index() < self.n,
            "edge ({u}, {v}) out of range (n = {})",
            self.n
        );
        self.edges.push((u, v, w));
    }

    /// Adds `u -> v` and `v -> u` with the same weight.
    pub fn add_undirected_edge(&mut self, u: NodeId, v: NodeId, w: f64) {
        self.add_edge(u, v, w);
        if u != v {
            self.add_edge(v, u, w);
        }
    }

    /// Finalises the CSR arrays.
    pub fn build(mut self) -> DiGraph {
        // Counting sort by source gives O(m) bucketing; rows are then
        // sorted individually so neighbour lookups can binary-search.
        let mut counts = vec![0usize; self.n + 1];
        for &(u, _, _) in &self.edges {
            counts[u.index() + 1] += 1;
        }
        for i in 0..self.n {
            counts[i + 1] += counts[i];
        }
        let offsets_raw = counts.clone();
        let mut slots: Vec<(NodeId, f64)> = vec![(NodeId(0), 0.0); self.edges.len()];
        {
            let mut cursor = counts;
            for &(u, v, w) in &self.edges {
                let c = &mut cursor[u.index()];
                slots[*c] = (v, w);
                *c += 1;
            }
        }
        self.edges.clear();

        let mut offsets = Vec::with_capacity(self.n + 1);
        let mut targets = Vec::with_capacity(slots.len());
        let mut weight_ids = Vec::with_capacity(slots.len());
        let mut table = WeightTable::default();
        offsets.push(0);
        for i in 0..self.n {
            let row = &mut slots[offsets_raw[i]..offsets_raw[i + 1]];
            row.sort_unstable_by_key(|&(v, _)| v);
            let mut j = 0;
            while j < row.len() {
                let (v, mut w) = row[j];
                let mut k = j + 1;
                while k < row.len() && row[k].0 == v {
                    w += row[k].1;
                    k += 1;
                }
                targets.push(v);
                weight_ids.push(table.intern(w));
                j = k;
            }
            offsets.push(targets.len());
        }

        DiGraph::from_sorted_rows(self.n, offsets, targets, weight_ids, table.into_values())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 1.0);
        b.add_edge(NodeId(0), NodeId(2), 2.0);
        b.add_edge(NodeId(1), NodeId(3), 3.0);
        b.add_edge(NodeId(2), NodeId(3), 4.0);
        b.build()
    }

    #[test]
    fn basic_counts() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.out_degree(NodeId(0)), 2);
        assert_eq!(g.out_degree(NodeId(3)), 0);
    }

    #[test]
    fn neighbors_are_sorted() {
        let mut b = GraphBuilder::new(5);
        for v in [4u32, 1, 3, 2] {
            b.add_edge(NodeId(0), NodeId(v), 1.0);
        }
        let g = b.build();
        assert_eq!(
            g.out_neighbors(NodeId(0)),
            &[NodeId(1), NodeId(2), NodeId(3), NodeId(4)]
        );
    }

    #[test]
    fn duplicate_edges_merge_by_summing() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1), 1.5);
        b.add_edge(NodeId(0), NodeId(1), 2.5);
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge_weight(NodeId(0), NodeId(1)), Some(4.0));
    }

    #[test]
    fn edge_weight_lookup() {
        let g = diamond();
        assert_eq!(g.edge_weight(NodeId(0), NodeId(2)), Some(2.0));
        assert_eq!(g.edge_weight(NodeId(2), NodeId(0)), None);
        assert!(g.has_edge(NodeId(1), NodeId(3)));
        assert!(!g.has_edge(NodeId(3), NodeId(1)));
    }

    #[test]
    fn transpose_reverses_all_edges() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.edge_count(), g.edge_count());
        for (u, v, w) in g.edges() {
            assert_eq!(t.edge_weight(v, u), Some(w));
        }
    }

    #[test]
    fn transpose_twice_is_identity() {
        let g = diamond();
        let tt = g.transpose().transpose();
        let a: Vec<_> = g.edges().collect();
        let b: Vec<_> = tt.edges().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn to_undirected_sums_both_directions() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1), 1.0);
        b.add_edge(NodeId(1), NodeId(0), 2.0);
        let g = b.build().to_undirected();
        assert_eq!(g.edge_weight(NodeId(0), NodeId(1)), Some(3.0));
        assert_eq!(g.edge_weight(NodeId(1), NodeId(0)), Some(3.0));
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::empty(3);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 0);
        assert!(g.out_neighbors(NodeId(2)).is_empty());
        assert_eq!(g.total_weight(), 0.0);
    }

    #[test]
    fn total_weight_sums_everything() {
        assert_eq!(diamond().total_weight(), 10.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(2), 1.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::cooccurrence::{CooccurrenceGraph, CooccurrenceOptions};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    /// Fewer than `max_len` edges over `nodes` nodes with weights drawn
    /// from `weights`.
    fn edges(
        rng: &mut StdRng,
        nodes: u32,
        weights: std::ops::Range<f64>,
        max_len: usize,
    ) -> Vec<(u32, u32, f64)> {
        (0..rng.gen_range(0..max_len))
            .map(|_| {
                (
                    rng.gen_range(0..nodes),
                    rng.gen_range(0..nodes),
                    rng.gen_range(weights.clone()),
                )
            })
            .collect()
    }

    /// Building a graph from arbitrary edges preserves the multiset of
    /// merged (u, v) -> total weight entries.
    #[test]
    fn builder_preserves_merged_edge_weights() {
        for case in 0..256 {
            let edges = edges(&mut StdRng::seed_from_u64(case), 20, 0.1..10.0, 200);
            let mut b = GraphBuilder::new(20);
            let mut expect: BTreeMap<(u32, u32), f64> = BTreeMap::new();
            for &(u, v, w) in &edges {
                b.add_edge(NodeId(u), NodeId(v), w);
                *expect.entry((u, v)).or_insert(0.0) += w;
            }
            let g = b.build();
            assert_eq!(g.edge_count(), expect.len(), "case {case}");
            for (&(u, v), &w) in &expect {
                let got = g.edge_weight(NodeId(u), NodeId(v)).unwrap();
                assert!((got - w).abs() < 1e-9, "case {case}: {u}->{v} {got} vs {w}");
            }
        }
    }

    /// CSR rows are sorted and binary-searchable for every node.
    #[test]
    fn rows_sorted() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let mut b = GraphBuilder::new(15);
            for _ in 0..rng.gen_range(0..100usize) {
                let (u, v) = (rng.gen_range(0u32..15), rng.gen_range(0u32..15));
                b.add_edge(NodeId(u), NodeId(v), 1.0);
            }
            let g = b.build();
            for u in g.nodes() {
                let row = g.out_neighbors(u);
                assert!(
                    row.windows(2).all(|w| w[0] < w[1]),
                    "case {case}: row {u:?} unsorted"
                );
                for &v in row {
                    assert!(g.has_edge(u, v), "case {case}: {u:?}->{v:?}");
                }
            }
        }
    }

    /// `transpose` as it was before it became a counting sort: every
    /// edge reversed through the builder.
    fn reference_transpose(g: &DiGraph) -> DiGraph {
        let mut b = GraphBuilder::new(g.node_count());
        for (u, v, w) in g.edges() {
            b.add_edge(v, u, w);
        }
        b.build()
    }

    /// `to_undirected` as it was before it became a merge: both
    /// directions of every edge (a self-loop once) through the builder,
    /// which sums the two weights of a two-way pair.
    fn reference_to_undirected(g: &DiGraph) -> DiGraph {
        let mut b = GraphBuilder::new(g.node_count());
        for (u, v, w) in g.edges() {
            b.add_undirected_edge(u, v, w);
        }
        b.build()
    }

    fn bits(g: &DiGraph) -> Vec<(NodeId, NodeId, u64)> {
        g.edges().map(|(u, v, w)| (u, v, w.to_bits())).collect()
    }

    /// The counting-sort transpose and the merging symmetrisation equal
    /// the builder versions bit for bit — one-way edges, two-way edges,
    /// self-loops and empty rows — and leave every row sorted and
    /// repeat-free.
    #[test]
    fn transpose_and_to_undirected_match_builder_reference() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            // 0–15 nodes; the sparser draws leave most rows empty.
            let n = rng.gen_range(0..16u32);
            let mut b = GraphBuilder::new(n as usize);
            if n > 0 {
                for (u, v, w) in edges(&mut rng, n, 0.01..3.0, 90) {
                    b.add_edge(NodeId(u), NodeId(v), w);
                    // Every third edge also gets its reverse, with its
                    // own weight.
                    if rng.gen_range(0..3u32) == 0 {
                        b.add_edge(NodeId(v), NodeId(u), rng.gen_range(0.01..3.0));
                    }
                }
            }
            let g = b.build();
            let (t, und) = (g.transpose(), g.to_undirected());
            assert_eq!(bits(&t), bits(&reference_transpose(&g)), "case {case}");
            assert_eq!(
                bits(&und),
                bits(&reference_to_undirected(&g)),
                "case {case}"
            );
            for h in [&t, &und] {
                assert_eq!(h.node_count(), g.node_count(), "case {case}");
                for u in h.nodes() {
                    assert!(
                        h.out_neighbors(u).windows(2).all(|w| w[0] < w[1]),
                        "case {case}: row {u:?} unsorted or repeated"
                    );
                }
            }
        }
    }

    /// Transposition preserves edge count and total weight.
    #[test]
    fn transpose_invariants() {
        for case in 0..256 {
            let edges = edges(&mut StdRng::seed_from_u64(case), 12, 0.5..2.0, 80);
            let mut b = GraphBuilder::new(12);
            for &(u, v, w) in &edges {
                b.add_edge(NodeId(u), NodeId(v), w);
            }
            let g = b.build();
            let t = g.transpose();
            assert_eq!(g.edge_count(), t.edge_count(), "case {case}");
            assert!(
                (g.total_weight() - t.total_weight()).abs() < 1e-9,
                "case {case}: {} vs {}",
                g.total_weight(),
                t.total_weight()
            );
        }
    }

    /// A CSR with one `f64` per entry, as `DiGraph` was before it interned
    /// its weights: rows of `(target, weight)`, built, transposed and
    /// symmetrised by the same sums in the same order.
    struct PlainCsr(Vec<Vec<(NodeId, f64)>>);

    impl PlainCsr {
        /// `GraphBuilder::build`: bucket by source in insertion order,
        /// sort each row by target, sum each run of equal targets.
        fn build(n: usize, edges: &[(NodeId, NodeId, f64)]) -> PlainCsr {
            let mut slots = vec![Vec::new(); n];
            for &(u, v, w) in edges {
                slots[u.index()].push((v, w));
            }
            let rows = slots
                .into_iter()
                .map(|mut row: Vec<(NodeId, f64)>| {
                    row.sort_unstable_by_key(|&(v, _)| v);
                    let mut merged: Vec<(NodeId, f64)> = Vec::new();
                    for (v, w) in row {
                        match merged.last_mut() {
                            Some(last) if last.0 == v => last.1 += w,
                            _ => merged.push((v, w)),
                        }
                    }
                    merged
                })
                .collect();
            PlainCsr(rows)
        }

        fn transpose(&self) -> PlainCsr {
            let mut rows = vec![Vec::new(); self.0.len()];
            for (u, row) in self.0.iter().enumerate() {
                for &(v, w) in row {
                    rows[v.index()].push((NodeId::new(u), w));
                }
            }
            PlainCsr(rows)
        }

        /// Out-weight plus in-weight per pair, a self-loop once.
        fn to_undirected(&self) -> PlainCsr {
            let reversed = self.transpose();
            let rows = (0..self.0.len())
                .map(|u| {
                    let mut row: BTreeMap<NodeId, f64> = self.0[u].iter().copied().collect();
                    for &(v, w) in &reversed.0[u] {
                        if v.index() != u {
                            row.entry(v).and_modify(|out| *out += w).or_insert(w);
                        }
                    }
                    row.into_iter().collect()
                })
                .collect();
            PlainCsr(rows)
        }

        fn bits(&self) -> Vec<(NodeId, NodeId, u64)> {
            let mut triples = Vec::new();
            for (u, row) in self.0.iter().enumerate() {
                for &(v, w) in row {
                    triples.push((NodeId::new(u), v, w.to_bits()));
                }
            }
            triples
        }
    }

    /// Every id indexes the table, the table repeats no bit pattern, and
    /// it holds exactly the patterns the edges carry.
    fn assert_one_table(g: &DiGraph, case: u64, what: &str) {
        assert!(
            g.weight_ids
                .iter()
                .all(|&id| (id as usize) < g.weight_values.len()),
            "case {case}: {what}: an id past the {}-entry table",
            g.weight_values.len()
        );
        let mut table: Vec<u64> = g.weight_values.iter().map(|w| w.to_bits()).collect();
        table.sort_unstable();
        table.dedup();
        assert_eq!(
            table.len(),
            g.distinct_weights(),
            "case {case}: {what}: a repeated bit pattern"
        );
        let mut used: Vec<u64> = g.edges().map(|(_, _, w)| w.to_bits()).collect();
        used.sort_unstable();
        used.dedup();
        assert_eq!(used, table, "case {case}: {what}: unused table entries");
    }

    /// Interned graphs read back the plain `f64` CSR bit for bit: built
    /// from edges with repeats and self-loops, weights drawn from a
    /// palette with `+0.0` and `−0.0` or all distinct, then transposed and
    /// symmetrised; and the co-occurrence count, directed then
    /// symmetrised or symmetrised in one pass, against the plain
    /// symmetrisation of its directed edges.
    #[test]
    fn interned_weights_match_plain_csr() {
        const PALETTE: [f64; 6] = [0.0, -0.0, 0.25, 0.5, 1.0, 3.0];
        let (mut signed_zeros, mut all_distinct) = (0, 0);
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let n = rng.gen_range(1..16usize);
            let repeated = case % 2 == 0;
            let edges: Vec<(NodeId, NodeId, f64)> = (0..rng.gen_range(0..120usize))
                .map(|_| {
                    let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    let w = if repeated {
                        PALETTE[rng.gen_range(0..PALETTE.len())]
                    } else {
                        rng.gen_range(-2.0..2.0)
                    };
                    (NodeId::new(u), NodeId::new(v), w)
                })
                .collect();
            let mut b = GraphBuilder::new(n);
            for &(u, v, w) in &edges {
                b.add_edge(u, v, w);
            }
            let g = b.build();
            let plain = PlainCsr::build(n, &edges);
            for (what, got, want) in [
                ("build", g.clone(), plain.bits()),
                ("transpose", g.transpose(), plain.transpose().bits()),
                (
                    "to_undirected",
                    g.to_undirected(),
                    plain.to_undirected().bits(),
                ),
            ] {
                assert_eq!(bits(&got), want, "case {case}: {what}");
                assert_one_table(&got, case, what);
            }
            let patterns: Vec<u64> = g.weight_values.iter().map(|w| w.to_bits()).collect();
            signed_zeros += usize::from(
                patterns.contains(&0.0f64.to_bits()) && patterns.contains(&(-0.0f64).to_bits()),
            );
            all_distinct += usize::from(!repeated && g.distinct_weights() == g.edge_count());

            let sequences: Vec<Vec<NodeId>> = (0..rng.gen_range(0..20usize))
                .map(|_| {
                    (0..rng.gen_range(0..8usize))
                        .map(|_| NodeId::new(rng.gen_range(0..n)))
                        .collect()
                })
                .collect();
            let options = CooccurrenceOptions {
                successor_window: [None, Some(2)][rng.gen_range(0..2usize)],
                min_weight: [0.0, 0.3][rng.gen_range(0..2usize)],
            };
            let directed = CooccurrenceGraph::build(n, &sequences, options);
            assert_one_table(directed.graph(), case, "count");
            let directed_edges: Vec<_> = directed.graph().edges().collect();
            let want = PlainCsr::build(n, &directed_edges).to_undirected().bits();
            for (what, got) in [
                (
                    "build_undirected",
                    CooccurrenceGraph::build_undirected(n, &sequences, options),
                ),
                ("build().undirected()", directed.undirected()),
            ] {
                assert_eq!(bits(&got), want, "case {case}: {what}");
                assert_one_table(&got, case, what);
            }
        }
        assert!(signed_zeros > 0, "no graph carried both zeros");
        assert!(all_distinct > 0, "no graph had all-distinct weights");
    }
}
