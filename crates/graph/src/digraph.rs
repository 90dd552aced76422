//! Immutable CSR-backed weighted directed graphs.
//!
//! The workspace stores graphs in compressed-sparse-row form: one `offsets`
//! array of length `n + 1` and parallel `targets` / `weight_ids` arrays of
//! length `m`. A row is then a contiguous run of both arrays — the access
//! pattern the inference and community-detection loops hammer — and the
//! whole structure is trivially shareable across rayon workers because it
//! is never mutated after construction.
//!
//! Both per-edge arrays are as narrow as the graph allows, so the
//! co-occurrence graph — the largest thing a fit builds — takes 4 bytes an
//! entry, against 12 for a `u32` target and an `f64` weight. A target is
//! 16 bits on a graph of at most 65 536 nodes and 32 bits on a larger one;
//! the width follows from `n` alone, so every constructor picks it before
//! it writes the first edge, and `transpose` and `to_undirected`, which
//! keep `n`, keep it.
//!
//! Each distinct weight is stored once, in a `weight_values` table, and an
//! edge holds its index. The co-occurrence weight `2·c(u, v) / (c(u) +
//! c(v))` is a ratio of small cascade counts, so a graph of a million
//! entries holds a few thousand distinct weights, and a generated graph
//! whose weights are all `1.0` holds one. An id is therefore 16 bits while
//! the table holds at most 65 536 weights and 32 bits for a graph whose
//! table outgrows that. Every constructor writes its weights through one
//! [`WeightWriter`], which interns them by their bits, so `+0.0` and `−0.0`
//! stay distinct and every weight reads back bit for bit, and which widens
//! the ids written so far once, when the table gets its 65 537th weight.
//! `transpose` moves the ids with their edges and shares the table, so it
//! keeps that width too.
//!
//! [`DiGraph::out_neighbors`] and [`DiGraph::out_weights`] read either
//! width, entry by entry; a loop over every row reads
//! [`DiGraph::row_targets`] and [`DiGraph::row_weights`] instead, which fix
//! the widths once for the whole loop.

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
    targets: Targets,
    /// Per edge, parallel to `targets`: an index into `weight_values`.
    weight_ids: WeightIds,
    /// Each distinct weight once, by bits, in first-seen order.
    weight_values: Vec<f64>,
}

/// The most nodes a graph may have while its targets are 16-bit.
const NARROW_NODES: usize = 1 << 16;

/// The most distinct weights a table may hold while its ids are 16-bit.
const NARROW_TABLE: usize = 1 << 16;

/// Per-edge targets: 16-bit on a graph of at most [`NARROW_NODES`] nodes,
/// 32-bit on a larger one.
#[derive(Clone, Debug)]
pub(crate) enum Targets {
    Narrow(Vec<u16>),
    Wide(Vec<u32>),
}

impl Targets {
    /// Room for `m` targets at the width a graph of `n` nodes takes.
    pub(crate) fn with_capacity(n: usize, m: usize) -> Self {
        if n <= NARROW_NODES {
            Targets::Narrow(Vec::with_capacity(m))
        } else {
            Targets::Wide(Vec::with_capacity(m))
        }
    }

    /// Appends `v`, which must be a node of the graph the width was
    /// chosen for.
    #[inline]
    pub(crate) fn push(&mut self, v: NodeId) {
        match self {
            Targets::Narrow(targets) => {
                debug_assert!(v.index() < NARROW_NODES, "target {v} past a 16-bit graph");
                targets.push(v.0 as u16);
            }
            Targets::Wide(targets) => targets.push(v.0),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            Targets::Narrow(targets) => targets.len(),
            Targets::Wide(targets) => targets.len(),
        }
    }

    /// The target at CSR position `slot`.
    #[inline]
    fn get(&self, slot: usize) -> NodeId {
        match self {
            Targets::Narrow(targets) => NodeId(u32::from(targets[slot])),
            Targets::Wide(targets) => NodeId(targets[slot]),
        }
    }
}

/// Per-edge ids into a graph's `weight_values`: 16-bit while the table
/// holds at most [`NARROW_TABLE`] weights, 32-bit when it holds more.
#[derive(Clone, Debug)]
pub(crate) enum WeightIds {
    Narrow(Vec<u16>),
    Wide(Vec<u32>),
}

/// Every row's targets at the graph's target width, from
/// [`DiGraph::row_targets`]: `T` is `u16` or `u32`.
#[derive(Clone, Copy, Debug)]
pub struct RowTargets<'a, T> {
    offsets: &'a [usize],
    targets: &'a [T],
}

impl<'a, T: Copy + Into<u32>> RowTargets<'a, T> {
    /// The targets of row `u`, ascending: [`DiGraph::out_neighbors`]
    /// without a branch on the width.
    #[inline]
    pub fn of(&self, u: NodeId) -> impl ExactSizeIterator<Item = NodeId> + 'a {
        let i = u.index();
        self.targets[self.offsets[i]..self.offsets[i + 1]]
            .iter()
            .map(|&v| NodeId(v.into()))
    }
}

/// A graph's targets with their width told apart once: match on it and
/// hand either arm to one generic loop.
#[derive(Clone, Copy, Debug)]
pub enum TargetRows<'a> {
    /// At most 65 536 nodes.
    Narrow(RowTargets<'a, u16>),
    /// More than 65 536 nodes.
    Wide(RowTargets<'a, u32>),
}

/// Every row's weights at the graph's id width, from
/// [`DiGraph::row_weights`]: `I` is `u16` or `u32`.
#[derive(Clone, Copy, Debug)]
pub struct RowWeights<'a, I> {
    offsets: &'a [usize],
    ids: &'a [I],
    values: &'a [f64],
}

impl<'a, I: Copy + Into<u32>> RowWeights<'a, I> {
    /// The weights of row `u`, parallel to [`RowTargets::of`].
    #[inline]
    pub fn of(&self, u: NodeId) -> impl Iterator<Item = f64> + 'a {
        let values = self.values;
        let i = u.index();
        self.ids[self.offsets[i]..self.offsets[i + 1]]
            .iter()
            .map(move |&id| values[id.into() as usize])
    }
}

/// A graph's weights with their id width told apart once: match on it
/// and hand either arm to one generic loop.
#[derive(Clone, Copy, Debug)]
pub enum WeightRows<'a> {
    /// At most 65 536 distinct weights.
    Narrow(RowWeights<'a, u16>),
    /// More than 65 536 distinct weights.
    Wide(RowWeights<'a, u32>),
}

impl DiGraph {
    /// An empty graph over `n` isolated nodes.
    pub fn empty(n: usize) -> Self {
        DiGraph {
            n,
            offsets: vec![0; n + 1],
            targets: Targets::with_capacity(n, 0),
            weight_ids: WeightIds::Narrow(Vec::new()),
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

    /// Out-neighbours of `u`, ascending by id.
    #[inline]
    pub fn out_neighbors(&self, u: NodeId) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        let (lo, hi) = self.row(u);
        (lo..hi).map(|slot| self.targets.get(slot))
    }

    /// Weights parallel to [`DiGraph::out_neighbors`].
    #[inline]
    pub fn out_weights(&self, u: NodeId) -> impl Iterator<Item = f64> + '_ {
        let (lo, hi) = self.row(u);
        (lo..hi).map(|slot| self.weight(slot))
    }

    /// Every row's targets, their width decided here rather than per
    /// entry: a loop over many rows matches once and reads each row with
    /// [`RowTargets::of`].
    pub fn row_targets(&self) -> TargetRows<'_> {
        let offsets = &self.offsets[..];
        match &self.targets {
            Targets::Narrow(targets) => TargetRows::Narrow(RowTargets { offsets, targets }),
            Targets::Wide(targets) => TargetRows::Wide(RowTargets { offsets, targets }),
        }
    }

    /// Every row's weights, their id width decided here rather than per
    /// entry: a loop over many rows matches once and reads each row with
    /// [`RowWeights::of`].
    pub fn row_weights(&self) -> WeightRows<'_> {
        let (offsets, values) = (&self.offsets[..], &self.weight_values[..]);
        match &self.weight_ids {
            WeightIds::Narrow(ids) => WeightRows::Narrow(RowWeights {
                offsets,
                ids,
                values,
            }),
            WeightIds::Wide(ids) => WeightRows::Wide(RowWeights {
                offsets,
                ids,
                values,
            }),
        }
    }

    /// `(target, weight)` pairs leaving `u`.
    pub fn out_edges(&self, u: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let (lo, hi) = self.row(u);
        (lo..hi).map(|slot| (self.targets.get(slot), self.weight(slot)))
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
        let at = match &self.targets {
            Targets::Narrow(targets) => u16::try_from(v.0)
                .ok()
                .and_then(|v| targets[lo..hi].binary_search(&v).ok()),
            Targets::Wide(targets) => targets[lo..hi].binary_search(&v.0).ok(),
        };
        at.map(|i| self.weight(lo + i))
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
    /// so every transposed row comes out sorted. The targets and weight
    /// ids move at their widths and the table is shared as it is.
    /// `O(n + m)`.
    pub fn transpose(&self) -> DiGraph {
        match &self.targets {
            Targets::Narrow(targets) => self.transposed(targets, Targets::Narrow),
            Targets::Wide(targets) => self.transposed(targets, Targets::Wide),
        }
    }

    /// [`transpose`](Self::transpose) at the target width `T`, which
    /// `wrap` keeps.
    fn transposed<T>(&self, targets: &[T], wrap: fn(Vec<T>) -> Targets) -> DiGraph
    where
        T: Copy + Default + Into<u32> + TryFrom<u32>,
    {
        let mut offsets = vec![0usize; self.n + 1];
        for &v in targets {
            offsets[v.into() as usize + 1] += 1;
        }
        for i in 0..self.n {
            offsets[i + 1] += offsets[i];
        }
        let (targets, weight_ids) = match &self.weight_ids {
            WeightIds::Narrow(ids) => {
                let (targets, ids) = self.reversed(&offsets, targets, ids);
                (targets, WeightIds::Narrow(ids))
            }
            WeightIds::Wide(ids) => {
                let (targets, ids) = self.reversed(&offsets, targets, ids);
                (targets, WeightIds::Wide(ids))
            }
        };
        DiGraph::from_sorted_rows(
            self.n,
            offsets,
            wrap(targets),
            weight_ids,
            self.weight_values.clone(),
        )
    }

    /// The transpose's targets and ids, given its `offsets`: each edge
    /// `u -> v` lands at the next free slot of row `v`.
    fn reversed<T, I: Copy + Default>(
        &self,
        offsets: &[usize],
        targets: &[T],
        ids: &[I],
    ) -> (Vec<T>, Vec<I>)
    where
        T: Copy + Default + Into<u32> + TryFrom<u32>,
    {
        let mut cursor = offsets[..self.n].to_vec();
        let mut sources = vec![T::default(); ids.len()];
        let mut reversed = vec![I::default(); ids.len()];
        for u in 0..self.n {
            let (lo, hi) = (self.offsets[u], self.offsets[u + 1]);
            let source = T::try_from(u as u32)
                .ok()
                .expect("a source fits the width its graph's targets take");
            for (&v, &id) in targets[lo..hi].iter().zip(&ids[lo..hi]) {
                let slot = &mut cursor[v.into() as usize];
                sources[*slot] = source;
                reversed[*slot] = id;
                *slot += 1;
            }
        }
        (sources, reversed)
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
        let mut targets = Targets::with_capacity(self.n, 2 * self.edge_count());
        let mut weights = WeightWriter::with_capacity(2 * self.edge_count());
        offsets.push(0);
        for u in self.nodes() {
            // Out-edges at `i`, in-edges at `j`, both CSR positions.
            let ((mut i, out_end), (mut j, inc_end)) = (self.row(u), reversed.row(u));
            let (out, inc) = (&self.targets, &reversed.targets);
            while i < out_end || j < inc_end {
                let order = match (i < out_end, j < inc_end) {
                    (true, true) => out.get(i).cmp(&inc.get(j)),
                    (true, false) => Ordering::Less,
                    _ => Ordering::Greater,
                };
                let (v, w) = match order {
                    Ordering::Less => (out.get(i), self.weight(i)),
                    Ordering::Greater => (inc.get(j), reversed.weight(j)),
                    // A self-loop is its own reverse and is kept once.
                    Ordering::Equal if out.get(i) == u => (u, self.weight(i)),
                    Ordering::Equal => (out.get(i), self.weight(i) + reversed.weight(j)),
                };
                i += usize::from(order != Ordering::Greater);
                j += usize::from(order != Ordering::Less);
                targets.push(v);
                weights.push(w);
            }
            offsets.push(targets.len());
        }
        let (weight_ids, weight_values) = weights.finish();
        DiGraph::from_sorted_rows(self.n, offsets, targets, weight_ids, weight_values)
    }

    /// Wraps CSR arrays whose rows are already sorted by target and free
    /// of repeats — what [`GraphBuilder::build`] establishes by sorting —
    /// with the targets at the width `n` takes ([`Targets::with_capacity`])
    /// and each edge's weight an index into `weight_values`, a table of
    /// distinct bit patterns (what a [`WeightWriter`] builds).
    pub(crate) fn from_sorted_rows(
        n: usize,
        offsets: Vec<usize>,
        targets: Targets,
        weight_ids: WeightIds,
        weight_values: Vec<f64>,
    ) -> DiGraph {
        debug_assert_eq!(offsets.len(), n + 1);
        debug_assert_eq!(offsets[n], targets.len());
        debug_assert_eq!(matches!(targets, Targets::Narrow(_)), n <= NARROW_NODES);
        debug_assert!(offsets.windows(2).all(|o| {
            (o[0]..o[1]).all(|s| targets.get(s).index() < n)
                && (o[0]..o[1].saturating_sub(1)).all(|s| targets.get(s) < targets.get(s + 1))
        }));
        let table = weight_values.len();
        debug_assert!(match &weight_ids {
            WeightIds::Narrow(ids) => {
                table <= NARROW_TABLE
                    && ids.len() == targets.len()
                    && ids.iter().all(|&id| usize::from(id) < table)
            }
            WeightIds::Wide(ids) => {
                table > NARROW_TABLE
                    && ids.len() == targets.len()
                    && ids.iter().all(|&id| (id as usize) < table)
            }
        });
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
        let id = match &self.weight_ids {
            WeightIds::Narrow(ids) => usize::from(ids[slot]),
            WeightIds::Wide(ids) => ids[slot] as usize,
        };
        self.weight_values[id]
    }

    fn row(&self, u: NodeId) -> (usize, usize) {
        let i = u.index();
        assert!(i < self.n, "node {u} out of range (n = {})", self.n);
        (self.offsets[i], self.offsets[i + 1])
    }
}

/// The one writer of a graph's weights: a constructor pushes each edge's
/// weight in CSR order, and the writer interns its bit pattern — each
/// distinct pattern gets the next id, in first-seen order — and appends
/// the id. Ids are 16-bit until the table gets its 65 537th weight; then
/// the ids written so far are copied once to 32 bits, into a block of the
/// same capacity, and every later id is written wide.
pub(crate) struct WeightWriter {
    table: HashMap<u64, u32, BuildHasherDefault<BitsHasher>>,
    values: Vec<f64>,
    ids: WeightIds,
}

impl WeightWriter {
    /// A writer with room for `m` ids.
    pub(crate) fn with_capacity(m: usize) -> Self {
        WeightWriter {
            table: HashMap::default(),
            values: Vec::new(),
            ids: WeightIds::Narrow(Vec::with_capacity(m)),
        }
    }

    /// Appends the id of `w`'s bit pattern, adding it to the table on
    /// first sight.
    ///
    /// # Panics
    /// Panics past `u32::MAX` distinct weights.
    #[inline]
    pub(crate) fn push(&mut self, w: f64) {
        let values = &mut self.values;
        let id = *self.table.entry(w.to_bits()).or_insert_with(|| {
            let id = u32::try_from(values.len()).expect("more than u32::MAX distinct weights");
            values.push(w);
            id
        });
        match (&mut self.ids, u16::try_from(id)) {
            (WeightIds::Narrow(ids), Ok(id)) => ids.push(id),
            (WeightIds::Wide(ids), _) => ids.push(id),
            (WeightIds::Narrow(narrow), Err(_)) => {
                let mut wide = Vec::with_capacity(narrow.capacity());
                wide.extend(narrow.iter().map(|&id| u32::from(id)));
                wide.push(id);
                self.ids = WeightIds::Wide(wide);
            }
        }
    }

    /// The ids, and the distinct weights they index.
    pub(crate) fn finish(self) -> (WeightIds, Vec<f64>) {
        (self.ids, self.values)
    }
}

/// Hashes a weight's bits for [`WeightWriter`]: one multiply, with the
/// high bits folded down first, since the dyadic weights (`1.0`, `0.5`,
/// integer counts) differ only there. SipHash's resistance to chosen
/// keys buys nothing for a graph's own weights and costs more than twice
/// as much time interning the served fit's entries (CHANGES.md, the one
/// weight table per graph).
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
        let mut targets = Targets::with_capacity(self.n, slots.len());
        let mut weights = WeightWriter::with_capacity(slots.len());
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
                weights.push(w);
                j = k;
            }
            offsets.push(targets.len());
        }

        let (weight_ids, weight_values) = weights.finish();
        DiGraph::from_sorted_rows(self.n, offsets, targets, weight_ids, weight_values)
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
            g.out_neighbors(NodeId(0)).collect::<Vec<_>>(),
            [NodeId(1), NodeId(2), NodeId(3), NodeId(4)]
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
        assert_eq!(g.out_neighbors(NodeId(2)).len(), 0);
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
                let row: Vec<NodeId> = g.out_neighbors(u).collect();
                assert!(
                    row.windows(2).all(|w| w[0] < w[1]),
                    "case {case}: row {u:?} unsorted"
                );
                for v in row {
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
                    let row: Vec<NodeId> = h.out_neighbors(u).collect();
                    assert!(
                        row.windows(2).all(|w| w[0] < w[1]),
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

    /// Every id indexes the table, the table repeats no bit pattern, it
    /// holds exactly the patterns the edges carry, and the ids are 16-bit
    /// iff it holds at most 65 536 of them.
    fn assert_one_table(g: &DiGraph, case: u64, what: &str) {
        let ids: Vec<usize> = match &g.weight_ids {
            WeightIds::Narrow(ids) => ids.iter().map(|&id| usize::from(id)).collect(),
            WeightIds::Wide(ids) => ids.iter().map(|&id| id as usize).collect(),
        };
        assert_eq!(
            matches!(g.weight_ids, WeightIds::Narrow(_)),
            g.distinct_weights() <= NARROW_TABLE,
            "case {case}: {what}: ids of the wrong width for {} distinct weights",
            g.distinct_weights()
        );
        assert!(
            ids.iter().all(|&id| id < g.weight_values.len()),
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

    /// `g` reads `want` bit for bit through every reader: `out_weights`
    /// (under `edges`), `weight` at each CSR slot, and `row_weights`.
    fn assert_reads(g: &DiGraph, want: &[(NodeId, NodeId, u64)], case: u64, what: &str) {
        assert_eq!(bits(g), want, "case {case}: {what}: out_weights");
        let slots: Vec<u64> = (0..g.edge_count()).map(|s| g.weight(s).to_bits()).collect();
        let want_w: Vec<u64> = want.iter().map(|&(_, _, w)| w).collect();
        assert_eq!(slots, want_w, "case {case}: {what}: weight");
        let rows: Vec<u64> = match g.row_weights() {
            WeightRows::Narrow(rows) => g
                .nodes()
                .flat_map(|u| rows.of(u))
                .map(f64::to_bits)
                .collect(),
            WeightRows::Wide(rows) => g
                .nodes()
                .flat_map(|u| rows.of(u))
                .map(f64::to_bits)
                .collect(),
        };
        assert_eq!(rows, want_w, "case {case}: {what}: row_weights");
        assert_targets(g, case, what);
    }

    /// The targets are 16-bit iff the graph has at most 65 536 nodes, and
    /// `row_targets` reads the rows `out_neighbors` reads.
    fn assert_targets(g: &DiGraph, case: u64, what: &str) {
        assert_eq!(
            matches!(g.targets, Targets::Narrow(_)),
            g.node_count() <= NARROW_NODES,
            "case {case}: {what}: targets of the wrong width for {} nodes",
            g.node_count()
        );
        let want: Vec<NodeId> = g.nodes().flat_map(|u| g.out_neighbors(u)).collect();
        let rows: Vec<NodeId> = match g.row_targets() {
            TargetRows::Narrow(rows) => g.nodes().flat_map(|u| rows.of(u)).collect(),
            TargetRows::Wide(rows) => g.nodes().flat_map(|u| rows.of(u)).collect(),
        };
        assert_eq!(rows, want, "case {case}: {what}: row_targets");
    }

    /// Interned graphs read back the plain `f64` CSR bit for bit: built
    /// from edges with repeats and self-loops, weights drawn from a
    /// palette with `+0.0` and `−0.0` or all distinct, then transposed and
    /// symmetrised; and the co-occurrence count, directed then
    /// symmetrised or symmetrised in one pass, against the plain
    /// symmetrisation of its directed edges. Then the width's boundary:
    /// a graph of exactly 65 536 distinct weights keeps 16-bit ids and one
    /// of 65 537 widens to 32-bit, each read the same way.
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
                assert_reads(&got, &want, case, what);
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
                assert_reads(&got, &want, case, what);
                assert_one_table(&got, case, what);
            }
        }
        assert!(signed_zeros > 0, "no graph carried both zeros");
        assert!(all_distinct > 0, "no graph had all-distinct weights");

        // One edge `u -> v`, `u < v`, per distinct weight over 400 nodes,
        // added last row first: no pair is two-way, so the symmetrised
        // graph carries the same weights and keeps the width.
        for (case, distinct) in [(256, NARROW_TABLE), (257, NARROW_TABLE + 1)] {
            let n = 400;
            let mut edges: Vec<(NodeId, NodeId, f64)> = (0..n)
                .flat_map(|u| (u + 1..n).map(move |v| (NodeId::new(u), NodeId::new(v))))
                .take(distinct)
                .enumerate()
                .map(|(i, (u, v))| (u, v, 1.0 + i as f64 / f64::from(1 << 20)))
                .collect();
            edges.reverse();
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
                // `assert_one_table` then checks the width.
                assert_eq!(got.distinct_weights(), distinct, "case {case}: {what}");
                assert_reads(&got, &want, case, what);
                assert_one_table(&got, case, what);
            }
        }
    }

    /// Graphs of 65 536 nodes, the most 16-bit targets hold, and of
    /// 65 537, the fewest that take 32-bit ones, read the plain `f64` CSR
    /// bit for bit through every constructor: the builder,
    /// `from_sorted_rows` over arrays written directly, `transpose`,
    /// `to_undirected`, and the co-occurrence count directed and in one
    /// symmetric pass. Every edge and every cascade touches the four
    /// highest ids, where a target cut to 16 bits would land on another
    /// node.
    #[test]
    fn target_widths_match_plain_csr_at_the_boundary() {
        for (case, n) in [(258, NARROW_NODES), (259, NARROW_NODES + 1)] {
            let mut rng = StdRng::seed_from_u64(case);
            let high = |rng: &mut StdRng| NodeId::new(n - 1 - rng.gen_range(0..4usize));
            let edges: Vec<(NodeId, NodeId, f64)> = (0..2_000)
                .map(|i| {
                    let (a, b) = (high(&mut rng), NodeId::new(rng.gen_range(0..n)));
                    let w = [0.25, 0.5, 1.0][rng.gen_range(0..3usize)];
                    if i % 2 == 0 {
                        (a, b, w)
                    } else {
                        (b, a, w)
                    }
                })
                .collect();
            let mut b = GraphBuilder::new(n);
            for &(u, v, w) in &edges {
                b.add_edge(u, v, w);
            }
            let g = b.build();
            let plain = PlainCsr::build(n, &edges);
            let direct = {
                let mut offsets = vec![0];
                let mut targets = Targets::with_capacity(n, g.edge_count());
                let mut weights = WeightWriter::with_capacity(g.edge_count());
                for row in &plain.0 {
                    for &(v, w) in row {
                        targets.push(v);
                        weights.push(w);
                    }
                    offsets.push(targets.len());
                }
                let (weight_ids, weight_values) = weights.finish();
                DiGraph::from_sorted_rows(n, offsets, targets, weight_ids, weight_values)
            };
            for (what, got, want) in [
                ("build", g.clone(), plain.bits()),
                ("from_sorted_rows", direct, plain.bits()),
                ("transpose", g.transpose(), plain.transpose().bits()),
                (
                    "to_undirected",
                    g.to_undirected(),
                    plain.to_undirected().bits(),
                ),
            ] {
                assert_reads(&got, &want, case, what);
                assert_one_table(&got, case, what);
            }

            // Distinct nodes per cascade: a rotation of two low and four
            // high ids, cut to a random length.
            let pool: Vec<NodeId> = [0, 1, n - 4, n - 3, n - 2, n - 1]
                .into_iter()
                .map(NodeId::new)
                .collect();
            let sequences: Vec<Vec<NodeId>> = (0..200)
                .map(|_| {
                    let at = rng.gen_range(0..pool.len());
                    let len = rng.gen_range(2..=pool.len());
                    pool.iter().cycle().skip(at).take(len).copied().collect()
                })
                .collect();
            let options = CooccurrenceOptions::default();
            let directed = CooccurrenceGraph::build(n, &sequences, options);
            assert_targets(directed.graph(), case, "count");
            let directed_edges: Vec<_> = directed.graph().edges().collect();
            let want = PlainCsr::build(n, &directed_edges).to_undirected().bits();
            assert!(want.len() > 20, "case {case}: {} entries", want.len());
            for (what, got) in [
                (
                    "build_undirected",
                    CooccurrenceGraph::build_undirected(n, &sequences, options),
                ),
                ("build().undirected()", directed.undirected()),
            ] {
                assert_reads(&got, &want, case, what);
                assert_one_table(&got, case, what);
            }
        }
    }
}
