//! The co-reporting backbone network of Figure 2.
//!
//! The paper links any two news sites that reported at least 50 events in
//! common over a year, then visualises the result; the regional clusters
//! (US / Australia / Europe) are plainly visible. Here we build the same
//! thresholded graph from `(node, event-set)` style input and expose the
//! quantities the figure conveys: component structure and how strongly
//! edges stay inside ground-truth groups.

use crate::digraph::{DiGraph, GraphBuilder};
use crate::node::NodeId;
use std::collections::HashMap;

/// A thresholded co-reporting graph.
#[derive(Clone, Debug)]
pub struct BackboneGraph {
    graph: DiGraph,
    threshold: usize,
}

impl BackboneGraph {
    /// Builds the backbone from event membership lists.
    ///
    /// `events[e]` lists the (distinct) nodes that reported event `e`.
    /// Two nodes are linked iff they co-report at least `threshold`
    /// events; the edge weight is the co-report count.
    pub fn build(n: usize, events: &[Vec<NodeId>], threshold: usize) -> Self {
        let mut pair_counts: HashMap<(NodeId, NodeId), usize> = HashMap::new();
        for members in events {
            for (i, &u) in members.iter().enumerate() {
                for &v in &members[i + 1..] {
                    let key = if u < v { (u, v) } else { (v, u) };
                    *pair_counts.entry(key).or_insert(0) += 1;
                }
            }
        }
        let mut b = GraphBuilder::new(n);
        for (&(u, v), &c) in &pair_counts {
            if c >= threshold && u != v {
                b.add_undirected_edge(u, v, c as f64);
            }
        }
        BackboneGraph {
            graph: b.build(),
            threshold,
        }
    }

    /// The underlying symmetric graph.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// The co-report threshold this backbone was built with.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Connected components over nodes with at least one backbone edge.
    /// Isolated nodes are reported in their own singleton components only
    /// if `include_isolated` is set.
    pub fn components(&self, include_isolated: bool) -> Vec<Vec<NodeId>> {
        let n = self.graph.node_count();
        let mut comp = vec![usize::MAX; n];
        let mut out: Vec<Vec<NodeId>> = Vec::new();
        let mut stack = Vec::new();
        for s in 0..n {
            if comp[s] != usize::MAX {
                continue;
            }
            let su = NodeId::new(s);
            if self.graph.out_degree(su) == 0 && !include_isolated {
                continue;
            }
            let id = out.len();
            out.push(Vec::new());
            comp[s] = id;
            stack.push(su);
            while let Some(u) = stack.pop() {
                out[id].push(u);
                for &v in self.graph.out_neighbors(u) {
                    if comp[v.index()] == usize::MAX {
                        comp[v.index()] = id;
                        stack.push(v);
                    }
                }
            }
            out[id].sort_unstable();
        }
        out.sort_by_key(|c| std::cmp::Reverse(c.len()));
        out
    }

    /// Fraction of backbone edges whose endpoints share a label under
    /// `labels` (e.g. ground-truth regions). This is the quantitative
    /// stand-in for "the clusters in Figure 2 are regional".
    pub fn label_assortativity(&self, labels: &[usize]) -> f64 {
        assert_eq!(labels.len(), self.graph.node_count());
        let mut intra = 0usize;
        let mut total = 0usize;
        for (u, v, _) in self.graph.edges() {
            if u < v {
                total += 1;
                if labels[u.index()] == labels[v.index()] {
                    intra += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            intra as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(xs: &[u32]) -> Vec<NodeId> {
        xs.iter().copied().map(NodeId).collect()
    }

    #[test]
    fn threshold_gates_edges() {
        // Nodes 0,1 co-report twice; 0,2 once.
        let events = vec![ids(&[0, 1, 2]), ids(&[0, 1])];
        let bb = BackboneGraph::build(3, &events, 2);
        assert!(bb.graph().has_edge(NodeId(0), NodeId(1)));
        assert!(!bb.graph().has_edge(NodeId(0), NodeId(2)));
        assert_eq!(bb.threshold(), 2);
    }

    #[test]
    fn edge_weight_is_coreport_count() {
        let events = vec![ids(&[0, 1]), ids(&[0, 1]), ids(&[0, 1])];
        let bb = BackboneGraph::build(2, &events, 1);
        assert_eq!(bb.graph().edge_weight(NodeId(0), NodeId(1)), Some(3.0));
    }

    #[test]
    fn graph_is_symmetric() {
        let events = vec![ids(&[0, 1, 2]), ids(&[1, 2, 3]), ids(&[0, 3])];
        let bb = BackboneGraph::build(4, &events, 1);
        for (u, v, w) in bb.graph().edges() {
            assert_eq!(bb.graph().edge_weight(v, u), Some(w));
        }
    }

    #[test]
    fn components_split_disconnected_regions() {
        // Region A: {0,1}, region B: {2,3}, never co-report across.
        let events = vec![ids(&[0, 1]), ids(&[0, 1]), ids(&[2, 3]), ids(&[2, 3])];
        let bb = BackboneGraph::build(5, &events, 2);
        let comps = bb.components(false);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].len(), 2);
        assert_eq!(comps[1].len(), 2);
    }

    #[test]
    fn isolated_nodes_optional() {
        let events = vec![ids(&[0, 1]), ids(&[0, 1])];
        let bb = BackboneGraph::build(3, &events, 1);
        assert_eq!(bb.components(false).len(), 1);
        assert_eq!(bb.components(true).len(), 2); // + singleton {2}
    }

    #[test]
    fn assortativity_of_regional_world() {
        // All edges intra-region.
        let events = vec![ids(&[0, 1]), ids(&[2, 3])];
        let bb = BackboneGraph::build(4, &events, 1);
        assert_eq!(bb.label_assortativity(&[0, 0, 1, 1]), 1.0);
        // Mixed edge drops the fraction.
        let events = vec![ids(&[0, 1]), ids(&[1, 2])];
        let bb = BackboneGraph::build(4, &events, 1);
        assert_eq!(bb.label_assortativity(&[0, 0, 1, 1]), 0.5);
    }

    #[test]
    fn empty_events_empty_backbone() {
        let bb = BackboneGraph::build(4, &[], 1);
        assert_eq!(bb.graph().edge_count(), 0);
        assert_eq!(bb.label_assortativity(&[0, 0, 0, 0]), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    /// 0–29 events, each a sorted set of 0–5 distinct nodes below 10.
    fn events(rng: &mut StdRng) -> Vec<Vec<NodeId>> {
        (0..rng.gen_range(0..30usize))
            .map(|_| {
                let size = rng.gen_range(0..6usize);
                let mut set = BTreeSet::new();
                while set.len() < size {
                    set.insert(rng.gen_range(0u32..10));
                }
                set.into_iter().map(NodeId).collect()
            })
            .collect()
    }

    /// Raising the threshold only removes edges.
    #[test]
    fn threshold_monotone() {
        for case in 0..64 {
            let mut rng = StdRng::seed_from_u64(case);
            let evs = events(&mut rng);
            let t = rng.gen_range(1usize..4);
            let lo = BackboneGraph::build(10, &evs, t);
            let hi = BackboneGraph::build(10, &evs, t + 1);
            for (u, v, _) in hi.graph().edges() {
                assert!(
                    lo.graph().has_edge(u, v),
                    "case {case}: edge {u:?}->{v:?} only at threshold {}",
                    t + 1
                );
            }
        }
    }

    /// Components partition the covered nodes.
    #[test]
    fn components_are_a_partition() {
        for case in 0..64 {
            let evs = events(&mut StdRng::seed_from_u64(case));
            let bb = BackboneGraph::build(10, &evs, 1);
            let comps = bb.components(true);
            let mut seen = [false; 10];
            for c in &comps {
                for &u in c {
                    assert!(!seen[u.index()], "case {case}: node in two components");
                    seen[u.index()] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "case {case}: node in no component");
        }
    }
}
