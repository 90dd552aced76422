//! Structural graph metrics used to validate generated substrates.
//!
//! The experiments lean on specific structural facts — the SBM's mean
//! degree of ~10, the presence of dense intra-community blocks, the
//! regional components of the backbone — and these helpers turn those
//! facts into checkable numbers.

use crate::digraph::DiGraph;
use crate::node::NodeId;
use serde::{Deserialize, Serialize};

/// Summary statistics of a graph's degree sequence.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DegreeStats {
    /// Minimum out-degree.
    pub min: usize,
    /// Maximum out-degree.
    pub max: usize,
    /// Mean out-degree.
    pub mean: f64,
    /// Population variance of the out-degree.
    pub variance: f64,
}

/// Computes out-degree statistics.
pub fn degree_stats(g: &DiGraph) -> DegreeStats {
    let n = g.node_count();
    if n == 0 {
        return DegreeStats {
            min: 0,
            max: 0,
            mean: 0.0,
            variance: 0.0,
        };
    }
    let degs: Vec<usize> = g.nodes().map(|u| g.out_degree(u)).collect();
    let min = *degs.iter().min().unwrap();
    let max = *degs.iter().max().unwrap();
    let mean = degs.iter().sum::<usize>() as f64 / n as f64;
    let variance = degs.iter().map(|&d| (d as f64 - mean).powi(2)).sum::<f64>() / n as f64;
    DegreeStats {
        min,
        max,
        mean,
        variance,
    }
}

/// Edge density of a directed graph: `m / (n (n − 1))`.
pub fn density(g: &DiGraph) -> f64 {
    let n = g.node_count();
    if n < 2 {
        return 0.0;
    }
    g.edge_count() as f64 / (n as f64 * (n as f64 - 1.0))
}

/// Connected components of the *undirected view* of `g`, largest first.
pub fn connected_components(g: &DiGraph) -> Vec<Vec<NodeId>> {
    let und = g.to_undirected();
    let n = und.node_count();
    let mut comp = vec![usize::MAX; n];
    let mut out: Vec<Vec<NodeId>> = Vec::new();
    let mut stack = Vec::new();
    for s in 0..n {
        if comp[s] != usize::MAX {
            continue;
        }
        let id = out.len();
        out.push(Vec::new());
        comp[s] = id;
        stack.push(NodeId::new(s));
        while let Some(u) = stack.pop() {
            out[id].push(u);
            for &v in und.out_neighbors(u) {
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

/// Global clustering coefficient (transitivity) of the undirected view:
/// `3 × #triangles / #connected-triples`.
pub fn global_clustering_coefficient(g: &DiGraph) -> f64 {
    let und = g.to_undirected();
    let mut triangles = 0usize;
    let mut triples = 0usize;
    for u in und.nodes() {
        let nu = und.out_neighbors(u);
        let d = nu.len();
        triples += d * d.saturating_sub(1) / 2;
        // Count edges among neighbours via sorted-slice intersection.
        for (i, &v) in nu.iter().enumerate() {
            if v <= u {
                continue;
            }
            let nv = und.out_neighbors(v);
            for &w in &nu[i + 1..] {
                if w > v && nv.binary_search(&w).is_ok() {
                    triangles += 1;
                }
            }
        }
    }
    if triples == 0 {
        0.0
    } else {
        3.0 * triangles as f64 / triples as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::GraphBuilder;

    fn triangle_plus_tail() -> DiGraph {
        // Triangle 0-1-2 with a tail 2-3 (undirected).
        let mut b = GraphBuilder::new(4);
        b.add_undirected_edge(NodeId(0), NodeId(1), 1.0);
        b.add_undirected_edge(NodeId(1), NodeId(2), 1.0);
        b.add_undirected_edge(NodeId(0), NodeId(2), 1.0);
        b.add_undirected_edge(NodeId(2), NodeId(3), 1.0);
        b.build()
    }

    #[test]
    fn degree_stats_on_known_graph() {
        let g = triangle_plus_tail();
        let s = degree_stats(&g);
        assert_eq!(s.min, 1); // node 3
        assert_eq!(s.max, 3); // node 2
        assert!((s.mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn density_of_complete_digraph() {
        let mut b = GraphBuilder::new(3);
        for u in 0..3u32 {
            for v in 0..3u32 {
                if u != v {
                    b.add_edge(NodeId(u), NodeId(v), 1.0);
                }
            }
        }
        assert!((density(&b.build()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn components_of_two_islands() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(NodeId(0), NodeId(1), 1.0); // directed suffices
        b.add_edge(NodeId(2), NodeId(3), 1.0);
        let comps = connected_components(&b.build());
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0].len(), 2);
        assert_eq!(comps[2], vec![NodeId(4)]);
    }

    #[test]
    fn clustering_of_triangle_is_one() {
        let mut b = GraphBuilder::new(3);
        b.add_undirected_edge(NodeId(0), NodeId(1), 1.0);
        b.add_undirected_edge(NodeId(1), NodeId(2), 1.0);
        b.add_undirected_edge(NodeId(0), NodeId(2), 1.0);
        assert!((global_clustering_coefficient(&b.build()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clustering_of_star_is_zero() {
        let mut b = GraphBuilder::new(4);
        for v in 1..4u32 {
            b.add_undirected_edge(NodeId(0), NodeId(v), 1.0);
        }
        assert_eq!(global_clustering_coefficient(&b.build()), 0.0);
    }

    #[test]
    fn clustering_triangle_plus_tail() {
        // Triangle+tail: 1 triangle, triples = C(2,2)+C(2,2)+C(3,2)+0 = 1+1+3 = 5.
        let g = triangle_plus_tail();
        let cc = global_clustering_coefficient(&g);
        assert!((cc - 3.0 / 5.0).abs() < 1e-12, "got {cc}");
    }

    #[test]
    fn empty_graph_metrics() {
        let g = DiGraph::empty(0);
        let s = degree_stats(&g);
        assert_eq!(s.mean, 0.0);
        assert_eq!(density(&g), 0.0);
        assert!(connected_components(&g).is_empty());
        assert_eq!(global_clustering_coefficient(&g), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::digraph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Fewer than `max_len` endpoint pairs over `nodes` nodes.
    fn edges(rng: &mut StdRng, nodes: u32, max_len: usize) -> Vec<(u32, u32)> {
        (0..rng.gen_range(0..max_len))
            .map(|_| (rng.gen_range(0..nodes), rng.gen_range(0..nodes)))
            .collect()
    }

    /// Components always partition the node set.
    #[test]
    fn components_partition() {
        for case in 0..48 {
            let edges = edges(&mut StdRng::seed_from_u64(case), 10, 40);
            let mut b = GraphBuilder::new(10);
            for &(u, v) in &edges {
                b.add_edge(NodeId(u), NodeId(v), 1.0);
            }
            let comps = connected_components(&b.build());
            let total: usize = comps.iter().map(|c| c.len()).sum();
            assert_eq!(total, 10, "case {case}");
        }
    }

    /// Clustering coefficient stays within [0, 1].
    #[test]
    fn clustering_bounded() {
        for case in 0..48 {
            let edges = edges(&mut StdRng::seed_from_u64(case), 8, 30);
            let mut b = GraphBuilder::new(8);
            for &(u, v) in &edges {
                if u != v {
                    b.add_undirected_edge(NodeId(u), NodeId(v), 1.0);
                }
            }
            let cc = global_clustering_coefficient(&b.build());
            assert!((0.0..=1.0 + 1e-12).contains(&cc), "case {case}: {cc}");
        }
    }
}
