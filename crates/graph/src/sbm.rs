//! Stochastic Block Model graph generation (Holland, Laskey & Leinhardt,
//! 1983), the synthetic substrate of the paper's Section VI-A.
//!
//! The paper's configuration: 2 000 nodes, ~40 nodes per community,
//! intra-community edge probability `α = 0.2`, inter-community probability
//! `β = 0.001`, giving an average degree of roughly 10.
//!
//! Edges are sampled with geometric skipping (a.k.a. the "ball-dropping /
//! leap-frog" trick): instead of flipping a Bernoulli coin for every one of
//! the `O(n²)` candidate pairs, we jump directly to the next success with a
//! `Geometric(p)` stride. This makes generation `O(m)` for sparse blocks,
//! which matters once the node sweep of Figure 11 scales the graph up.

use crate::digraph::{DiGraph, GraphBuilder};
use crate::node::NodeId;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of a planted-partition SBM.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SbmConfig {
    /// Total number of nodes.
    pub nodes: usize,
    /// Target community size (the final community absorbs any remainder).
    pub community_size: usize,
    /// Intra-community edge probability (`α` in the paper; 0.2).
    pub intra_prob: f64,
    /// Inter-community edge probability (`β` in the paper; 0.001).
    pub inter_prob: f64,
}

impl SbmConfig {
    /// The configuration used throughout the paper's SBM experiments.
    pub fn paper_default() -> Self {
        SbmConfig {
            nodes: 2_000,
            community_size: 40,
            intra_prob: 0.2,
            inter_prob: 0.001,
        }
    }

    /// Same community structure and densities, different node count
    /// (the Figure 11 sweep uses N = 1 000, 2 000, 4 000).
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Community membership implied by this configuration: node `i` belongs
    /// to community `i / community_size` (the last community may be larger
    /// or smaller than the rest by the division remainder).
    pub fn ground_truth(&self) -> Vec<usize> {
        (0..self.nodes).map(|i| i / self.community_size).collect()
    }

    /// Number of planted communities.
    pub fn community_count(&self) -> usize {
        self.nodes.div_ceil(self.community_size)
    }

    /// Expected mean degree of the undirected graph.
    pub fn expected_mean_degree(&self) -> f64 {
        let c = self.community_size as f64;
        let n = self.nodes as f64;
        (c - 1.0) * self.intra_prob + (n - c) * self.inter_prob
    }

    fn validate(&self) {
        assert!(self.nodes > 0, "SBM needs at least one node");
        assert!(self.community_size > 0, "community size must be positive");
        assert!(
            (0.0..=1.0).contains(&self.intra_prob) && (0.0..=1.0).contains(&self.inter_prob),
            "edge probabilities must lie in [0, 1]"
        );
    }
}

/// Generates an undirected SBM graph (stored with both edge directions,
/// unit weights).
pub fn generate<R: Rng>(config: &SbmConfig, rng: &mut R) -> DiGraph {
    config.validate();
    let n = config.nodes;
    let membership = config.ground_truth();
    let expected_edges = (config.expected_mean_degree() * n as f64 / 2.0) as usize;
    let mut b = GraphBuilder::with_capacity(n, expected_edges * 2 + 16);

    // Enumerate unordered pairs (i, j), i < j, in row-major order of a
    // virtual upper-triangular matrix, skipping by Geometric(p) strides.
    // Rows with the same probability regime are handled per (i, block).
    #[allow(clippy::needless_range_loop)] // i indexes two parallel structures
    for i in 0..n {
        let ci = membership[i];
        // Intra-community stretch: j in (i, end_of_community)
        let intra_end = ((ci + 1) * config.community_size).min(n);
        sample_range(&mut b, rng, i, i + 1, intra_end, config.intra_prob);
        // Inter-community stretch: j in [end_of_community, n)
        sample_range(&mut b, rng, i, intra_end, n, config.inter_prob);
    }
    b.build()
}

/// Adds undirected edges from `i` to a uniform-probability index range
/// `[lo, hi)` using geometric jumps.
fn sample_range<R: Rng>(b: &mut GraphBuilder, rng: &mut R, i: usize, lo: usize, hi: usize, p: f64) {
    if p <= 0.0 || lo >= hi {
        return;
    }
    if p >= 1.0 {
        for j in lo..hi {
            b.add_undirected_edge(NodeId::new(i), NodeId::new(j), 1.0);
        }
        return;
    }
    let log1mp = (1.0 - p).ln();
    let mut j = lo as f64 - 1.0;
    loop {
        // Skip to the next success: floor(ln(U)/ln(1-p)) failures first.
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        j += 1.0 + (u.ln() / log1mp).floor();
        if j >= hi as f64 {
            break;
        }
        b.add_undirected_edge(NodeId::new(i), NodeId::new(j as usize), 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_default_matches_section_vi() {
        let c = SbmConfig::paper_default();
        assert_eq!(c.nodes, 2_000);
        assert_eq!(c.community_count(), 50);
        // "The average degree of nodes is approximately 10."
        let d = c.expected_mean_degree();
        assert!((9.0..11.0).contains(&d), "expected ~10, got {d}");
    }

    #[test]
    fn ground_truth_blocks_are_contiguous() {
        let c = SbmConfig {
            nodes: 10,
            community_size: 4,
            intra_prob: 1.0,
            inter_prob: 0.0,
        };
        assert_eq!(c.ground_truth(), vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2]);
        assert_eq!(c.community_count(), 3);
    }

    #[test]
    fn dense_intra_zero_inter_yields_disjoint_cliques() {
        let c = SbmConfig {
            nodes: 12,
            community_size: 4,
            intra_prob: 1.0,
            inter_prob: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let g = generate(&c, &mut rng);
        let gt = c.ground_truth();
        for u in 0..12 {
            for v in 0..12 {
                if u == v {
                    continue;
                }
                let linked = g.has_edge(NodeId::new(u), NodeId::new(v));
                assert_eq!(linked, gt[u] == gt[v], "pair ({u}, {v})");
            }
        }
    }

    #[test]
    fn generated_graph_is_symmetric() {
        let c = SbmConfig {
            nodes: 200,
            community_size: 20,
            intra_prob: 0.3,
            inter_prob: 0.01,
        };
        let mut rng = StdRng::seed_from_u64(7);
        let g = generate(&c, &mut rng);
        for (u, v, _) in g.edges() {
            assert!(g.has_edge(v, u), "missing reverse of ({u}, {v})");
        }
    }

    #[test]
    fn mean_degree_close_to_expectation() {
        let c = SbmConfig::paper_default();
        let mut rng = StdRng::seed_from_u64(42);
        let g = generate(&c, &mut rng);
        let mean = g.edge_count() as f64 / g.node_count() as f64;
        let expect = c.expected_mean_degree();
        assert!(
            (mean - expect).abs() / expect < 0.1,
            "mean degree {mean} vs expected {expect}"
        );
    }

    #[test]
    fn no_self_loops() {
        let c = SbmConfig {
            nodes: 300,
            community_size: 30,
            intra_prob: 0.5,
            inter_prob: 0.02,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let g = generate(&c, &mut rng);
        assert!(g.edges().all(|(u, v, _)| u != v));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let c = SbmConfig::paper_default().with_nodes(500);
        let g1 = generate(&c, &mut StdRng::seed_from_u64(9));
        let g2 = generate(&c, &mut StdRng::seed_from_u64(9));
        let e1: Vec<_> = g1.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn with_nodes_changes_only_node_count() {
        let c = SbmConfig::paper_default().with_nodes(4_000);
        assert_eq!(c.nodes, 4_000);
        assert_eq!(c.community_size, 40);
        assert_eq!(c.community_count(), 100);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Every edge is either intra- or inter-community; with β = 0 all
    /// edges must be intra-community.
    #[test]
    fn zero_inter_prob_means_no_cross_edges() {
        for case in 0..32 {
            let mut rng = StdRng::seed_from_u64(case);
            let c = SbmConfig {
                nodes: rng.gen_range(20usize..120),
                community_size: rng.gen_range(5usize..20),
                intra_prob: 0.4,
                inter_prob: 0.0,
            };
            let g = generate(&c, &mut rng);
            let gt = c.ground_truth();
            for (u, v, _) in g.edges() {
                assert_eq!(
                    gt[u.index()],
                    gt[v.index()],
                    "case {case}: cross edge {u:?}->{v:?}"
                );
            }
        }
    }

    /// Degree counts are symmetric because the graph stores both
    /// directions of each undirected edge.
    #[test]
    fn in_degree_equals_out_degree() {
        for case in 0..32 {
            let c = SbmConfig {
                nodes: 80,
                community_size: 10,
                intra_prob: 0.3,
                inter_prob: 0.02,
            };
            let g = generate(&c, &mut StdRng::seed_from_u64(case));
            let t = g.transpose();
            for u in g.nodes() {
                assert_eq!(g.out_degree(u), t.out_degree(u), "case {case}: {u:?}");
            }
        }
    }
}
