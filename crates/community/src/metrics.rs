//! Partition quality measures: modularity and normalised mutual
//! information.
//!
//! The paper relies on SLPA finding the planted structure but never
//! quantifies it; these metrics back the claim in our tests and in the
//! community bench — NMI against SBM ground truth, weighted modularity
//! on co-occurrence graphs.

use crate::partition::Partition;
use viralcast_graph::{DiGraph, NodeId};

/// Newman's modularity `Q` of a partition on the undirected view of a
/// weighted graph:
/// `Q = Σ_c (w_in(c)/W − (deg(c)/2W)²)` with `W` the total undirected
/// edge weight.
pub fn modularity(graph: &DiGraph, partition: &Partition) -> f64 {
    assert_eq!(graph.node_count(), partition.node_count());
    let und = graph.to_undirected();
    // In the symmetric representation every undirected edge appears
    // twice, so the directed total is 2W.
    let two_w = und.total_weight();
    if two_w == 0.0 {
        return 0.0;
    }
    let k = partition.community_count();
    let mut w_in = vec![0.0; k]; // 2 × internal weight
    let mut deg = vec![0.0; k]; // weighted degree sum
    for u in und.nodes() {
        let cu = partition.community_of(u);
        for (v, w) in und.out_edges(u) {
            deg[cu] += w;
            if partition.community_of(v) == cu {
                w_in[cu] += w;
            }
        }
    }
    (0..k)
        .map(|c| w_in[c] / two_w - (deg[c] / two_w).powi(2))
        .sum()
}

/// Normalised mutual information between two partitions of the same node
/// set, in `[0, 1]`; 1 means identical up to label permutation. Uses the
/// arithmetic-mean normalisation `2 I(X;Y) / (H(X) + H(Y))`, and defines
/// NMI of two trivial (zero-entropy) partitions as 1.
pub fn nmi(a: &Partition, b: &Partition) -> f64 {
    assert_eq!(a.node_count(), b.node_count());
    let n = a.node_count();
    if n == 0 {
        return 1.0;
    }
    let (ka, kb) = (a.community_count(), b.community_count());
    let mut joint = vec![0usize; ka * kb];
    for i in 0..n {
        let u = NodeId::new(i);
        joint[a.community_of(u) * kb + b.community_of(u)] += 1;
    }
    let pa = a.sizes();
    let pb = b.sizes();
    let nf = n as f64;
    let mut mi = 0.0;
    for i in 0..ka {
        for j in 0..kb {
            let nij = joint[i * kb + j];
            if nij == 0 {
                continue;
            }
            let pij = nij as f64 / nf;
            mi += pij * (pij / ((pa[i] as f64 / nf) * (pb[j] as f64 / nf))).ln();
        }
    }
    let entropy = |sizes: &[usize]| -> f64 {
        sizes
            .iter()
            .filter(|&&s| s > 0)
            .map(|&s| {
                let p = s as f64 / nf;
                -p * p.ln()
            })
            .sum()
    };
    let (ha, hb) = (entropy(&pa), entropy(&pb));
    if ha + hb == 0.0 {
        1.0 // both trivial partitions — identical structure
    } else {
        (2.0 * mi / (ha + hb)).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viralcast_graph::GraphBuilder;

    fn two_cliques() -> DiGraph {
        let mut b = GraphBuilder::new(6);
        for base in [0u32, 3] {
            for i in 0..3 {
                for j in (i + 1)..3 {
                    b.add_undirected_edge(NodeId(base + i), NodeId(base + j), 1.0);
                }
            }
        }
        b.add_undirected_edge(NodeId(2), NodeId(3), 1.0);
        b.build()
    }

    #[test]
    fn modularity_rewards_true_communities() {
        let g = two_cliques();
        let good = Partition::from_membership(&[0, 0, 0, 1, 1, 1]);
        let bad = Partition::from_membership(&[0, 1, 0, 1, 0, 1]);
        let whole = Partition::whole(6);
        assert!(modularity(&g, &good) > modularity(&g, &bad));
        assert!(modularity(&g, &good) > modularity(&g, &whole));
    }

    #[test]
    fn modularity_of_whole_partition_is_zero() {
        let g = two_cliques();
        let q = modularity(&g, &Partition::whole(6));
        assert!(q.abs() < 1e-12, "got {q}");
    }

    #[test]
    fn modularity_empty_graph_is_zero() {
        let g = DiGraph::empty(4);
        assert_eq!(modularity(&g, &Partition::singletons(4)), 0.0);
    }

    #[test]
    fn nmi_identical_partitions_is_one() {
        let p = Partition::from_membership(&[0, 0, 1, 1, 2]);
        assert!((nmi(&p, &p) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nmi_invariant_to_label_permutation() {
        let a = Partition::from_membership(&[0, 0, 1, 1]);
        let b = Partition::from_membership(&[1, 1, 0, 0]);
        assert!((nmi(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nmi_independent_partitions_is_low() {
        // Orthogonal partitioning of a 4-element set.
        let a = Partition::from_membership(&[0, 0, 1, 1]);
        let b = Partition::from_membership(&[0, 1, 0, 1]);
        assert!(nmi(&a, &b) < 0.01);
    }

    #[test]
    fn nmi_trivial_vs_trivial() {
        let a = Partition::whole(5);
        let b = Partition::whole(5);
        assert_eq!(nmi(&a, &b), 1.0);
    }

    #[test]
    fn nmi_partial_agreement_in_between() {
        let a = Partition::from_membership(&[0, 0, 0, 1, 1, 1]);
        let b = Partition::from_membership(&[0, 0, 1, 1, 1, 1]);
        let v = nmi(&a, &b);
        assert!(v > 0.2 && v < 1.0, "got {v}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use viralcast_graph::GraphBuilder;

    /// NMI is symmetric and bounded.
    #[test]
    fn nmi_symmetric_bounded() {
        for case in 0..48 {
            let mut rng = StdRng::seed_from_u64(case);
            let ra: Vec<usize> = (0..rng.gen_range(1..40usize))
                .map(|_| rng.gen_range(0usize..5))
                .collect();
            // Derive b from a by regrouping to keep lengths equal.
            let rb: Vec<usize> = ra.iter().map(|&x| x / 2).collect();
            let a = Partition::from_membership(&ra);
            let b = Partition::from_membership(&rb);
            let ab = nmi(&a, &b);
            let ba = nmi(&b, &a);
            assert!((ab - ba).abs() < 1e-9, "case {case}: {ab} vs {ba}");
            assert!((0.0..=1.0).contains(&ab), "case {case}: {ab}");
        }
    }

    /// Modularity is bounded above by 1.
    #[test]
    fn modularity_bounded() {
        for case in 0..48 {
            let mut rng = StdRng::seed_from_u64(case);
            let mut b = GraphBuilder::new(8);
            for _ in 0..rng.gen_range(1..30usize) {
                let (u, v) = (rng.gen_range(0u32..8), rng.gen_range(0u32..8));
                let w = rng.gen_range(0.1f64..3.0);
                if u != v {
                    b.add_undirected_edge(NodeId(u), NodeId(v), w);
                }
            }
            let g = b.build();
            let raw: Vec<usize> = (0..8).map(|_| rng.gen_range(0usize..4)).collect();
            let q = modularity(&g, &Partition::from_membership(&raw));
            assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&q), "case {case}: {q}");
        }
    }
}
