//! Partition quality: normalised mutual information.
//!
//! The paper relies on SLPA finding the planted structure but never
//! quantifies it; NMI against SBM ground truth backs the claim in our
//! tests.

use crate::partition::Partition;
use viralcast_graph::NodeId;

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

    #[test]
    fn nmi_identical_partitions_is_one() {
        let p = Partition::from_labels(&[0, 0, 1, 1, 2]);
        assert!((nmi(&p, &p) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nmi_invariant_to_label_permutation() {
        let a = Partition::from_labels(&[0, 0, 1, 1]);
        let b = Partition::from_labels(&[1, 1, 0, 0]);
        assert!((nmi(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nmi_independent_partitions_is_low() {
        // Orthogonal partitioning of a 4-element set.
        let a = Partition::from_labels(&[0, 0, 1, 1]);
        let b = Partition::from_labels(&[0, 1, 0, 1]);
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
        let a = Partition::from_labels(&[0, 0, 0, 1, 1, 1]);
        let b = Partition::from_labels(&[0, 0, 1, 1, 1, 1]);
        let v = nmi(&a, &b);
        assert!(v > 0.2 && v < 1.0, "got {v}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
            let a = Partition::from_labels(&ra);
            let b = Partition::from_labels(&rb);
            let ab = nmi(&a, &b);
            let ba = nmi(&b, &a);
            assert!((ab - ba).abs() < 1e-9, "case {case}: {ab} vs {ba}");
            assert!((0.0..=1.0).contains(&ab), "case {case}: {ab}");
        }
    }
}
