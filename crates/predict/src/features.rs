//! Early-adopter influence features — eqs. 17–19.
//!
//! Given the early adopters `i ∈ c` of a nascent cascade and their
//! influence vectors `A_i`:
//!
//! * `diverA = max_{i,j} ‖A_i − A_j‖` — influence *divergence*: "nodes
//!   who are influential in a certain topic may not necessarily be
//!   influential in another", so high divergence signals a cascade
//!   poised to spread across topics;
//! * `normA = ‖Σ_i A_i‖` — total influence mass of the early adopters;
//! * `maxA = max_k (Σ_i A_i)_k` — the strongest single-topic push.

use serde::{Deserialize, Serialize};
use viralcast_embed::Embeddings;
use viralcast_graph::NodeId;

/// The three early-adopter features of Section V.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CascadeFeatures {
    /// Maximum pairwise Euclidean distance between influence vectors.
    pub diver_a: f64,
    /// Euclidean norm of the summed influence vector.
    pub norm_a: f64,
    /// Largest component of the summed influence vector.
    pub max_a: f64,
}

impl CascadeFeatures {
    /// The features as a fixed-size array (SVM input order:
    /// `[diverA, normA, maxA]`).
    pub fn as_array(&self) -> [f64; 3] {
        [self.diver_a, self.norm_a, self.max_a]
    }
}

/// Extracts the features of a set of early adopters from inferred
/// embeddings. An empty adopter list yields all-zero features; a single
/// adopter has zero divergence.
///
/// ```
/// use viralcast_embed::Embeddings;
/// use viralcast_graph::NodeId;
/// use viralcast_predict::extract_features;
///
/// // Two nodes, two topics: A_0 = [3, 4], A_1 = [3, 4].
/// let emb = Embeddings::from_matrices(2, 2, vec![3.0, 4.0, 3.0, 4.0], vec![0.0; 4]);
/// let f = extract_features(&emb, &[NodeId(0), NodeId(1)]);
/// assert_eq!(f.diver_a, 0.0);          // identical vectors
/// assert_eq!(f.norm_a, 10.0);          // ‖(6, 8)‖
/// assert_eq!(f.max_a, 8.0);
/// ```
pub fn extract_features(embeddings: &Embeddings, adopters: &[NodeId]) -> CascadeFeatures {
    let k = embeddings.topic_count();
    let mut sum = vec![0.0; k];
    for &u in adopters {
        for (s, &x) in sum.iter_mut().zip(embeddings.influence(u)) {
            *s += x;
        }
    }
    let norm_a = sum.iter().map(|x| x * x).sum::<f64>().sqrt();
    let max_a = sum.iter().cloned().fold(0.0f64, f64::max);

    let mut diver_a = 0.0f64;
    for (idx, &i) in adopters.iter().enumerate() {
        let ai = embeddings.influence(i);
        for &j in &adopters[idx + 1..] {
            let aj = embeddings.influence(j);
            let d2: f64 = ai.iter().zip(aj).map(|(x, y)| (x - y) * (x - y)).sum();
            diver_a = diver_a.max(d2.sqrt());
        }
    }
    CascadeFeatures {
        diver_a,
        norm_a,
        max_a,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn embeddings() -> Embeddings {
        // 3 nodes, 2 topics. A rows: [1,0], [0,1], [3,4].
        Embeddings::from_matrices(3, 2, vec![1.0, 0.0, 0.0, 1.0, 3.0, 4.0], vec![0.0; 6])
    }

    #[test]
    fn empty_adopters_zero_features() {
        let f = extract_features(&embeddings(), &[]);
        assert_eq!(f.as_array(), [0.0, 0.0, 0.0]);
    }

    #[test]
    fn single_adopter_has_zero_divergence() {
        let f = extract_features(&embeddings(), &[NodeId(2)]);
        assert_eq!(f.diver_a, 0.0);
        assert!((f.norm_a - 5.0).abs() < 1e-12); // ‖(3,4)‖
        assert_eq!(f.max_a, 4.0);
    }

    #[test]
    fn pair_features_closed_form() {
        // Adopters 0 and 1: sum = (1,1), ‖·‖ = √2, max = 1,
        // diver = ‖(1,−1)‖ = √2.
        let f = extract_features(&embeddings(), &[NodeId(0), NodeId(1)]);
        assert!((f.norm_a - 2f64.sqrt()).abs() < 1e-12);
        assert_eq!(f.max_a, 1.0);
        assert!((f.diver_a - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn divergence_takes_the_max_pair() {
        // Pairs: (0,1) → √2 ≈ 1.41, (0,2) → ‖(−2,−4)‖ ≈ 4.47,
        // (1,2) → ‖(−3,−3)‖ ≈ 4.24.
        let f = extract_features(&embeddings(), &[NodeId(0), NodeId(1), NodeId(2)]);
        assert!((f.diver_a - 20f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn features_grow_with_more_adopters() {
        let e = embeddings();
        let one = extract_features(&e, &[NodeId(0)]);
        let three = extract_features(&e, &[NodeId(0), NodeId(1), NodeId(2)]);
        assert!(three.norm_a > one.norm_a);
        assert!(three.max_a >= one.max_a);
        assert!(three.diver_a >= one.diver_a);
    }

    #[test]
    fn order_of_adopters_is_irrelevant() {
        let e = embeddings();
        let fwd = extract_features(&e, &[NodeId(0), NodeId(1), NodeId(2)]);
        let rev = extract_features(&e, &[NodeId(2), NodeId(1), NodeId(0)]);
        assert_eq!(fwd, rev);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Feature laws: all non-negative; maxA ≤ normA (a component of a
    /// non-negative vector never exceeds its norm); diverA bounded by
    /// twice the largest row norm.
    #[test]
    fn feature_bounds() {
        for case in 0..48 {
            let mut rng = StdRng::seed_from_u64(case);
            let n = rng.gen_range(1usize..6);
            let a: Vec<f64> = (0..n * 3).map(|_| rng.gen_range(0.0f64..3.0)).collect();
            let max_row_norm = a
                .chunks(3)
                .map(|r| r.iter().map(|x| x * x).sum::<f64>().sqrt())
                .fold(0.0f64, f64::max);
            let e = Embeddings::from_matrices(n, 3, a, vec![0.0; n * 3]);
            let adopters: Vec<NodeId> = (0..n).map(NodeId::new).collect();
            let f = extract_features(&e, &adopters);
            assert!(
                f.diver_a >= 0.0 && f.norm_a >= 0.0 && f.max_a >= 0.0,
                "case {case}: negative feature in {f:?}"
            );
            assert!(f.max_a <= f.norm_a + 1e-12, "case {case}: {f:?}");
            assert!(
                f.diver_a <= 2.0 * max_row_norm + 1e-12,
                "case {case}: {f:?}, largest row norm {max_row_norm}"
            );
        }
    }
}
