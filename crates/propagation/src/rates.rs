//! Link-rate providers for the simulator.
//!
//! The simulator only needs one number per directed link: the exponential
//! rate `λ_{uv}`. Two providers cover the experiments:
//!
//! * [`EdgeWeightRates`] — rates proportional to graph edge weights, for
//!   driving propagation on an arbitrary weighted topology;
//! * [`Embeddings`] — rates `⟨A_u, B_v⟩`; [`planted_embeddings`] plants
//!   a ground truth in the exact parametric family the inference
//!   algorithm later recovers. This gives the synthetic experiments a
//!   well-specified target and lets tests compare truth and fit
//!   directly.

use crate::embedding::{dot, Embeddings};
use rand::Rng;
use viralcast_graph::NodeId;

/// Supplies the exponential rate of each directed link.
pub trait RateProvider: Sync {
    /// The rate `λ_{uv} ≥ 0`; zero means the link never transmits.
    fn rate(&self, u: NodeId, v: NodeId) -> f64;
}

/// Rates read straight off graph edge weights, scaled by a constant.
#[derive(Clone, Debug)]
pub struct EdgeWeightRates<'g> {
    graph: &'g viralcast_graph::DiGraph,
    scale: f64,
}

impl<'g> EdgeWeightRates<'g> {
    /// Wraps a graph; the rate of `u → v` is `scale × weight(u, v)`.
    pub fn new(graph: &'g viralcast_graph::DiGraph, scale: f64) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        EdgeWeightRates { graph, scale }
    }
}

impl RateProvider for EdgeWeightRates<'_> {
    #[inline]
    fn rate(&self, u: NodeId, v: NodeId) -> f64 {
        self.graph.edge_weight(u, v).unwrap_or(0.0) * self.scale
    }
}

/// The link rate is the inner product `⟨A_u, B_v⟩` (paper eq. 6).
impl RateProvider for Embeddings {
    #[inline]
    fn rate(&self, u: NodeId, v: NodeId) -> f64 {
        dot(self.influence(u), self.selectivity(v))
    }
}

/// Panics unless every entry of `truth` is non-negative and finite, so
/// every rate the simulator draws a delay from is a valid exponential
/// rate. A generator checks its planted truth with this once it is final.
pub fn assert_valid_rates(truth: &Embeddings) {
    assert!(
        truth
            .influence_matrix()
            .iter()
            .chain(truth.selectivity_matrix())
            .all(|&x| x >= 0.0 && x.is_finite()),
        "embeddings must be non-negative and finite"
    );
}

/// Configuration of planted ground-truth embeddings.
#[derive(Clone, Copy, Debug)]
pub struct PlantedConfig {
    /// Mean on-topic component (a node is "on topic" for its own
    /// community's topic).
    pub on_topic: f64,
    /// Mean off-topic component.
    pub off_topic: f64,
    /// Multiplicative jitter half-width: components are drawn uniformly
    /// from `mean × [1 − jitter, 1 + jitter]`.
    pub jitter: f64,
}

impl Default for PlantedConfig {
    fn default() -> Self {
        PlantedConfig {
            on_topic: 1.0,
            off_topic: 0.05,
            jitter: 0.3,
        }
    }
}

impl PlantedConfig {
    /// The local regime: strong on-topic and weak cross-topic rates, so
    /// "most cascades occur in local communities" — the premise of
    /// Algorithms 1–2, and the world of the timing figures (10, 11, 13),
    /// the rate-recovery tests and the served models.
    pub fn local() -> Self {
        PlantedConfig {
            on_topic: 1.2,
            off_topic: 0.02,
            jitter: 0.3,
        }
    }
}

/// Generates planted embeddings with one topic per community: node `u` in
/// community `c` has an elevated `A_{u,c}` and `B_{u,c}` and small values
/// elsewhere, so intra-community links are fast (`≈ on_topic²`) and
/// inter-community links slow — the regime the paper's locality analysis
/// (Section II) describes.
pub fn planted_embeddings<R: Rng>(
    membership: &[usize],
    config: &PlantedConfig,
    rng: &mut R,
) -> Embeddings {
    assert!(
        config.on_topic > 0.0 && config.off_topic >= 0.0 && (0.0..1.0).contains(&config.jitter),
        "invalid planted configuration"
    );
    let n = membership.len();
    let k = membership.iter().copied().max().map_or(0, |m| m + 1);
    let mut a = vec![0.0; n * k];
    let mut b = vec![0.0; n * k];
    let draw = |mean: f64, rng: &mut R| -> f64 {
        if mean == 0.0 {
            0.0
        } else {
            mean * rng.gen_range(1.0 - config.jitter..=1.0 + config.jitter)
        }
    };
    for (u, &c) in membership.iter().enumerate() {
        for t in 0..k {
            let mean = if t == c {
                config.on_topic
            } else {
                config.off_topic
            };
            a[u * k + t] = draw(mean, rng);
            b[u * k + t] = draw(mean, rng);
        }
    }
    let truth = Embeddings::from_matrices(n, k, a, b);
    assert_valid_rates(&truth);
    truth
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use viralcast_graph::GraphBuilder;

    #[test]
    fn edge_weight_rates_scale() {
        let mut gb = GraphBuilder::new(2);
        gb.add_edge(NodeId(0), NodeId(1), 0.5);
        let g = gb.build();
        let r = EdgeWeightRates::new(&g, 4.0);
        assert_eq!(r.rate(NodeId(0), NodeId(1)), 2.0);
        assert_eq!(r.rate(NodeId(1), NodeId(0)), 0.0);
    }

    #[test]
    fn embedding_rate_is_inner_product() {
        let a = vec![1.0, 2.0, /* node 1 */ 0.0, 1.0];
        let b = vec![3.0, 1.0, /* node 1 */ 2.0, 2.0];
        let e = Embeddings::from_matrices(2, 2, a, b);
        // rate(0 -> 1) = A_0 · B_1 = 1*2 + 2*2 = 6
        assert_eq!(RateProvider::rate(&e, NodeId(0), NodeId(1)), 6.0);
        // rate(1 -> 0) = A_1 · B_0 = 0*3 + 1*1 = 1
        assert_eq!(RateProvider::rate(&e, NodeId(1), NodeId(0)), 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_embeddings_rejected() {
        assert_valid_rates(&Embeddings::from_matrices(1, 1, vec![-1.0], vec![1.0]));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_embeddings_rejected() {
        assert_valid_rates(&Embeddings::from_matrices(1, 1, vec![1.0], vec![f64::NAN]));
    }

    #[test]
    fn planted_intra_rates_dominate_inter() {
        let membership = vec![0, 0, 0, 1, 1, 1];
        let cfg = PlantedConfig {
            on_topic: 1.0,
            off_topic: 0.02,
            jitter: 0.3,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let e = planted_embeddings(&membership, &cfg, &mut rng);
        let intra = e.rate(NodeId(0), NodeId(1));
        let inter = e.rate(NodeId(0), NodeId(3));
        assert!(
            intra > 10.0 * inter,
            "intra {intra} should dwarf inter {inter}"
        );
    }

    #[test]
    fn planted_shapes() {
        let membership = vec![0, 1, 2, 1];
        let mut rng = StdRng::seed_from_u64(1);
        let e = planted_embeddings(&membership, &PlantedConfig::default(), &mut rng);
        assert_eq!(e.influence_matrix().len(), 4 * 3);
        assert_eq!(e.topic_count(), 3);
        assert_eq!(e.influence(NodeId(2)).len(), 3);
    }

    #[test]
    fn planted_deterministic_per_seed() {
        let membership = vec![0, 0, 1, 1];
        let e1 = planted_embeddings(
            &membership,
            &PlantedConfig::default(),
            &mut StdRng::seed_from_u64(9),
        );
        let e2 = planted_embeddings(
            &membership,
            &PlantedConfig::default(),
            &mut StdRng::seed_from_u64(9),
        );
        assert_eq!(e1.rate(NodeId(0), NodeId(1)), e2.rate(NodeId(0), NodeId(1)));
    }

    #[test]
    fn zero_off_topic_blocks_cross_community_rates() {
        let membership = vec![0, 0, 1, 1];
        let cfg = PlantedConfig {
            on_topic: 1.0,
            off_topic: 0.0,
            jitter: 0.1,
        };
        let mut rng = StdRng::seed_from_u64(4);
        let e = planted_embeddings(&membership, &cfg, &mut rng);
        assert_eq!(e.rate(NodeId(0), NodeId(2)), 0.0);
        assert!(e.rate(NodeId(0), NodeId(1)) > 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Planted rates are always non-negative and finite.
    #[test]
    fn planted_rates_valid() {
        for case in 0..48 {
            let mut rng = StdRng::seed_from_u64(case);
            let communities = rng.gen_range(1usize..5);
            let per = rng.gen_range(1usize..6);
            let membership: Vec<usize> = (0..communities * per).map(|i| i / per).collect();
            let e = planted_embeddings(&membership, &PlantedConfig::default(), &mut rng);
            for u in 0..membership.len() {
                for v in 0..membership.len() {
                    let r = e.rate(NodeId::new(u), NodeId::new(v));
                    assert!(
                        r.is_finite() && r >= 0.0,
                        "case {case}: rate({u}, {v}) = {r}"
                    );
                }
            }
        }
    }
}
