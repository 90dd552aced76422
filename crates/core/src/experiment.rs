//! The Section VI-A synthetic experiment setup.
//!
//! "We create the SBM graphs containing 2,000 nodes with α = 0.2 and
//! β = 0.001. … On each network instance, the spreading process is
//! simulated according to the stochastic propagation model. … A total of
//! 3,000 cascades are collected for each graph instance. The first 2,000
//! cascades are used to infer the influence and selectivity vectors of
//! nodes in the network and the last 1,000 cascades are used to test the
//! accuracy of the virality prediction algorithm."

use rand::rngs::StdRng;
use rand::SeedableRng;
use viralcast_graph::{sbm, DiGraph, SbmConfig};
use viralcast_propagation::{
    planted_embeddings, CascadeSet, Embeddings, PlantedConfig, SimulationConfig, Simulator,
};

/// Configuration of a full synthetic experiment.
#[derive(Clone, Copy, Debug)]
pub struct SbmExperimentConfig {
    /// Graph shape (paper default: 2 000 nodes, α = 0.2, β = 0.001).
    pub sbm: SbmConfig,
    /// Planted ground-truth embedding shape.
    pub planted: PlantedConfig,
    /// Total cascades to simulate (paper: 3 000).
    pub cascades: usize,
    /// Leading fraction used for embedding inference (paper: 2 000 of
    /// 3 000).
    pub train_fraction: f64,
    /// Observation window length.
    pub observation_window: f64,
    /// Minimum cascade size (re-drawn below this).
    pub min_cascade_size: usize,
}

impl Default for SbmExperimentConfig {
    fn default() -> Self {
        SbmExperimentConfig {
            sbm: SbmConfig::paper_default(),
            // One topic per planted community. Rates sized so a cascade
            // floods its seed community early in the window and then
            // stochastically jumps to further communities — the high-
            // variance regime behind Figures 6–9, where final sizes
            // range from one community to a large fraction of the graph
            // and the early adopters carry real predictive signal. The
            // generous jitter gives nodes heterogeneous influence, which
            // is what normA/maxA pick up.
            planted: PlantedConfig {
                on_topic: 10.0,
                off_topic: 0.002,
                jitter: 0.5,
            },
            cascades: 3_000,
            train_fraction: 2.0 / 3.0,
            observation_window: 1.0,
            min_cascade_size: 2,
        }
    }
}

// SbmConfig is Copy-compatible in spirit but not Copy; store it by value.
/// A generated synthetic world plus its simulated corpus.
#[derive(Clone, Debug)]
pub struct SbmExperiment {
    config: SbmExperimentConfig,
    graph: DiGraph,
    ground_truth: Embeddings,
    train: CascadeSet,
    test: CascadeSet,
}

impl SbmExperiment {
    /// Generates the graph, plants ground-truth embeddings, simulates
    /// the corpus and splits it. Fully deterministic given `seed`.
    pub fn build(config: &SbmExperimentConfig, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&config.train_fraction));
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = sbm::generate(&config.sbm, &mut rng);
        let membership = config.sbm.ground_truth();
        let ground_truth = planted_embeddings(&membership, &config.planted, &mut rng);
        let sim_config = SimulationConfig {
            observation_window: config.observation_window,
            max_cascade_size: None,
            min_cascade_size: config.min_cascade_size,
            max_retries: 20,
        };
        let simulator = Simulator::new(&graph, ground_truth.clone(), sim_config);
        let corpus = simulator.simulate_corpus(config.cascades, &mut rng);
        let split = (config.cascades as f64 * config.train_fraction).round() as usize;
        let (train, test) = corpus.split_at(split);
        SbmExperiment {
            config: *config,
            graph,
            ground_truth,
            train,
            test,
        }
    }

    /// The experiment configuration.
    pub fn config(&self) -> &SbmExperimentConfig {
        &self.config
    }

    /// The SBM graph.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// The planted ground-truth rates.
    pub fn ground_truth(&self) -> &Embeddings {
        &self.ground_truth
    }

    /// Planted community membership (one label per node).
    pub fn planted_membership(&self) -> Vec<usize> {
        self.config.sbm.ground_truth()
    }

    /// The training corpus (first part).
    pub fn train(&self) -> &CascadeSet {
        &self.train
    }

    /// The held-out corpus (last part).
    pub fn test(&self) -> &CascadeSet {
        &self.test
    }

    /// Correlation sanity metric: mean modelled ground-truth rate over
    /// intra-community vs inter-community node pairs (sampled).
    pub fn rate_contrast(&self) -> f64 {
        let membership = self.planted_membership();
        let n = membership.len();
        let mut intra = (0.0, 0usize);
        let mut inter = (0.0, 0usize);
        let step = (n / 50).max(1);
        for u in (0..n).step_by(step) {
            for v in (0..n).step_by(step) {
                if u == v {
                    continue;
                }
                let r = self.ground_truth.rate(
                    viralcast_graph::NodeId::new(u),
                    viralcast_graph::NodeId::new(v),
                );
                if membership[u] == membership[v] {
                    intra.0 += r;
                    intra.1 += 1;
                } else {
                    inter.0 += r;
                    inter.1 += 1;
                }
            }
        }
        let intra_mean = if intra.1 == 0 {
            0.0
        } else {
            intra.0 / intra.1 as f64
        };
        let inter_mean = if inter.1 == 0 {
            0.0
        } else {
            inter.0 / inter.1 as f64
        };
        if inter_mean == 0.0 {
            f64::INFINITY
        } else {
            intra_mean / inter_mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viralcast_propagation::stats::{locality_fraction, size_summary};

    fn small() -> SbmExperimentConfig {
        SbmExperimentConfig {
            sbm: SbmConfig {
                nodes: 200,
                community_size: 20,
                intra_prob: 0.3,
                inter_prob: 0.002,
            },
            cascades: 120,
            ..SbmExperimentConfig::default()
        }
    }

    #[test]
    fn split_matches_train_fraction() {
        let e = SbmExperiment::build(&small(), 1);
        assert_eq!(e.train().len(), 80);
        assert_eq!(e.test().len(), 40);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = SbmExperiment::build(&small(), 2);
        let b = SbmExperiment::build(&small(), 2);
        assert_eq!(a.train().cascades(), b.train().cascades());
        assert_eq!(a.test().cascades(), b.test().cascades());
    }

    #[test]
    fn different_seeds_differ() {
        let a = SbmExperiment::build(&small(), 3);
        let b = SbmExperiment::build(&small(), 4);
        assert_ne!(a.train().cascades(), b.train().cascades());
    }

    #[test]
    fn cascades_meet_min_size_mostly() {
        let e = SbmExperiment::build(&small(), 5);
        let multi = e.train().cascades().iter().filter(|c| c.len() >= 2).count();
        assert!(multi * 10 >= e.train().len() * 9);
    }

    #[test]
    fn planted_rates_show_community_contrast() {
        let e = SbmExperiment::build(&small(), 6);
        assert!(e.rate_contrast() > 10.0, "contrast {}", e.rate_contrast());
    }

    #[test]
    fn cascades_are_mostly_local_in_the_local_regime() {
        // The default planted rates sit in the high-variance jumping
        // regime of Figures 6–9; with weak cross-topic rates the
        // Section II locality property must hold.
        let config = SbmExperimentConfig {
            planted: viralcast_propagation::PlantedConfig::local(),
            ..small()
        };
        let e = SbmExperiment::build(&config, 7);
        let membership = e.planted_membership();
        let frac = locality_fraction(e.train(), &membership);
        assert!(frac > 0.5, "locality {frac}");
    }

    #[test]
    fn cascade_sizes_are_nontrivial() {
        let e = SbmExperiment::build(&small(), 8);
        let s = size_summary(e.train());
        assert!(s.mean >= 2.0, "mean size {}", s.mean);
        assert!(s.max > 5.0, "max size {}", s.max);
    }
}
