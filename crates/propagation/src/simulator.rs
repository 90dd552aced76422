//! Event-driven continuous-time propagation simulator.
//!
//! Implements the stochastic propagation model of Kempe et al. as used in
//! Section VI-A: a random seed node starts each cascade; every link
//! `u → v` transmits after an exponential delay with rate
//! `λ_{uv}` supplied by a [`RateProvider`]; a node keeps its *earliest*
//! arriving infection (single-source rule of Definition 1); and the whole
//! process is cut off at the observation window because "any cascade would
//! eventually flood the entire network".
//!
//! The implementation is the classic lazy-deletion priority-queue sweep:
//! at a node's infection we sample one candidate delay per out-link and
//! push the tentative arrival; stale arrivals at already-infected nodes
//! are skipped on pop. For exponential delays this produces exactly the
//! first-passage times of the continuous-time SI process.

use crate::cascade::{Cascade, CascadeSet, Infection};
use crate::hazard::{Exponential, HazardFunction};
use crate::rates::RateProvider;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use viralcast_graph::{DiGraph, NodeId};

/// Simulation parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SimulationConfig {
    /// Length of the observation window; infections after it are
    /// discarded and the process stops.
    pub observation_window: f64,
    /// Optional hard cap on cascade size (guards flooding on dense
    /// graphs).
    pub max_cascade_size: Option<usize>,
    /// Cascades smaller than this are re-drawn from a fresh random seed
    /// node (up to [`SimulationConfig::max_retries`] attempts) when
    /// generating corpora.
    pub min_cascade_size: usize,
    /// Retry budget for `min_cascade_size`.
    pub max_retries: usize,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            observation_window: 1.0,
            max_cascade_size: None,
            min_cascade_size: 1,
            max_retries: 20,
        }
    }
}

/// Min-heap entry ordered by arrival time.
#[derive(Clone, Copy, Debug)]
struct Arrival {
    time: f64,
    node: NodeId,
}

impl PartialEq for Arrival {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.node == other.node
    }
}
impl Eq for Arrival {}
impl PartialOrd for Arrival {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Arrival {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse on time for a min-heap; ties broken by node for
        // determinism.
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// The propagation simulator over a fixed topology and rate provider.
pub struct Simulator<'g, P: RateProvider> {
    graph: &'g DiGraph,
    rates: P,
    config: SimulationConfig,
}

impl<'g, P: RateProvider> Simulator<'g, P> {
    /// Creates a simulator.
    pub fn new(graph: &'g DiGraph, rates: P, config: SimulationConfig) -> Self {
        assert!(
            config.observation_window > 0.0,
            "observation window must be positive"
        );
        Simulator {
            graph,
            rates,
            config,
        }
    }

    /// The simulator's configuration.
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// Simulates one cascade from a given seed node at time 0.
    ///
    /// ```
    /// use viralcast_propagation::{EdgeWeightRates, SimulationConfig, Simulator};
    /// use viralcast_graph::{GraphBuilder, NodeId};
    /// use rand::{rngs::StdRng, SeedableRng};
    ///
    /// let mut b = GraphBuilder::new(3);
    /// b.add_edge(NodeId(0), NodeId(1), 5.0);
    /// b.add_edge(NodeId(1), NodeId(2), 5.0);
    /// let graph = b.build();
    /// let sim = Simulator::new(
    ///     &graph,
    ///     EdgeWeightRates::new(&graph, 1.0),
    ///     SimulationConfig { observation_window: 10.0, ..Default::default() },
    /// );
    /// let cascade = sim.simulate_from(NodeId(0), &mut StdRng::seed_from_u64(1));
    /// assert_eq!(cascade.seed().node, NodeId(0));
    /// assert!(cascade.len() >= 1);
    /// ```
    pub fn simulate_from<R: Rng>(&self, seed: NodeId, rng: &mut R) -> Cascade {
        let n = self.graph.node_count();
        assert!(seed.index() < n, "seed {seed} out of range");
        let cap = self.config.max_cascade_size.unwrap_or(usize::MAX);
        let mut infected = vec![false; n];
        let mut heap = BinaryHeap::new();
        let mut infections = Vec::new();
        heap.push(Arrival {
            time: 0.0,
            node: seed,
        });

        while let Some(Arrival { time, node }) = heap.pop() {
            if infected[node.index()] {
                continue; // stale arrival — an earlier infection won
            }
            if time > self.config.observation_window {
                break; // everything later is outside the window too
            }
            infected[node.index()] = true;
            infections.push(Infection { node, time });
            if infections.len() >= cap {
                break;
            }
            for (v, _) in self.graph.out_edges(node) {
                if infected[v.index()] {
                    continue;
                }
                let rate = self.rates.rate(node, v);
                if rate <= 0.0 {
                    continue;
                }
                let delay = Exponential::new(rate).sample(rng);
                let arrival = time + delay;
                if arrival <= self.config.observation_window {
                    heap.push(Arrival {
                        time: arrival,
                        node: v,
                    });
                }
            }
        }
        Cascade::new(infections).expect("simulator output is a valid cascade by construction")
    }

    /// Simulates one cascade from a uniformly random seed.
    pub fn simulate<R: Rng>(&self, rng: &mut R) -> Cascade {
        let seed = NodeId::new(rng.gen_range(0..self.graph.node_count()));
        self.simulate_from(seed, rng)
    }

    /// Simulates a corpus of `count` cascades, re-drawing seeds for
    /// cascades below the configured minimum size.
    pub fn simulate_corpus<R: Rng>(&self, count: usize, rng: &mut R) -> CascadeSet {
        let mut cascades = Vec::with_capacity(count);
        for _ in 0..count {
            let mut cascade = self.simulate(rng);
            let mut retries = 0;
            while cascade.len() < self.config.min_cascade_size && retries < self.config.max_retries
            {
                cascade = self.simulate(rng);
                retries += 1;
            }
            cascades.push(cascade);
        }
        CascadeSet::new(self.graph.node_count(), cascades)
    }
}

impl<P: RateProvider> Simulator<'_, P> {
    /// Parallel corpus simulation: cascade `i` runs on its own RNG
    /// derived from `(seed, i)`, so the result is deterministic and
    /// *independent of the thread count* — unlike threading a single
    /// RNG through, which would make the corpus depend on scheduling.
    pub fn simulate_corpus_parallel(&self, count: usize, seed: u64) -> CascadeSet {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use rayon::prelude::*;
        let cascades: Vec<Cascade> = (0..count)
            .into_par_iter()
            .map(|i| {
                let mut rng =
                    StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let mut cascade = self.simulate(&mut rng);
                let mut retries = 0;
                while cascade.len() < self.config.min_cascade_size
                    && retries < self.config.max_retries
                {
                    cascade = self.simulate(&mut rng);
                    retries += 1;
                }
                cascade
            })
            .collect();
        CascadeSet::new(self.graph.node_count(), cascades)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rates::EdgeWeightRates;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use viralcast_graph::GraphBuilder;

    fn path_graph(n: usize) -> DiGraph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(NodeId::new(i), NodeId::new(i + 1), 1.0);
        }
        b.build()
    }

    fn config(window: f64) -> SimulationConfig {
        SimulationConfig {
            observation_window: window,
            ..SimulationConfig::default()
        }
    }

    #[test]
    fn seed_is_always_infected_at_time_zero() {
        let g = path_graph(3);
        let sim = Simulator::new(&g, EdgeWeightRates::new(&g, 1.0), config(10.0));
        let mut rng = StdRng::seed_from_u64(1);
        let c = sim.simulate_from(NodeId(1), &mut rng);
        assert_eq!(c.seed().node, NodeId(1));
        assert_eq!(c.seed().time, 0.0);
    }

    #[test]
    fn infection_respects_topology() {
        // Directed path 0 -> 1 -> 2: seeding at 2 can never infect 0 or 1.
        let g = path_graph(3);
        let sim = Simulator::new(&g, EdgeWeightRates::new(&g, 1000.0), config(100.0));
        let mut rng = StdRng::seed_from_u64(2);
        let c = sim.simulate_from(NodeId(2), &mut rng);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn high_rates_flood_the_component() {
        let g = path_graph(5);
        let sim = Simulator::new(&g, EdgeWeightRates::new(&g, 1e6), config(1.0));
        let mut rng = StdRng::seed_from_u64(3);
        let c = sim.simulate_from(NodeId(0), &mut rng);
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn observation_window_truncates() {
        // Rates so slow that nothing happens within the window.
        let g = path_graph(5);
        let sim = Simulator::new(&g, EdgeWeightRates::new(&g, 1e-9), config(0.001));
        let mut rng = StdRng::seed_from_u64(4);
        let c = sim.simulate_from(NodeId(0), &mut rng);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn all_infection_times_inside_window() {
        let g = path_graph(50);
        let sim = Simulator::new(&g, EdgeWeightRates::new(&g, 3.0), config(2.5));
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let c = sim.simulate(&mut rng);
            assert!(c.infections().iter().all(|i| i.time <= 2.5 + 1e-12));
        }
    }

    #[test]
    fn max_size_cap_respected() {
        let g = path_graph(100);
        let cfg = SimulationConfig {
            observation_window: 1000.0,
            max_cascade_size: Some(7),
            ..SimulationConfig::default()
        };
        let sim = Simulator::new(&g, EdgeWeightRates::new(&g, 100.0), cfg);
        let mut rng = StdRng::seed_from_u64(6);
        let c = sim.simulate_from(NodeId(0), &mut rng);
        assert_eq!(c.len(), 7);
    }

    #[test]
    fn corpus_respects_min_size_when_possible() {
        // A strongly connected pair: min size 2 is always reachable.
        let mut b = GraphBuilder::new(2);
        b.add_undirected_edge(NodeId(0), NodeId(1), 1.0);
        let g = b.build();
        let cfg = SimulationConfig {
            observation_window: 100.0,
            min_cascade_size: 2,
            ..SimulationConfig::default()
        };
        let sim = Simulator::new(&g, EdgeWeightRates::new(&g, 5.0), cfg);
        let mut rng = StdRng::seed_from_u64(7);
        let corpus = sim.simulate_corpus(20, &mut rng);
        assert_eq!(corpus.len(), 20);
        assert!(corpus.cascades().iter().all(|c| c.len() == 2));
    }

    #[test]
    fn deterministic_given_seed() {
        let g = path_graph(20);
        let sim = Simulator::new(&g, EdgeWeightRates::new(&g, 2.0), config(3.0));
        let c1 = sim.simulate_corpus(5, &mut StdRng::seed_from_u64(11));
        let c2 = sim.simulate_corpus(5, &mut StdRng::seed_from_u64(11));
        assert_eq!(c1.cascades(), c2.cascades());
    }

    #[test]
    fn parallel_corpus_is_thread_count_invariant() {
        let g = path_graph(30);
        let sim = Simulator::new(&g, EdgeWeightRates::new(&g, 2.0), config(3.0));
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| sim.simulate_corpus_parallel(20, 7))
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one.cascades(), four.cascades());
    }

    #[test]
    fn parallel_corpus_respects_min_size() {
        let mut b = GraphBuilder::new(2);
        b.add_undirected_edge(NodeId(0), NodeId(1), 1.0);
        let g = b.build();
        let cfg = SimulationConfig {
            observation_window: 100.0,
            min_cascade_size: 2,
            ..SimulationConfig::default()
        };
        let sim = Simulator::new(&g, EdgeWeightRates::new(&g, 5.0), cfg);
        let corpus = sim.simulate_corpus_parallel(25, 3);
        assert_eq!(corpus.len(), 25);
        assert!(corpus.cascades().iter().all(|c| c.len() == 2));
    }

    #[test]
    fn parallel_and_sequential_draw_from_same_model() {
        // Not bit-identical (different RNG streams), but statistically
        // compatible: mean sizes within 25%.
        let g = path_graph(40);
        let sim = Simulator::new(&g, EdgeWeightRates::new(&g, 2.0), config(5.0));
        let seq = sim.simulate_corpus(200, &mut StdRng::seed_from_u64(5));
        let par = sim.simulate_corpus_parallel(200, 5);
        let mean = |s: &CascadeSet| {
            s.cascades().iter().map(|c| c.len()).sum::<usize>() as f64 / s.len() as f64
        };
        let (ms, mp) = (mean(&seq), mean(&par));
        assert!(
            (ms - mp).abs() / ms < 0.25,
            "sequential mean {ms} vs parallel mean {mp}"
        );
    }

    #[test]
    fn single_source_rule_earliest_infection_wins() {
        // Diamond 0 -> {1, 2} -> 3 with extreme rate asymmetry: 3 is
        // reached overwhelmingly often through the fast branch, and in
        // every run its recorded time is the earliest arrival.
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 100.0);
        b.add_edge(NodeId(0), NodeId(2), 0.01);
        b.add_edge(NodeId(1), NodeId(3), 100.0);
        b.add_edge(NodeId(2), NodeId(3), 0.01);
        let g = b.build();
        let sim = Simulator::new(&g, EdgeWeightRates::new(&g, 1.0), config(1e6));
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..20 {
            let c = sim.simulate_from(NodeId(0), &mut rng);
            // Times strictly ordered and node 3 never infected before
            // at least one of its predecessors.
            if let Some(t3) = c.time_of(NodeId(3)) {
                let t1 = c.time_of(NodeId(1)).unwrap_or(f64::INFINITY);
                let t2 = c.time_of(NodeId(2)).unwrap_or(f64::INFINITY);
                assert!(t3 >= t1.min(t2));
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::rates::EdgeWeightRates;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use viralcast_graph::GraphBuilder;

    /// On random graphs every produced cascade satisfies Definition 1
    /// and stays within the window.
    #[test]
    fn cascades_always_valid() {
        for case in 0..32 {
            let mut rng = StdRng::seed_from_u64(case);
            let mut b = GraphBuilder::new(15);
            for _ in 0..rng.gen_range(1..60usize) {
                let (u, v) = (rng.gen_range(0u32..15), rng.gen_range(0u32..15));
                let w = rng.gen_range(0.1f64..5.0);
                if u != v {
                    b.add_edge(NodeId(u), NodeId(v), w);
                }
            }
            let g = b.build();
            let window = rng.gen_range(0.1f64..10.0);
            let cfg = SimulationConfig {
                observation_window: window,
                ..SimulationConfig::default()
            };
            let sim = Simulator::new(&g, EdgeWeightRates::new(&g, 1.0), cfg);
            let c = sim.simulate(&mut rng);
            // Valid by construction (Cascade::new validated); check extras.
            assert!(!c.is_empty(), "case {case}");
            assert!(
                c.infections().iter().all(|i| i.time <= window + 1e-12),
                "case {case}: infection after the window {window}"
            );
            // Every non-seed infection has an in-neighbour infected
            // earlier (propagation follows edges).
            let t = g.transpose();
            for inf in &c.infections()[1..] {
                let has_source = t
                    .out_neighbors(inf.node)
                    .iter()
                    .any(|&p| c.time_of(p).is_some_and(|tp| tp < inf.time));
                assert!(has_source, "case {case}: orphan infection {:?}", inf.node);
            }
        }
    }
}
