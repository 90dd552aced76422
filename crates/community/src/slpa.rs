//! SLPA — Speaker-Listener Label Propagation (Xie, Szymanski & Liu,
//! ICDMW 2011), the community-detection step of Section IV-B.
//!
//! Every node keeps a memory of labels, initialised with its own id. In
//! each of `iterations` rounds, every node in turn plays *listener*: each
//! of its neighbours (*speakers*) utters one label drawn from its own
//! memory with probability proportional to that label's frequency, the
//! listener tallies the utterances weighted by edge weight, and appends
//! the winning label to its memory. Post-processing keeps, per node, the
//! labels whose memory frequency clears a threshold `r` (overlapping
//! output) and the most frequent label (disjoint output — what the
//! parallel inference uses).
//!
//! The implementation is deterministic given the seed. All label memories
//! live in one flat `n × (iterations + 1)` array of `u32` labels: a node's
//! slice holds one slot per label it has heard, kept sorted, so a label
//! heard `c` times occupies `c` adjacent slots. A speaker's utterance is
//! then the slot at one uniform draw below the slice's length — the same
//! map from the draw to the label as walking cumulative counts over sorted
//! `(label, count)` pairs, without the walk. The listener tallies into a
//! dense per-label row and visits the labels it heard in ascending order,
//! so nothing is allocated inside the round loop and no outcome depends on
//! a hash order. The vote's ties are drawn uniformly; the post-processing
//! tie (most frequent label) favours the smallest label.

use crate::partition::Partition;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use viralcast_graph::{DiGraph, NodeId};
use viralcast_obs as obs;

/// SLPA parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SlpaConfig {
    /// Number of speaker-listener rounds (the original paper suggests
    /// ≥ 20; memories then hold `iterations + 1` labels).
    pub iterations: usize,
    /// Post-processing probability threshold for the overlapping output.
    pub threshold: f64,
    /// RNG seed; the run is fully deterministic given this.
    pub seed: u64,
}

impl Default for SlpaConfig {
    fn default() -> Self {
        SlpaConfig {
            iterations: 30,
            threshold: 0.1,
            seed: 0x51_9A,
        }
    }
}

/// Every node's label memory, side by side: node `u` owns
/// `labels[u * stride..][..len[u]]`, sorted, one slot per label heard.
#[derive(Debug)]
struct Memories {
    stride: usize,
    labels: Vec<u32>,
    len: Vec<u32>,
}

impl Memories {
    /// `n` memories holding the node's own id, with room for one more
    /// label per round.
    fn new(n: usize, iterations: usize) -> Self {
        let stride = iterations + 1;
        let mut labels = vec![0u32; n * stride];
        for u in 0..n {
            labels[u * stride] = u32::try_from(u).expect("node ids fit in u32");
        }
        Memories {
            stride,
            labels,
            len: vec![1; n],
        }
    }

    fn add(&mut self, u: usize, label: u32) {
        let len = self.len[u] as usize;
        let slots = &mut self.labels[u * self.stride..][..len + 1];
        let at = slots[..len].partition_point(|&l| l <= label);
        slots.copy_within(at..len, at + 1);
        slots[at] = label;
        self.len[u] += 1;
    }

    /// Samples a label proportionally to its count.
    fn speak<R: Rng>(&self, u: usize, rng: &mut R) -> u32 {
        self.labels[u * self.stride + rng.gen_range(0..self.len[u]) as usize]
    }

    /// `(label, count)` per distinct label, ascending.
    fn counts(&self, u: usize) -> impl Iterator<Item = (u32, usize)> + '_ {
        let mut rest = &self.labels[u * self.stride..][..self.len[u] as usize];
        std::iter::from_fn(move || {
            let label = *rest.first()?;
            let run = rest.partition_point(|&l| l == label);
            rest = &rest[run..];
            Some((label, run))
        })
    }

    /// Most frequent label, smallest label on ties.
    fn dominant(&self, u: usize) -> usize {
        self.counts(u)
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|(l, _)| l as usize)
            .expect("memory never empty")
    }

    /// Labels with frequency ≥ threshold.
    fn above(&self, u: usize, threshold: f64) -> Vec<usize> {
        let total = self.len[u];
        self.counts(u)
            .filter(|&(_, c)| c as f64 / total as f64 >= threshold)
            .map(|(l, _)| l as usize)
            .collect()
    }
}

/// The SLPA detector.
#[derive(Clone, Debug)]
pub struct Slpa {
    config: SlpaConfig,
}

/// SLPA output: the disjoint partition plus the overlapping memberships.
#[derive(Clone, Debug)]
pub struct SlpaResult {
    /// Disjoint communities from each node's dominant label.
    pub partition: Partition,
    /// Per node, the labels clearing the probability threshold
    /// (overlapping communities; labels are raw, not compacted).
    pub overlapping: Vec<Vec<usize>>,
}

impl Slpa {
    /// Creates a detector with the given configuration.
    pub fn new(config: SlpaConfig) -> Self {
        assert!(config.iterations > 0, "SLPA needs at least one round");
        assert!(
            (0.0..=1.0).contains(&config.threshold),
            "threshold must be a probability"
        );
        Slpa { config }
    }

    /// Runs SLPA on the undirected view of `graph` (callers typically
    /// pass a co-occurrence graph symmetrised via
    /// [`viralcast_graph::DiGraph::to_undirected`]).
    ///
    /// ```
    /// use viralcast_community::{Slpa, SlpaConfig};
    /// use viralcast_graph::{GraphBuilder, NodeId};
    ///
    /// // Two triangles joined by one weak edge.
    /// let mut b = GraphBuilder::new(6);
    /// for base in [0u32, 3] {
    ///     b.add_undirected_edge(NodeId(base), NodeId(base + 1), 1.0);
    ///     b.add_undirected_edge(NodeId(base + 1), NodeId(base + 2), 1.0);
    ///     b.add_undirected_edge(NodeId(base), NodeId(base + 2), 1.0);
    /// }
    /// b.add_undirected_edge(NodeId(2), NodeId(3), 0.05);
    /// let result = Slpa::new(SlpaConfig::default()).run(&b.build());
    /// assert_eq!(result.partition.node_count(), 6);
    /// ```
    pub fn run(&self, graph: &DiGraph) -> SlpaResult {
        let _span = obs::Span::enter("slpa");
        let n = graph.node_count();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut memories = Memories::new(n, self.config.iterations);
        let mut order: Vec<usize> = (0..n).collect();
        // The listener's tally, dense by label; `heard` lists the labels
        // uttered to the current listener and `voted` marks them.
        let mut tally = vec![0.0f64; n];
        let mut voted = vec![false; n];
        let mut heard: Vec<u32> = Vec::new();

        for _ in 0..self.config.iterations {
            shuffle(&mut order, &mut rng);
            for &listener in &order {
                let lu = NodeId::new(listener);
                let neighbors = graph.out_neighbors(lu);
                if neighbors.is_empty() {
                    continue;
                }
                let weights = graph.out_weights(lu);
                for (&speaker, &w) in neighbors.iter().zip(weights) {
                    let label = memories.speak(speaker.index(), &mut rng);
                    let slot = label as usize;
                    if voted[slot] {
                        tally[slot] += w;
                    } else {
                        voted[slot] = true;
                        tally[slot] = w;
                        heard.push(label);
                    }
                }
                // Ascending label order keeps the tie draw below
                // independent of the order the labels were uttered in.
                heard.sort_unstable();
                let mut max_w = f64::NEG_INFINITY;
                for &label in &heard {
                    voted[label as usize] = false;
                    max_w = max_w.max(tally[label as usize]);
                }
                // Ties are broken uniformly at random (deterministic via
                // the seeded rng): a fixed tie-break such as "smallest
                // label" systematically floods low node ids across weak
                // inter-community bridges and merges planted blocks.
                heard.retain(|&label| tally[label as usize] >= max_w - 1e-12);
                let winner = heard[rng.gen_range(0..heard.len())];
                heard.clear();
                memories.add(listener, winner);
            }
        }

        let raw: Vec<usize> = (0..n).map(|u| memories.dominant(u)).collect();
        let overlapping = (0..n)
            .map(|u| memories.above(u, self.config.threshold))
            .collect();
        let partition = Partition::from_membership(&raw);
        obs::metrics()
            .counter("slpa.iterations")
            .incr(self.config.iterations as u64);
        obs::metrics()
            .gauge("slpa.communities")
            .set(partition.community_count() as f64);
        obs::info(
            "slpa",
            "label propagation finished",
            &[
                ("nodes", n.into()),
                ("iterations", self.config.iterations.into()),
                ("communities", partition.community_count().into()),
            ],
        );
        SlpaResult {
            partition,
            overlapping,
        }
    }
}

/// Fisher–Yates shuffle (avoids pulling in rand's `SliceRandom` trait for
/// one call site and keeps the sampling sequence explicit).
fn shuffle<R: Rng>(xs: &mut [usize], rng: &mut R) {
    for i in (1..xs.len()).rev() {
        let j = rng.gen_range(0..=i);
        xs.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use viralcast_graph::{sbm, GraphBuilder, SbmConfig};

    fn two_cliques_with_bridge() -> DiGraph {
        // Clique {0,1,2,3} and clique {4,5,6,7}, one weak bridge 3-4.
        let mut b = GraphBuilder::new(8);
        for base in [0u32, 4] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    b.add_undirected_edge(NodeId(base + i), NodeId(base + j), 1.0);
                }
            }
        }
        b.add_undirected_edge(NodeId(3), NodeId(4), 0.05);
        b.build()
    }

    #[test]
    fn separates_two_cliques() {
        // SLPA is stochastic; on tiny graphs a single run can fragment a
        // clique, so require a clear majority of perfect separations
        // across seeds (empirically ~95 % succeed).
        let g = two_cliques_with_bridge();
        let mut perfect = 0;
        for seed in 0..9u64 {
            let cfg = SlpaConfig {
                seed,
                ..SlpaConfig::default()
            };
            let p = Slpa::new(cfg).run(&g).partition;
            let clean = (1..4u32).all(|i| {
                p.community_of(NodeId(0)) == p.community_of(NodeId(i))
                    && p.community_of(NodeId(4)) == p.community_of(NodeId(4 + i))
            }) && p.community_of(NodeId(0)) != p.community_of(NodeId(4));
            if clean {
                perfect += 1;
            }
        }
        assert!(perfect >= 6, "only {perfect}/9 seeds separated the cliques");
    }

    #[test]
    fn deterministic_given_seed() {
        let g = two_cliques_with_bridge();
        let a = Slpa::new(SlpaConfig::default()).run(&g).partition;
        let b = Slpa::new(SlpaConfig::default()).run(&g).partition;
        assert_eq!(a, b);
    }

    #[test]
    fn isolated_nodes_keep_own_labels() {
        let g = DiGraph::empty(3);
        let result = Slpa::new(SlpaConfig::default()).run(&g);
        assert_eq!(result.partition.community_count(), 3);
    }

    #[test]
    fn overlapping_includes_dominant_label() {
        let g = two_cliques_with_bridge();
        let result = Slpa::new(SlpaConfig::default()).run(&g);
        for (node, labels) in result.overlapping.iter().enumerate() {
            assert!(
                !labels.is_empty(),
                "node {node} lost all labels in post-processing"
            );
        }
    }

    #[test]
    fn recovers_planted_sbm_blocks() {
        // A small, strongly separated SBM: SLPA should recover blocks
        // nearly perfectly (checked via pairwise agreement > 0.9).
        let cfg = SbmConfig {
            nodes: 120,
            community_size: 30,
            intra_prob: 0.5,
            inter_prob: 0.005,
        };
        let g = sbm::generate(&cfg, &mut StdRng::seed_from_u64(1));
        let gt = cfg.ground_truth();
        let p = Slpa::new(SlpaConfig::default()).run(&g).partition;
        let mut agree = 0usize;
        let mut total = 0usize;
        for i in 0..cfg.nodes {
            for j in (i + 1)..cfg.nodes {
                total += 1;
                let same_gt = gt[i] == gt[j];
                let same_p = p.community_of(NodeId::new(i)) == p.community_of(NodeId::new(j));
                if same_gt == same_p {
                    agree += 1;
                }
            }
        }
        let rate = agree as f64 / total as f64;
        assert!(rate > 0.9, "pairwise agreement {rate} too low");
    }

    #[test]
    fn memory_speak_distribution_tracks_counts() {
        // Node 2's memory starts as {2}.
        let mut m = Memories::new(3, 9);
        for _ in 0..9 {
            m.add(2, 5);
        }
        let mut rng = StdRng::seed_from_u64(3);
        let fives = (0..1000).filter(|_| m.speak(2, &mut rng) == 5).count();
        // Label 5 holds 9/10 of the memory.
        assert!((850..=950).contains(&fives), "got {fives}");
    }

    #[test]
    fn memory_dominant_breaks_ties_low() {
        // Node 4's memory starts as {4}.
        let mut m = Memories::new(5, 1);
        m.add(4, 1);
        // counts: {4:1, 1:1} — tie broken towards smaller label.
        assert_eq!(m.dominant(4), 1);
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_iterations_rejected() {
        Slpa::new(SlpaConfig {
            iterations: 0,
            ..SlpaConfig::default()
        });
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;
    use viralcast_graph::GraphBuilder;

    /// A label memory as it was before the memories went flat: sorted
    /// `(label, count)` pairs, spoken from by a cumulative walk.
    struct Memory {
        entries: Vec<(usize, u32)>,
        total: u32,
    }

    impl Memory {
        fn with_initial(label: usize) -> Self {
            Memory {
                entries: vec![(label, 1)],
                total: 1,
            }
        }

        fn add(&mut self, label: usize) {
            match self.entries.binary_search_by_key(&label, |e| e.0) {
                Ok(i) => self.entries[i].1 += 1,
                Err(i) => self.entries.insert(i, (label, 1)),
            }
            self.total += 1;
        }

        fn speak<R: Rng>(&self, rng: &mut R) -> usize {
            let mut pick = rng.gen_range(0..self.total);
            for &(label, count) in &self.entries {
                if pick < count {
                    return label;
                }
                pick -= count;
            }
            unreachable!("memory total inconsistent")
        }

        fn dominant(&self) -> usize {
            self.entries
                .iter()
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
                .map(|&(l, _)| l)
                .expect("memory never empty")
        }

        fn above(&self, threshold: f64) -> Vec<usize> {
            self.entries
                .iter()
                .filter(|&&(_, c)| c as f64 / self.total as f64 >= threshold)
                .map(|&(l, _)| l)
                .collect()
        }
    }

    /// `Slpa::run` over `(label, count)` memories and a freshly allocated,
    /// binary-search-inserted vote list per listener: the loop the flat
    /// layout replaced. Returns the raw dominant labels and the
    /// overlapping memberships.
    fn reference_run(config: SlpaConfig, graph: &DiGraph) -> (Vec<usize>, Vec<Vec<usize>>) {
        let n = graph.node_count();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut memories: Vec<Memory> = (0..n).map(Memory::with_initial).collect();
        let mut order: Vec<usize> = (0..n).collect();
        for _ in 0..config.iterations {
            shuffle(&mut order, &mut rng);
            for &listener in &order {
                let lu = NodeId::new(listener);
                let neighbors = graph.out_neighbors(lu);
                if neighbors.is_empty() {
                    continue;
                }
                let mut votes: Vec<(usize, f64)> = Vec::with_capacity(neighbors.len());
                for (&speaker, &w) in neighbors.iter().zip(graph.out_weights(lu)) {
                    let label = memories[speaker.index()].speak(&mut rng);
                    match votes.binary_search_by_key(&label, |v| v.0) {
                        Ok(i) => votes[i].1 += w,
                        Err(i) => votes.insert(i, (label, w)),
                    }
                }
                let max_w = votes.iter().map(|v| v.1).fold(f64::NEG_INFINITY, f64::max);
                let top: Vec<usize> = votes
                    .iter()
                    .filter(|v| v.1 >= max_w - 1e-12)
                    .map(|v| v.0)
                    .collect();
                let winner = top[rng.gen_range(0..top.len())];
                memories[listener].add(winner);
            }
        }
        (
            memories.iter().map(Memory::dominant).collect(),
            memories.iter().map(|m| m.above(config.threshold)).collect(),
        )
    }

    /// The flat memories reproduce the `(label, count)` loop exactly —
    /// same RNG stream, same partition, same overlapping memberships — on
    /// weighted graphs of up to 60 nodes with isolated nodes, and on
    /// all-equal weights, where every vote is a tie.
    #[test]
    fn flat_memories_match_label_count_reference() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let n = rng.gen_range(1..61u32);
            let all_equal = case % 4 == 0;
            let mut b = GraphBuilder::new(n as usize);
            let mut linked = BTreeSet::new();
            // Sparse enough that some nodes stay isolated.
            for _ in 0..rng.gen_range(0..3 * n as usize) {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                // A pair linked twice would sum to a weight of its own.
                if u == v || !linked.insert((u.min(v), u.max(v))) {
                    continue;
                }
                let w = if all_equal {
                    1.0
                } else {
                    rng.gen_range(0.05f64..2.0)
                };
                b.add_undirected_edge(NodeId(u), NodeId(v), w);
            }
            let g = b.build();
            for iterations in [1, 5, 30] {
                for seed in [case, case + 1000, 0x51_9A] {
                    let config = SlpaConfig {
                        iterations,
                        threshold: 0.1,
                        seed,
                    };
                    let got = Slpa::new(config).run(&g);
                    let (raw, overlapping) = reference_run(config, &g);
                    assert_eq!(
                        got.partition,
                        Partition::from_membership(&raw),
                        "case {case}: n {n}, {iterations} rounds, seed {seed}"
                    );
                    assert_eq!(
                        got.overlapping, overlapping,
                        "case {case}: n {n}, {iterations} rounds, seed {seed}"
                    );
                }
            }
        }
    }

    /// SLPA always outputs a full partition covering every node.
    #[test]
    fn output_is_total_partition() {
        for case in 0..24 {
            let mut rng = StdRng::seed_from_u64(case);
            let mut b = GraphBuilder::new(12);
            for _ in 0..rng.gen_range(0..50usize) {
                let (u, v) = (rng.gen_range(0u32..12), rng.gen_range(0u32..12));
                let w = rng.gen_range(0.1f64..2.0);
                if u != v {
                    b.add_undirected_edge(NodeId(u), NodeId(v), w);
                }
            }
            let g = b.build();
            let cfg = SlpaConfig {
                iterations: 10,
                threshold: 0.1,
                seed: case,
            };
            let result = Slpa::new(cfg).run(&g);
            assert_eq!(result.partition.node_count(), 12, "case {case}");
            let communities = result.partition.community_count();
            assert!(
                (1..=12).contains(&communities),
                "case {case}: {communities}"
            );
        }
    }
}
