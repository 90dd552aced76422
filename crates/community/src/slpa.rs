//! SLPA — Speaker-Listener Label Propagation (Xie, Szymanski & Liu,
//! ICDMW 2011), the community-detection step of Section IV-B.
//!
//! Every node keeps a memory of labels, initialised with its own id. In
//! each of `iterations` rounds, every node in turn plays *listener*: each
//! of its neighbours (*speakers*) utters one label drawn from its own
//! memory with probability proportional to that label's frequency, the
//! listener tallies the utterances weighted by edge weight, and appends
//! the winning label to its memory. A node's community is its most
//! frequent label at the end (the disjoint output the parallel inference
//! uses).
//!
//! The implementation is deterministic given the seed. All label memories
//! live in one flat `n × (iterations + 1)` array of `u32` labels: a node's
//! slice holds one slot per label it has heard, kept sorted, so a label
//! heard `c` times occupies `c` adjacent slots. A speaker's utterance is
//! then the slot at one uniform draw below the slice's length — the same
//! map from the draw to the label as walking cumulative counts over sorted
//! `(label, count)` pairs, without the walk. The listener tallies into a
//! dense per-label row that is zero between listeners, so an utterance is
//! one add whether or not its label was heard before; a label's first
//! utterance is also stored at the end of the list of labels heard. Only
//! the labels tied for the most weight are sorted, so the tie draw is
//! independent of the order the labels were uttered in. Nothing is
//! allocated inside the round loop and no outcome depends on a hash order.
//! The vote's ties are drawn uniformly; the post-processing tie (most
//! frequent label) favours the smallest label.
//!
//! Every draw — the speaker's, the tie's and the shuffle's — goes through
//! this module's `below`, Lemire's multiply-shift on
//! [`RngCore::next_u64`], which divides only on the rare draw it might
//! reject. It consumes the stream and returns the values the vendored
//! `rand`'s `gen_range` does, so SLPA defines its own draw rather than
//! borrowing `rand`'s: under another `rand` a run stays deterministic per
//! seed, but `flat_memories_match_label_count_reference`, whose reference
//! draws through `gen_range`, would flag the divergence.

use crate::partition::Partition;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use viralcast_graph::{DiGraph, NodeId, RowTargets, RowWeights, TargetRows, WeightRows};
use viralcast_obs as obs;

/// SLPA parameters.
#[derive(Clone, Copy, Debug)]
pub struct SlpaConfig {
    /// Number of speaker-listener rounds (the original paper suggests
    /// ≥ 20; memories then hold `iterations + 1` labels).
    pub iterations: usize,
    /// RNG seed; the run is fully deterministic given this.
    pub seed: u64,
}

impl Default for SlpaConfig {
    fn default() -> Self {
        SlpaConfig {
            iterations: 30,
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
    fn speak<R: RngCore>(&self, u: usize, rng: &mut R) -> u32 {
        self.labels[u * self.stride + below(u64::from(self.len[u]), rng) as usize]
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
}

/// The SLPA detector.
#[derive(Clone, Debug)]
pub struct Slpa {
    config: SlpaConfig,
}

/// SLPA output.
#[derive(Clone, Debug)]
pub struct SlpaResult {
    /// Disjoint communities from each node's dominant label.
    pub partition: Partition,
}

impl Slpa {
    /// Creates a detector with the given configuration.
    pub fn new(config: SlpaConfig) -> Self {
        assert!(config.iterations > 0, "SLPA needs at least one round");
        Slpa { config }
    }

    /// Runs SLPA on the undirected view of `graph` (callers typically
    /// pass the symmetrised co-occurrence graph of
    /// [`viralcast_graph::cooccurrence::CooccurrenceGraph::build_undirected`]).
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
        let memories = match (graph.row_targets(), graph.row_weights()) {
            (TargetRows::Narrow(targets), WeightRows::Narrow(weights)) => {
                self.propagate(n, targets, weights)
            }
            (TargetRows::Narrow(targets), WeightRows::Wide(weights)) => {
                self.propagate(n, targets, weights)
            }
            (TargetRows::Wide(targets), WeightRows::Narrow(weights)) => {
                self.propagate(n, targets, weights)
            }
            (TargetRows::Wide(targets), WeightRows::Wide(weights)) => {
                self.propagate(n, targets, weights)
            }
        };
        let raw: Vec<usize> = (0..n).map(|u| memories.dominant(u)).collect();
        let partition = Partition::from_labels(&raw);
        obs::metrics()
            .counter("slpa.iterations")
            .incr(self.config.iterations as u64);
        // Every round, each listener hears one utterance per adjacency
        // entry of its row.
        obs::metrics()
            .counter("slpa.utterances")
            .incr((self.config.iterations * graph.edge_count()) as u64);
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
        SlpaResult { partition }
    }

    /// The speaker-listener rounds over `n` nodes, with the target width
    /// and the weights' id width fixed for the whole run: each listener
    /// reads its row without a branch on either width.
    fn propagate<T: Copy + Into<u32>, I: Copy + Into<u32>>(
        &self,
        n: usize,
        targets: RowTargets<'_, T>,
        weights: RowWeights<'_, I>,
    ) -> Memories {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut memories = Memories::new(n, self.config.iterations);
        let mut order: Vec<usize> = (0..n).collect();
        // The listener's tally, dense by label and all zero between
        // listeners; `voted` marks the labels uttered to the current
        // listener and `hits[..count]` lists them in order of first
        // utterance. At most `n` labels exist, so the store at
        // `hits[count]` stays in bounds even after all of them were heard.
        let mut tally = vec![0.0f64; n];
        let mut voted = vec![false; n];
        let mut hits = vec![0u32; n + 1];
        let mut ties: Vec<u32> = Vec::new();

        for _ in 0..self.config.iterations {
            shuffle(&mut order, &mut rng);
            for &listener in &order {
                let lu = NodeId::new(listener);
                let neighbors = targets.of(lu);
                if neighbors.len() == 0 {
                    continue;
                }
                // `0.0 + w` is `w` bit for bit except at `w = −0.0`, whose
                // `+0.0` compares equal: a first utterance needs no branch.
                // Its label is stored at `hits[count]` and kept by the
                // increment; a repeated label's store is overwritten.
                let mut count = 0;
                for (speaker, w) in neighbors.zip(weights.of(lu)) {
                    let label = memories.speak(speaker.index(), &mut rng);
                    let slot = label as usize;
                    tally[slot] += w;
                    hits[count] = label;
                    count += usize::from(!voted[slot]);
                    voted[slot] = true;
                }
                let heard = &hits[..count];
                let mut max_w = f64::NEG_INFINITY;
                for &label in heard {
                    voted[label as usize] = false;
                    max_w = max_w.max(tally[label as usize]);
                }
                // Ties are broken uniformly at random (deterministic via
                // the seeded rng): a fixed tie-break such as "smallest
                // label" systematically floods low node ids across weak
                // inter-community bridges and merges planted blocks.
                // The filter zeroes every tally it reads; sorting the ties
                // alone keeps the draw independent of the utterance order.
                ties.extend(
                    heard.iter().copied().filter(|&label| {
                        std::mem::take(&mut tally[label as usize]) >= max_w - 1e-12
                    }),
                );
                ties.sort_unstable();
                let winner = ties[below(ties.len() as u64, &mut rng) as usize];
                ties.clear();
                memories.add(listener, winner);
            }
        }

        memories
    }
}

/// Uniform in `[0, span)` for `span > 0`, by Lemire's multiply-shift: the
/// high word of `next_u64() · span`, redrawn while the low word is under
/// `2⁶⁴ mod span`. That threshold is below `span`, so its division runs
/// only when the low word is too — about `span` draws in 2⁶⁴ — and every
/// draw is accepted or rejected exactly as the vendored `rand`'s
/// `gen_range` decides, from the same words.
fn below<R: RngCore>(span: u64, rng: &mut R) -> u64 {
    let mut wide = u128::from(rng.next_u64()) * u128::from(span);
    if (wide as u64) < span {
        let threshold = span.wrapping_neg() % span;
        while (wide as u64) < threshold {
            wide = u128::from(rng.next_u64()) * u128::from(span);
        }
    }
    (wide >> 64) as u64
}

/// Fisher–Yates shuffle (avoids pulling in rand's `SliceRandom` trait for
/// one call site and keeps the sampling sequence explicit).
fn shuffle<R: RngCore>(xs: &mut [usize], rng: &mut R) {
    for i in (1..xs.len()).rev() {
        let j = below(i as u64 + 1, rng) as usize;
        xs.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
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
    fn utterances_count_one_draw_per_adjacency_entry_per_round() {
        // Other tests of this process feed the same global counter, so
        // only the lower bound is exact here.
        let g = two_cliques_with_bridge();
        let utterances = obs::metrics().counter("slpa.utterances");
        let before = utterances.get();
        Slpa::new(SlpaConfig::default()).run(&g);
        assert!(utterances.get() - before >= 30 * 26);
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

    /// Replays a fixed list of words, cyclically, and counts how many it
    /// has handed out.
    struct Script {
        words: Vec<u64>,
        at: usize,
    }

    impl RngCore for Script {
        fn next_u64(&mut self) -> u64 {
            let word = self.words[self.at % self.words.len()];
            self.at += 1;
            word
        }
    }

    /// Words for `span` that reach every branch of the sampler: `0`, whose
    /// low word is `0` (rejected whenever `2⁶⁴ mod span > 0`), twice in a
    /// row; `⌊(2⁶⁴ − 1) / span⌋ + 1`, whose low word is under `span`, so
    /// the threshold is computed; the extremes; and a seeded run of
    /// ordinary words.
    fn script_for(span: u64) -> Vec<u64> {
        let past = (u64::MAX / span).wrapping_add(1);
        let mut words = vec![0, 0, 7, past, u64::MAX, 1, 0];
        let mut rng = StdRng::seed_from_u64(span);
        words.extend((0..32).map(|_| rng.next_u64()));
        words
    }

    #[test]
    fn below_matches_gen_range_word_for_word() {
        // The speaker and tie draws replace `gen_range(0..span)`, the
        // shuffle's `gen_range(0..=span - 1)`.
        for span in 1..=64u64 {
            let words = script_for(span);
            let script = || Script {
                words: words.clone(),
                at: 0,
            };
            let (mut ours, mut half_open, mut inclusive) = (script(), script(), script());
            for draw in 0..64 {
                let got = below(span, &mut ours);
                assert_eq!(
                    got,
                    half_open.gen_range(0..span),
                    "span {span}, draw {draw}"
                );
                let last = span as usize - 1;
                assert_eq!(
                    got as usize,
                    inclusive.gen_range(0..=last),
                    "span {span}, draw {draw}"
                );
                assert_eq!(
                    (ours.at, ours.at),
                    (half_open.at, inclusive.at),
                    "span {span}, draw {draw}"
                );
            }
        }
        // Span 3: 2⁶⁴ mod 3 = 1, so a first word of 0 (low word 0) is
        // redrawn, and 7 · 3 = 21 has high word 0.
        let mut script = Script {
            words: vec![0, 7],
            at: 0,
        };
        assert_eq!(below(3, &mut script), 0);
        assert_eq!(script.at, 2);
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
    }

    /// The Fisher–Yates shuffle as it drew before SLPA's own sampler.
    fn reference_shuffle<R: Rng>(xs: &mut [usize], rng: &mut R) {
        for i in (1..xs.len()).rev() {
            let j = rng.gen_range(0..=i);
            xs.swap(i, j);
        }
    }

    /// `Slpa::run` over `(label, count)` memories, a freshly allocated,
    /// binary-search-inserted vote list per listener and `gen_range` for
    /// every draw: the loop the flat layout, the branch-free tally and the
    /// module's sampler replaced. Returns the raw dominant labels.
    fn reference_run(config: SlpaConfig, graph: &DiGraph) -> Vec<usize> {
        let n = graph.node_count();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut memories: Vec<Memory> = (0..n).map(Memory::with_initial).collect();
        let mut order: Vec<usize> = (0..n).collect();
        for _ in 0..config.iterations {
            reference_shuffle(&mut order, &mut rng);
            for &listener in &order {
                let lu = NodeId::new(listener);
                let neighbors = graph.out_neighbors(lu);
                if neighbors.len() == 0 {
                    continue;
                }
                let mut votes: Vec<(usize, f64)> = Vec::with_capacity(neighbors.len());
                for (speaker, w) in neighbors.zip(graph.out_weights(lu)) {
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
        memories.iter().map(Memory::dominant).collect()
    }

    /// The flat memories reproduce the `(label, count)` loop exactly —
    /// same RNG stream, same partition — on weighted graphs of up to 60
    /// nodes with isolated nodes; on all-equal weights, where every vote
    /// is a tie; on weights of `0.0`, `−0.0` and `5e-324`, which the tally
    /// starts from zero rather than from the first utterance; and with a
    /// hub of at least 100 neighbours, whose votes hear many labels
    /// before the tie filter.
    #[test]
    fn flat_memories_match_label_count_reference() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            // A hub under all-equal weights (every vote a tie) and under
            // random ones.
            let hub = matches!(case % 8, 3 | 4);
            let n = if hub {
                rng.gen_range(101..161u32)
            } else {
                rng.gen_range(1..61u32)
            };
            let weight = |rng: &mut StdRng| match case % 4 {
                0 => 1.0,
                1 => [0.0, -0.0, 5e-324, 1.0][rng.gen_range(0..4usize)],
                _ => rng.gen_range(0.05f64..2.0),
            };
            let mut b = GraphBuilder::new(n as usize);
            let mut linked = BTreeSet::new();
            if hub {
                // Node 0 hears from at least 100 others.
                for v in 1..rng.gen_range(101..=n) {
                    linked.insert((0, v));
                    let w = weight(&mut rng);
                    b.add_undirected_edge(NodeId(0), NodeId(v), w);
                }
            }
            // Sparse enough that some nodes stay isolated.
            for _ in 0..rng.gen_range(0..3 * n as usize) {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                // A pair linked twice would sum to a weight of its own.
                if u == v || !linked.insert((u.min(v), u.max(v))) {
                    continue;
                }
                let w = weight(&mut rng);
                b.add_undirected_edge(NodeId(u), NodeId(v), w);
            }
            let g = b.build();
            for iterations in [1, 5, 30] {
                for seed in [case, case + 1000, 0x51_9A] {
                    let config = SlpaConfig { iterations, seed };
                    assert_eq!(
                        Slpa::new(config).run(&g).partition,
                        Partition::from_labels(&reference_run(config, &g)),
                        "case {case}: n {n}, {iterations} rounds, seed {seed}"
                    );
                }
            }
        }
    }

    /// A graph of more than 65 536 distinct weights carries 32-bit weight
    /// ids; SLPA reads them through its other instance and still votes
    /// as the reference does. 400 nodes, each undirected pair `u < v` of
    /// the first 33 000 with its own weight, so the table holds 66 000.
    #[test]
    fn wide_weight_ids_vote_as_the_reference() {
        let mut b = GraphBuilder::new(400);
        let pairs = (0..400u32).flat_map(|u| (u + 1..400).map(move |v| (u, v)));
        for (i, (u, v)) in pairs.take(33_000).enumerate() {
            let w = 1.0 + i as f64 / f64::from(1 << 20);
            b.add_edge(NodeId(u), NodeId(v), w);
            b.add_edge(NodeId(v), NodeId(u), 2.0 * w);
        }
        let g = b.build();
        assert!(matches!(g.row_weights(), WeightRows::Wide(_)));
        let config = SlpaConfig {
            iterations: 3,
            seed: 7,
        };
        assert_eq!(
            Slpa::new(config).run(&g).partition,
            Partition::from_labels(&reference_run(config, &g))
        );
    }

    /// Graphs of 65 536 nodes carry 16-bit targets and of 65 537 nodes
    /// 32-bit ones; SLPA reads each through its own instance — the
    /// larger also with more than 65 536 distinct weights, so 32-bit ids —
    /// and votes as the reference does. Every edge joins two of the 400
    /// highest ids, where a target cut to 16 bits would name another node.
    #[test]
    fn both_target_widths_vote_as_the_reference() {
        let narrow = 1usize << 16;
        for (n, distinct) in [(narrow, false), (narrow + 1, false), (narrow + 1, true)] {
            let base = n as u32 - 400;
            let mut b = GraphBuilder::new(n);
            let pairs = (0..400u32).flat_map(|u| (u + 1..400).map(move |v| (u, v)));
            if distinct {
                // The pairs of `wide_weight_ids_vote_as_the_reference`.
                for (i, (u, v)) in pairs.take(33_000).enumerate() {
                    let w = 1.0 + i as f64 / f64::from(1 << 20);
                    b.add_edge(NodeId(base + u), NodeId(base + v), w);
                    b.add_edge(NodeId(base + v), NodeId(base + u), 2.0 * w);
                }
            } else {
                // Blocks of 40, each node also tied to its twin in the
                // next block.
                for (u, v) in pairs.filter(|&(u, v)| u / 40 == v / 40 || v == u + 40) {
                    let w = if u / 40 == v / 40 { 1.0 } else { 0.1 };
                    b.add_undirected_edge(NodeId(base + u), NodeId(base + v), w);
                }
            }
            let g = b.build();
            assert_eq!(matches!(g.row_targets(), TargetRows::Wide(_)), n > narrow);
            assert_eq!(matches!(g.row_weights(), WeightRows::Wide(_)), distinct);
            let config = SlpaConfig {
                iterations: 3,
                seed: 7,
            };
            assert_eq!(
                Slpa::new(config).run(&g).partition,
                Partition::from_labels(&reference_run(config, &g)),
                "{n} nodes, distinct weights: {distinct}"
            );
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
