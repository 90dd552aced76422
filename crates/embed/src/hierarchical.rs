//! Algorithm 2 — hierarchical community-parallel inference.
//!
//! Starting from the SLPA communities as leaves, the algorithm runs
//! Algorithm 1 on every community of a level in parallel, joins
//! communities pairwise, and repeats one level up — "the derived
//! influence and selectivity vectors in the previous level then become
//! the initial values for the upper level" — terminating once the number
//! of communities drops to the threshold `q`.
//!
//! The worker count at level `ℓ` is the group count of that level; the
//! caller controls physical parallelism by installing a rayon pool of
//! the desired size around [`infer`] (that is exactly how the Figure
//! 10 and 11 harnesses sweep core counts).

use crate::parallel::{run_level, LevelReport};
use crate::pgd::{optimize, PgdConfig, PgdReport};
use crate::subcascade::{split_cascades, IndexedCascade};
use crate::Embeddings;
use rand::rngs::StdRng;
use rand::SeedableRng;
use viralcast_community::{MergeHierarchy, Partition};
use viralcast_obs::{self as obs, StageTimings};
use viralcast_propagation::CascadeSet;

/// Configuration of the hierarchical inference.
#[derive(Clone, Copy, Debug)]
pub struct HierarchicalConfig {
    /// Number of latent topics `K`.
    pub topics: usize,
    /// Stop once a level has at most this many groups (`q` in
    /// Algorithm 2). `1` runs all the way to the root.
    pub stop_groups: usize,
    /// Inner optimiser settings (shared by every group and level).
    pub pgd: PgdConfig,
    /// Seed for the embedding initialisation.
    pub seed: u64,
}

impl Default for HierarchicalConfig {
    fn default() -> Self {
        HierarchicalConfig {
            topics: 8,
            stop_groups: 1,
            pgd: PgdConfig::default(),
            seed: 0xCA5C,
        }
    }
}

/// Summary of one executed level. Wall-clock timings live in
/// [`InferenceReport::timings`] (`level.{i}` → `split`, `optimize`), not
/// here.
#[derive(Clone, Debug)]
pub struct LevelSummary {
    /// Level index in the merge tree (0 = SLPA leaves).
    pub level: usize,
    /// Number of parallel groups at this level.
    pub groups: usize,
    /// Total sub-cascades processed.
    pub subcascades: usize,
    /// Total optimiser epochs across groups.
    pub epochs: usize,
    /// Sum of group log-likelihoods after the level.
    pub final_ll: f64,
    /// Per-group optimiser reports, in group order — each carries the
    /// per-epoch objective trajectory (`ll_history`).
    pub group_reports: Vec<PgdReport>,
}

/// Full inference trace.
#[derive(Clone, Debug)]
pub struct InferenceReport {
    /// Per-level summaries, bottom to top.
    pub levels: Vec<LevelSummary>,
    /// Aggregated wall-clock span timings, rooted at `"hierarchical"`
    /// with one `level.{i}` child per executed level, each holding
    /// `split` and `optimize` children.
    pub timings: StageTimings,
}

impl InferenceReport {
    /// Total wall-clock seconds across levels.
    pub fn total_seconds(&self) -> f64 {
        self.timings.child_seconds()
    }

    /// Final log-likelihood of the last executed level.
    pub fn final_ll(&self) -> f64 {
        self.levels.last().map_or(0.0, |l| l.final_ll)
    }
}

/// The cold-start point of every fit: `n × config.topics` entries drawn
/// uniformly from `[0.01, 0.1)` under `config.seed`. Small and positive:
/// pairs that never co-occur in any cascade receive no gradient, so their
/// modelled rate stays at `⟨A_u, B_v⟩` of the init — it must start near
/// zero for the embeddings to separate communities.
pub fn initial_embeddings(n: usize, config: &HierarchicalConfig) -> Embeddings {
    let mut rng = StdRng::seed_from_u64(config.seed);
    Embeddings::random(n, config.topics, 0.01, 0.1, &mut rng)
}

/// Runs Algorithm 2: hierarchical community-parallel inference of the
/// influence/selectivity embeddings from `cascades`, guided by the leaf
/// `partition` (typically SLPA output on the co-occurrence graph).
///
/// Returns embeddings in the original node order plus the per-level
/// trace.
pub fn infer(
    cascades: &CascadeSet,
    partition: &Partition,
    config: &HierarchicalConfig,
) -> (Embeddings, InferenceReport) {
    let init = initial_embeddings(cascades.node_count(), config);
    infer_warm(cascades, partition, config, &init)
}

/// As [`infer`], but warm-started from existing embeddings instead of a
/// random initialisation — the engine of incremental updates: "the
/// derived influence and selectivity vectors … become the initial
/// values" applies across corpora just as it does across tree levels.
pub fn infer_warm(
    cascades: &CascadeSet,
    partition: &Partition,
    config: &HierarchicalConfig,
    init: &Embeddings,
) -> (Embeddings, InferenceReport) {
    assert_eq!(
        partition.node_count(),
        cascades.node_count(),
        "partition and corpus node universes differ"
    );
    assert_eq!(
        init.node_count(),
        cascades.node_count(),
        "initial embeddings and corpus node universes differ"
    );
    assert_eq!(
        init.topic_count(),
        config.topics,
        "initial embeddings and config disagree on K"
    );
    let hierarchy = MergeHierarchy::build(partition.clone());
    if hierarchy.level_count() == 0 {
        return (
            init.clone(),
            InferenceReport {
                levels: Vec::new(),
                timings: StageTimings::new("hierarchical"),
            },
        );
    }
    // Work in layout order so that every level's groups are contiguous
    // row blocks.
    let mut emb = init.reorder(hierarchy.node_layout());

    // A private recorder: callers (the pipeline, the CLI) graft the
    // returned tree into their own via `Recorder::attach_child`.
    let recorder = obs::Recorder::new("hierarchical");
    let mut levels = Vec::new();
    {
        let _recording = recorder.install();
        for level in hierarchy.levels_until(config.stop_groups) {
            let _level_span = obs::Span::enter(format!("level.{level}"));
            // `split_cascades` opens the nested "split" span itself.
            let groups = split_cascades(cascades, &hierarchy, level);

            let ranges = hierarchy.node_ranges(level);
            let report: LevelReport = {
                let _opt_span = obs::Span::enter("optimize");
                run_level(&mut emb, &ranges, &groups, &config.pgd)
            };

            obs::metrics().counter("hierarchical.levels").incr(1);
            obs::metrics()
                .histogram("hierarchical.level_groups", &[1.0, 4.0, 16.0, 64.0, 256.0])
                .record(ranges.len() as f64);
            obs::info(
                "hierarchical",
                "level finished",
                &[
                    ("level", level.into()),
                    ("groups", ranges.len().into()),
                    ("epochs", report.total_epochs().into()),
                    ("ll", report.total_ll().into()),
                ],
            );
            levels.push(LevelSummary {
                level,
                groups: ranges.len(),
                subcascades: groups.iter().map(Vec::len).sum(),
                epochs: report.total_epochs(),
                final_ll: report.total_ll(),
                group_reports: report.groups,
            });
        }
    }

    (
        emb.restore(hierarchy.node_layout()),
        InferenceReport {
            levels,
            timings: recorder.finish(),
        },
    )
}

/// The sequential baseline (`t_1` of the speedup measurements): one
/// optimiser over the whole matrix with whole cascades — equivalent to
/// Algorithm 2 run directly at the root of the tree.
pub fn infer_sequential(
    cascades: &CascadeSet,
    config: &HierarchicalConfig,
) -> (Embeddings, PgdReport) {
    let mut emb = initial_embeddings(cascades.node_count(), config);
    let indexed: Vec<IndexedCascade> = cascades
        .cascades()
        .iter()
        .filter(|c| c.len() >= 2)
        .map(IndexedCascade::from_cascade)
        .collect();
    let k = config.topics;
    let (a, b) = emb.matrices_mut();
    let report = optimize(&indexed, a, b, k, &config.pgd);
    (emb, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use viralcast_graph::NodeId;
    use viralcast_propagation::{Cascade, Infection};

    /// Two planted communities {0,1,2} and {3,4,5}; cascades are chains
    /// inside one community with community-specific delays.
    fn corpus(seed: u64, count: usize) -> CascadeSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cascades = Vec::new();
        for i in 0..count {
            let (base, dt) = if i % 2 == 0 { (0u32, 0.5) } else { (3u32, 2.0) };
            let jitter = 1.0 + 0.1 * rng.gen_range(-1.0..1.0f64);
            cascades.push(
                Cascade::new(vec![
                    Infection::new(base, 0.0),
                    Infection::new(base + 1, dt * jitter),
                    Infection::new(base + 2, 2.0 * dt * jitter),
                ])
                .unwrap(),
            );
        }
        CascadeSet::new(6, cascades)
    }

    fn two_block_partition() -> Partition {
        Partition::from_labels(&[0, 0, 0, 1, 1, 1])
    }

    #[test]
    fn single_community_matches_sequential() {
        // With the whole graph as one community, Algorithm 2 degenerates
        // to the sequential optimiser (same init seed ⇒ identical
        // matrices).
        let set = corpus(1, 40);
        let cfg = HierarchicalConfig {
            topics: 2,
            ..HierarchicalConfig::default()
        };
        let (seq_emb, seq_rep) = infer_sequential(&set, &cfg);
        let (hier_emb, hier_rep) = infer(&set, &Partition::whole(6), &cfg);
        assert_eq!(hier_rep.levels.len(), 1);
        assert_eq!(seq_emb, hier_emb);
        assert!((seq_rep.final_ll - hier_rep.final_ll()).abs() < 1e-9);
    }

    #[test]
    fn recovers_community_rates() {
        let set = corpus(2, 200);
        let cfg = HierarchicalConfig {
            topics: 2,
            ..HierarchicalConfig::default()
        };
        let (emb, _) = infer(&set, &two_block_partition(), &cfg);
        // Chains 0→1→2 with total delays ~0.5 per hop vs 3→4→5 with ~2.0:
        // the modelled rate within the fast community must exceed the
        // slow one's.
        let fast = emb.rate(NodeId(0), NodeId(1));
        let slow = emb.rate(NodeId(3), NodeId(4));
        assert!(
            fast > 1.5 * slow,
            "fast community rate {fast} vs slow {slow}"
        );
    }

    #[test]
    fn hierarchy_runs_all_levels_to_root() {
        let set = corpus(3, 30);
        let cfg = HierarchicalConfig {
            topics: 2,
            stop_groups: 1,
            ..HierarchicalConfig::default()
        };
        let (_, report) = infer(&set, &two_block_partition(), &cfg);
        // Two leaves: level 0 (2 groups) then level 1 (1 group).
        assert_eq!(report.levels.len(), 2);
        assert_eq!(report.levels[0].groups, 2);
        assert_eq!(report.levels[1].groups, 1);
    }

    #[test]
    fn stop_groups_cuts_schedule() {
        let set = corpus(4, 30);
        let cfg = HierarchicalConfig {
            topics: 2,
            stop_groups: 2,
            ..HierarchicalConfig::default()
        };
        let (_, report) = infer(&set, &two_block_partition(), &cfg);
        assert_eq!(report.levels.len(), 1);
        assert_eq!(report.levels[0].groups, 2);
    }

    #[test]
    fn deterministic_across_runs_and_thread_counts() {
        let set = corpus(5, 50);
        let cfg = HierarchicalConfig {
            topics: 3,
            ..HierarchicalConfig::default()
        };
        let p = two_block_partition();
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| infer(&set, &p, &cfg).0)
        };
        assert_eq!(run(1), run(3));
    }

    #[test]
    fn returned_embeddings_in_original_order() {
        // Use an asymmetric partition so the layout permutes nodes, then
        // verify that the community with fast cascades maps back to the
        // right original node ids.
        let set = corpus(6, 100);
        let p = Partition::from_labels(&[1, 1, 1, 0, 0, 0]); // reversed labels
        let cfg = HierarchicalConfig {
            topics: 2,
            ..HierarchicalConfig::default()
        };
        let (emb, _) = infer(&set, &p, &cfg);
        assert!(emb.rate(NodeId(0), NodeId(1)) > emb.rate(NodeId(3), NodeId(4)));
    }

    #[test]
    fn warm_start_improves_likelihood_across_levels() {
        let set = corpus(7, 80);
        let cfg = HierarchicalConfig {
            topics: 2,
            ..HierarchicalConfig::default()
        };
        let (_, report) = infer(&set, &two_block_partition(), &cfg);
        // Level 1 (whole graph) sees strictly more likelihood terms than
        // level 0 (which drops cross-community terms), so its LL is on a
        // different scale; the meaningful check is that both levels did
        // real work and converged.
        for level in &report.levels {
            assert!(level.epochs > 0);
            assert!(level.final_ll.is_finite());
        }
        assert!(report.total_seconds() >= 0.0);
    }

    #[test]
    #[should_panic(expected = "universes differ")]
    fn mismatched_partition_rejected() {
        let set = corpus(8, 5);
        let cfg = HierarchicalConfig::default();
        infer(&set, &Partition::whole(3), &cfg);
    }

    #[test]
    fn empty_corpus_returns_init() {
        let set = CascadeSet::new(4, vec![]);
        let cfg = HierarchicalConfig {
            topics: 2,
            ..HierarchicalConfig::default()
        };
        let (emb, report) = infer(&set, &Partition::whole(4), &cfg);
        assert_eq!(emb.node_count(), 4);
        assert_eq!(report.levels.len(), 1);
        assert_eq!(report.levels[0].subcascades, 0);
    }
}
