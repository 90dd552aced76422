//! The end-to-end inference flow.
//!
//! [`infer_embeddings`] chains the paper's stages exactly:
//!
//! 1. build the frequent co-occurrence graph from the training cascades
//!    (`w(u,v) = 2 c(u,v)/(c(u)+c(v))`, Section IV-B);
//! 2. detect communities on its undirected view with SLPA;
//! 3. run Algorithm 2 (hierarchical community-parallel projected
//!    gradient ascent) to maximise the cascade likelihood.
//!
//! Physical parallelism is whatever rayon pool is installed around the
//! call — the Figure 10/13 harnesses wrap it in pools of 1..64 threads.

use viralcast_community::Partition;
use viralcast_embed::{infer, refit, Embeddings, HierarchicalConfig, InferenceReport};
use viralcast_obs::{self as obs, StageTimings};
use viralcast_propagation::CascadeSet;

pub use viralcast_embed::{detect_communities, InferOptions, UpdateError};

/// Everything the pipeline produced.
#[derive(Clone, Debug)]
pub struct InferenceOutcome {
    /// The inferred influence/selectivity embeddings (original node
    /// order).
    pub embeddings: Embeddings,
    /// The SLPA communities that drove the parallel decomposition.
    pub partition: Partition,
    /// The per-level optimiser trace.
    pub report: InferenceReport,
    /// Aggregated wall-clock span tree, rooted at `"infer"` with
    /// `cooccurrence`, `slpa` and `hierarchical` children.
    pub timings: StageTimings,
}

/// Runs the full pipeline on a training corpus.
pub fn infer_embeddings(cascades: &CascadeSet, options: &InferOptions) -> InferenceOutcome {
    let recorder = obs::Recorder::new("infer");
    let (partition, embeddings, report) = {
        let _recording = recorder.install();
        let partition = detect_communities(cascades, options);
        let config = HierarchicalConfig {
            topics: options.topics,
            ..options.hierarchical
        };
        let (embeddings, report) = infer(cascades, &partition, &config);
        (partition, embeddings, report)
    };
    // The hierarchical stage recorded into its own tree; graft it under
    // the pipeline's so the run report shows one nested hierarchy.
    recorder.attach_child(report.timings.clone());

    InferenceOutcome {
        embeddings,
        partition,
        report,
        timings: recorder.finish(),
    }
}

/// Incrementally updates existing embeddings with newly arrived
/// cascades — the online counterpart of [`infer_embeddings`] for the
/// paper's deployment story (Figure 5: historical cascades train the
/// model, new cascades keep arriving).
///
/// The update runs projected gradient ascent over the *new* cascades
/// only, warm-started from `embeddings`, with communities re-detected on
/// the new co-occurrence structure. This is much cheaper than refitting
/// the full history. Nodes absent from the new data receive no data
/// gradient; with `hierarchical.pgd.l1_penalty = 0` they are left
/// exactly untouched, while the pipeline's default L1 decays them
/// slightly per update (old knowledge fades unless refreshed — set the
/// penalty to zero if that is not wanted).
///
/// # Errors
/// Returns an [`UpdateError`] — without touching the model — when the
/// corpus universe or topic count disagrees with the embeddings, or when
/// a cascade references a node beyond the embedding rows.
pub fn update_embeddings(
    embeddings: &Embeddings,
    new_cascades: &CascadeSet,
    options: &InferOptions,
) -> Result<InferenceOutcome, UpdateError> {
    let recorder = obs::Recorder::new("infer");
    let (partition, embeddings, report) = {
        let _recording = recorder.install();
        refit(embeddings, new_cascades, options)?
    };
    recorder.attach_child(report.timings.clone());

    Ok(InferenceOutcome {
        embeddings,
        partition,
        report,
        timings: recorder.finish(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{SbmExperiment, SbmExperimentConfig};
    use viralcast_community::metrics::nmi;
    use viralcast_graph::{NodeId, SbmConfig};

    fn small_experiment(seed: u64) -> SbmExperiment {
        // Local-spreading regime: rate recovery is only identifiable
        // when cascades respect the community structure, so these tests
        // pin the planted rates instead of using the high-variance
        // prediction defaults.
        SbmExperiment::build(
            &SbmExperimentConfig {
                sbm: SbmConfig {
                    nodes: 120,
                    community_size: 20,
                    intra_prob: 0.4,
                    inter_prob: 0.003,
                },
                cascades: 300,
                planted: viralcast_propagation::PlantedConfig {
                    on_topic: 1.2,
                    off_topic: 0.02,
                    jitter: 0.3,
                },
                ..SbmExperimentConfig::default()
            },
            seed,
        )
    }

    #[test]
    fn pipeline_produces_full_size_embeddings() {
        let e = small_experiment(1);
        let out = infer_embeddings(
            e.train(),
            &InferOptions {
                topics: 4,
                ..InferOptions::default()
            },
        );
        assert_eq!(out.embeddings.node_count(), 120);
        assert_eq!(out.embeddings.topic_count(), 4);
        assert!(!out.report.levels.is_empty());
    }

    #[test]
    fn slpa_recovers_planted_communities_from_cascades_alone() {
        // The pipeline never sees the graph — only cascades — yet the
        // co-occurrence communities should align with the planted
        // blocks. Run in the local-spreading regime, where community
        // structure dominates the cascades.
        let e = SbmExperiment::build(
            &SbmExperimentConfig {
                sbm: SbmConfig {
                    nodes: 120,
                    community_size: 20,
                    intra_prob: 0.4,
                    inter_prob: 0.003,
                },
                cascades: 300,
                planted: viralcast_propagation::PlantedConfig {
                    on_topic: 1.2,
                    off_topic: 0.02,
                    jitter: 0.3,
                },
                ..SbmExperimentConfig::default()
            },
            2,
        );
        let out = infer_embeddings(e.train(), &InferOptions::default());
        let planted = Partition::from_labels(&e.planted_membership());
        let score = nmi(&out.partition, &planted);
        assert!(score > 0.7, "NMI {score} too low");
    }

    #[test]
    fn inferred_rates_separate_intra_from_inter() {
        let e = small_experiment(3);
        let out = infer_embeddings(
            e.train(),
            &InferOptions {
                topics: 6,
                ..InferOptions::default()
            },
        );
        let membership = e.planted_membership();
        // Mean inferred rate over sampled intra vs inter pairs.
        let mut intra = (0.0, 0);
        let mut inter = (0.0, 0);
        for u in (0..120).step_by(3) {
            for v in (0..120).step_by(3) {
                if u == v {
                    continue;
                }
                let r = out.embeddings.rate(NodeId::new(u), NodeId::new(v));
                if membership[u] == membership[v] {
                    intra = (intra.0 + r, intra.1 + 1);
                } else {
                    inter = (inter.0 + r, inter.1 + 1);
                }
            }
        }
        let intra_mean = intra.0 / intra.1 as f64;
        let inter_mean = inter.0 / inter.1 as f64;
        assert!(
            intra_mean > 3.0 * inter_mean,
            "inferred contrast too weak: intra {intra_mean} vs inter {inter_mean}"
        );
    }

    #[test]
    fn likelihood_improves_at_leaf_level() {
        let e = small_experiment(4);
        let out = infer_embeddings(e.train(), &InferOptions::default());
        let leaf = &out.report.levels[0];
        assert!(leaf.epochs > 0);
        assert!(leaf.final_ll.is_finite());
    }

    #[test]
    fn deterministic_end_to_end() {
        let e = small_experiment(5);
        let opts = InferOptions::default();
        let a = infer_embeddings(e.train(), &opts);
        let b = infer_embeddings(e.train(), &opts);
        assert_eq!(a.embeddings, b.embeddings);
        assert_eq!(a.partition, b.partition);
    }

    #[test]
    fn detected_communities_are_pinned() {
        // Printed at the commit before the co-occurrence count went
        // row-wise and SLPA's memories flat; the chain must keep producing
        // it. Thirty rounds recover the six planted blocks; two rounds
        // have not converged and follow the RNG stream draw by draw.
        let e = small_experiment(5);
        let mut options = InferOptions::default();
        let blocks: Vec<usize> = (0..120).map(|u| u / 20).collect();
        assert_eq!(detect_communities(e.train(), &options).membership(), blocks);

        options.slpa.iterations = 2;
        #[rustfmt::skip]
        let two_rounds: [usize; 120] = [
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 0, 0, 3,
            4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4,
            5, 5, 6, 5, 6, 6, 6, 6, 5, 5, 5, 6, 5, 5, 5, 5, 5, 5, 5, 5,
            7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7,
            8, 8, 8, 8, 8, 8, 8, 8, 8, 9, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8,
            10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
        ];
        assert_eq!(
            detect_communities(e.train(), &options).membership(),
            two_rounds
        );
    }

    #[test]
    fn detected_communities_are_pinned_at_training_scale() {
        // The shape of one viralbench `train_sbm` job (1000 nodes in the
        // local regime, 400 training cascades): ~0.26 M adjacency entries,
        // so a vote hears hundreds of labels in the early rounds. Printed
        // at the commit before SLPA's tally went branch-free and its draws
        // left `gen_range`.
        let e = SbmExperiment::build(
            &SbmExperimentConfig {
                sbm: SbmConfig {
                    nodes: 1000,
                    community_size: 40,
                    intra_prob: 0.2,
                    inter_prob: 0.001,
                },
                cascades: 800,
                train_fraction: 0.5,
                planted: viralcast_propagation::PlantedConfig {
                    on_topic: 1.2,
                    off_topic: 0.02,
                    jitter: 0.3,
                },
                ..SbmExperimentConfig::default()
            },
            1,
        );
        assert_eq!(e.train().len(), 400);
        let partition = detect_communities(e.train(), &InferOptions::default());
        let fold = partition
            .membership()
            .iter()
            .fold(0u64, |h, &c| h.rotate_left(5) ^ c as u64);
        assert_eq!(
            (partition.community_count(), fold),
            (24, 14892686624909386644)
        );
    }

    #[test]
    fn fitted_model_is_pinned() {
        // Printed at the commit before the optimiser's step, exit
        // threshold and clamp became constants of `pgd.rs`; a change
        // that is not meant to move the fit must keep producing it, and
        // one that is regenerates these three numbers once.
        let out = infer_embeddings(small_experiment(5).train(), &InferOptions::default());
        assert_eq!(out.report.final_ll().to_bits(), 4652976049784301576); // 1196.266188787764
        let epochs: usize = out.report.levels.iter().map(|l| l.epochs).sum();
        assert_eq!(epochs, 848);
        let fold = out
            .embeddings
            .influence_matrix()
            .iter()
            .chain(out.embeddings.selectivity_matrix())
            .fold(0u64, |h, x| h.rotate_left(5) ^ x.to_bits());
        assert_eq!(fold, 13957234986472255147);
    }

    #[test]
    fn every_stage_has_a_span() {
        let e = small_experiment(1);
        let out = infer_embeddings(e.train(), &InferOptions::default());
        let stages: Vec<&str> = out
            .timings
            .children
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(stages, ["cooccurrence", "slpa", "hierarchical"]);
        // The optimiser's tree is grafted in, so its seconds live in
        // its children.
        let hierarchical = out.timings.child("hierarchical").unwrap();
        let sum = out.timings.seconds_of(&["cooccurrence"])
            + out.timings.seconds_of(&["slpa"])
            + hierarchical.subtree_seconds();
        assert!(
            (sum - out.timings.child_seconds()).abs() < 1e-9,
            "stages {sum} vs total {}",
            out.timings.child_seconds()
        );
    }

    #[test]
    fn incremental_update_improves_on_new_data() {
        use viralcast_embed::likelihood::corpus_log_likelihood;
        use viralcast_embed::subcascade::IndexedCascade;
        let e = small_experiment(6);
        let (old, new) = e.train().split_at(e.train().len() / 2);
        let opts = InferOptions::default();
        let base = infer_embeddings(&old, &opts);
        let updated = update_embeddings(&base.embeddings, &new, &opts).unwrap();

        let indexed: Vec<IndexedCascade> = new
            .cascades()
            .iter()
            .filter(|c| c.len() >= 2)
            .map(IndexedCascade::from_cascade)
            .collect();
        let ll = |emb: &Embeddings| {
            corpus_log_likelihood(
                &indexed,
                emb.influence_matrix(),
                emb.selectivity_matrix(),
                opts.topics,
            )
        };
        assert!(
            ll(&updated.embeddings) > ll(&base.embeddings),
            "update did not improve the new-data likelihood ({} vs {})",
            ll(&updated.embeddings),
            ll(&base.embeddings)
        );
    }

    #[test]
    fn incremental_update_leaves_untouched_nodes_alone() {
        use viralcast_propagation::{Cascade, Infection};
        let e = small_experiment(7);
        // Without L1 decay, rows with no data gradient must be frozen.
        let mut opts = InferOptions::default();
        opts.hierarchical.pgd.l1_penalty = 0.0;
        let base = infer_embeddings(e.train(), &opts);
        // A tiny new corpus touching only nodes 0 and 1.
        let new = CascadeSet::new(
            120,
            vec![Cascade::new(vec![Infection::new(0u32, 0.0), Infection::new(1u32, 0.2)]).unwrap()],
        );
        let updated = update_embeddings(&base.embeddings, &new, &opts).unwrap();
        for u in 2..120u32 {
            let u = NodeId(u);
            assert_eq!(
                updated.embeddings.influence(u),
                base.embeddings.influence(u),
                "node {u} was modified without data"
            );
        }
    }

    #[test]
    fn incremental_update_rejects_topic_change() {
        let e = small_experiment(8);
        let opts = InferOptions::default();
        let base = infer_embeddings(e.train(), &opts);
        let other = InferOptions {
            topics: opts.topics + 1,
            ..opts
        };
        let err = update_embeddings(&base.embeddings, e.train(), &other).unwrap_err();
        assert_eq!(
            err,
            UpdateError::TopicMismatch {
                embedding_topics: opts.topics,
                requested_topics: opts.topics + 1,
            }
        );
        assert!(err.to_string().contains("topic count cannot change"));
    }

    #[test]
    fn incremental_update_rejects_universe_mismatch() {
        let e = small_experiment(9);
        let opts = InferOptions::default();
        let base = infer_embeddings(e.train(), &opts);
        let foreign = CascadeSet::new(121, Vec::new());
        let err = update_embeddings(&base.embeddings, &foreign, &opts).unwrap_err();
        assert_eq!(
            err,
            UpdateError::UniverseMismatch {
                embedding_nodes: 120,
                corpus_nodes: 121,
            }
        );
    }

    #[test]
    fn incremental_update_rejects_out_of_range_nodes() {
        // `CascadeSet::new` only debug-asserts node bounds, and corpora
        // that arrive through serde skip the constructor entirely — build
        // such an inconsistent corpus the same way a bad file would.
        let e = small_experiment(10);
        let opts = InferOptions::default();
        let base = infer_embeddings(e.train(), &opts);
        let corpus: CascadeSet = serde_json::from_str(
            r#"{
                "node_count": 120,
                "cascades": [
                    {"infections": [
                        {"node": 0, "time": 0.0},
                        {"node": 500, "time": 1.0}
                    ]}
                ]
            }"#,
        )
        .unwrap();
        let err = update_embeddings(&base.embeddings, &corpus, &opts).unwrap_err();
        assert_eq!(
            err,
            UpdateError::NodeOutOfRange {
                node: 500,
                node_count: 120,
            }
        );
        assert!(err.to_string().contains("outside the declared universe"));
    }
}
