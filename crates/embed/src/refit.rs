//! The warm refit every incremental update runs, and the pipeline
//! options it shares with the cold fit.
//!
//! `viralcast::pipeline::update_embeddings` and the serving layer's
//! embedding backend both retrain through [`refit`]: validate the fresh
//! batch against the existing embeddings, re-detect communities on its
//! co-occurrence graph ([`detect_communities`]), then warm-start
//! Algorithm 2 from the existing matrices. [`InferOptions::default`] is
//! the one statement of the pipeline's defaults, so a daemon retrains
//! the same way `viralcast infer` fits.

use serde::{Deserialize, Serialize};
use viralcast_community::{Partition, Slpa, SlpaConfig};
use viralcast_graph::cooccurrence::{CooccurrenceGraph, CooccurrenceOptions};
use viralcast_obs as obs;
use viralcast_propagation::CascadeSet;

use crate::hierarchical::{infer_warm, HierarchicalConfig, InferenceReport};
use crate::Embeddings;

/// Options for the full inference pipeline.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct InferOptions {
    /// Number of latent topics `K`.
    pub topics: usize,
    /// SLPA settings for community detection.
    pub slpa: SlpaConfig,
    /// Hierarchical optimiser settings (its `topics` field is
    /// overwritten by `self.topics`).
    pub hierarchical: HierarchicalConfig,
    /// Drop co-occurrence edges below this weight before community
    /// detection (denoises the SLPA input).
    pub min_cooccurrence_weight: f64,
}

impl Default for InferOptions {
    fn default() -> Self {
        let mut hierarchical = HierarchicalConfig::default();
        // Pipeline default departs from the bare paper objective in one
        // place: a modest L1 shrinkage on the embeddings. Node pairs
        // that never co-occur receive no data gradient, so without
        // shrinkage their modelled rate is frozen at the random init;
        // the penalty drives signal-free components to zero and lets
        // communities occupy disjoint topic subspaces (measured: ~3×
        // better intra/inter rate contrast on SBM worlds). Set
        // `hierarchical.pgd.l1_penalty = 0.0` for the exact eq. 9
        // objective.
        hierarchical.pgd.l1_penalty = 5.0;
        InferOptions {
            topics: 8,
            slpa: SlpaConfig::default(),
            hierarchical,
            min_cooccurrence_weight: 0.05,
        }
    }
}

/// Stages 1–2: co-occurrence graph, its symmetrised view, SLPA
/// communities. The per-stage spans (`cooccurrence`, `symmetrise`,
/// `slpa`) land in whatever recorder the caller has installed. Public so
/// cluster placement (`viralcast cluster-plan`) can align shard
/// ownership with the same communities inference parallelises over.
pub fn detect_communities(cascades: &CascadeSet, options: &InferOptions) -> Partition {
    let cooc = CooccurrenceGraph::build(
        cascades.node_count(),
        &cascades.node_sequences(),
        CooccurrenceOptions {
            successor_window: None,
            min_weight: options.min_cooccurrence_weight,
        },
    );
    let undirected = {
        let _span = obs::Span::enter("symmetrise");
        cooc.undirected()
    };
    Slpa::new(options.slpa).run(&undirected).partition
}

/// Why an incremental update was rejected before touching the model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UpdateError {
    /// The corpus declares a different node universe than the embeddings
    /// have rows for.
    UniverseMismatch {
        /// Rows in the existing embeddings.
        embedding_nodes: usize,
        /// `node_count` declared by the new corpus.
        corpus_nodes: usize,
    },
    /// `options.topics` differs from the embeddings' topic count.
    TopicMismatch {
        /// Topics in the existing embeddings.
        embedding_topics: usize,
        /// Topics requested by the options.
        requested_topics: usize,
    },
    /// A cascade infects a node outside the declared universe (possible
    /// when the corpus was deserialised rather than built through
    /// `CascadeSet::new`, whose bounds check is debug-only).
    NodeOutOfRange {
        /// The offending node id.
        node: u32,
        /// The declared universe size.
        node_count: usize,
    },
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::UniverseMismatch {
                embedding_nodes,
                corpus_nodes,
            } => write!(
                f,
                "embedding rows ({embedding_nodes}) and corpus universe \
                 ({corpus_nodes}) differ"
            ),
            UpdateError::TopicMismatch {
                embedding_topics,
                requested_topics,
            } => write!(
                f,
                "topic count cannot change across incremental updates \
                 (embeddings have {embedding_topics}, options request \
                 {requested_topics})"
            ),
            UpdateError::NodeOutOfRange { node, node_count } => write!(
                f,
                "cascade infects node {node}, outside the declared universe \
                 of {node_count} nodes"
            ),
        }
    }
}

impl std::error::Error for UpdateError {}

/// Refits `embeddings` on `fresh` only: communities re-detected on the
/// batch's co-occurrence structure, then hierarchical projected gradient
/// ascent warm-started from the existing matrices. Spans land in
/// whatever recorder the caller has installed.
///
/// # Errors
/// Returns an [`UpdateError`] — without touching the model — when the
/// corpus universe or topic count disagrees with the embeddings, or when
/// a cascade references a node beyond the embedding rows.
pub fn refit(
    embeddings: &Embeddings,
    fresh: &CascadeSet,
    options: &InferOptions,
) -> Result<(Partition, Embeddings, InferenceReport), UpdateError> {
    if embeddings.node_count() != fresh.node_count() {
        return Err(UpdateError::UniverseMismatch {
            embedding_nodes: embeddings.node_count(),
            corpus_nodes: fresh.node_count(),
        });
    }
    if embeddings.topic_count() != options.topics {
        return Err(UpdateError::TopicMismatch {
            embedding_topics: embeddings.topic_count(),
            requested_topics: options.topics,
        });
    }
    for cascade in fresh.cascades() {
        for infection in cascade.infections() {
            if infection.node.index() >= fresh.node_count() {
                return Err(UpdateError::NodeOutOfRange {
                    node: infection.node.0,
                    node_count: fresh.node_count(),
                });
            }
        }
    }
    let partition = detect_communities(fresh, options);
    let config = HierarchicalConfig {
        topics: options.topics,
        ..options.hierarchical
    };
    let (updated, report) = infer_warm(fresh, &partition, &config, embeddings);
    Ok((partition, updated, report))
}
