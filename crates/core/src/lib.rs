//! **viralcast** — predicting viral news events in online media.
//!
//! A faithful, from-scratch reproduction of Lu & Szymanski, *Predicting
//! Viral News Events in Online Media* (ParSocial / IPDPSW 2017): node
//! influence/selectivity embeddings inferred from information cascades
//! by community-parallel projected gradient ascent, and viral-cascade
//! prediction from the embeddings of early adopters.
//!
//! The workspace is layered; this crate is the facade that wires the
//! layers into the paper's two experimental pipelines:
//!
//! * [`experiment`] — the Section VI-A synthetic setup: an SBM graph,
//!   planted ground-truth embeddings, and a simulated cascade corpus
//!   split into train/test.
//! * [`pipeline`] — the end-to-end flows: cascades → co-occurrence graph
//!   → SLPA communities → hierarchical parallel inference → embeddings,
//!   and embeddings + held-out cascades → early-adopter features →
//!   SVM → F1-vs-threshold curves.
//! * [`influencers`] — the "identification of the significant
//!   influencers" application from the introduction.
//! * [`chaos`] — the kill-loop resilience harness behind
//!   `viralcast chaos`: repeated SIGKILL/restart of a child daemon under
//!   load, with a final on-disk replay asserting zero acked-event loss
//!   (`BENCH_chaos.json`).
//! * [`cli`] — the lenient `--flag value` parser the examples and the
//!   figure harnesses share.
//! * [`prelude`] — one-line imports for the common types.
//!
//! Performance is measured by the standalone `benchmark/` package
//! (viralbench), not from inside this crate.
//!
//! # Quickstart
//!
//! ```
//! use viralcast::prelude::*;
//!
//! // A small synthetic world (Section VI-A, scaled down).
//! let experiment = SbmExperiment::build(&SbmExperimentConfig {
//!     sbm: SbmConfig { nodes: 200, community_size: 20, intra_prob: 0.3, inter_prob: 0.002 },
//!     cascades: 300,
//!     ..SbmExperimentConfig::default()
//! }, 42);
//!
//! // Infer influence/selectivity embeddings from the training corpus.
//! let options = InferOptions { topics: 4, ..InferOptions::default() };
//! let inference = infer_embeddings(experiment.train(), &options);
//! assert_eq!(inference.embeddings.node_count(), 200);
//!
//! // Predict which held-out cascades go viral from their early adopters.
//! let task = PredictionTask { window: experiment.config().observation_window, ..PredictionTask::default() };
//! let dataset = extract_dataset(&inference.embeddings, experiment.test(), &task);
//! let threshold = dataset.top_fraction_threshold(0.2);
//! let curve = threshold_sweep(&dataset, &[threshold], &task);
//! assert!(!curve.is_empty());
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod cli;
pub mod experiment;
pub mod influencers;
pub mod pipeline;
pub mod prelude;

pub use experiment::{SbmExperiment, SbmExperimentConfig};
pub use influencers::{top_influencers, topic_influencers, InfluencerRank};
pub use pipeline::{
    infer_embeddings, update_embeddings, InferOptions, InferenceOutcome, UpdateError,
};

// Re-export the component crates under stable names so downstream users
// need only one dependency.
pub use viralcast_cluster as cluster;
pub use viralcast_community as community;
pub use viralcast_embed as embed;
pub use viralcast_gdelt as gdelt;
pub use viralcast_graph as graph;
pub use viralcast_model as model;
pub use viralcast_obs as obs;
pub use viralcast_predict as predict;
pub use viralcast_propagation as propagation;
pub use viralcast_replica as replica;
pub use viralcast_serve as serve;
pub use viralcast_store as store;
