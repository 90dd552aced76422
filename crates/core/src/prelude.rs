//! Convenience re-exports: `use viralcast::prelude::*;` pulls in the
//! types every pipeline touches.

pub use crate::experiment::{SbmExperiment, SbmExperimentConfig};
pub use crate::influencers::{top_influencers, topic_influencers, InfluencerRank};
pub use crate::pipeline::{
    infer_embeddings, update_embeddings, InferOptions, InferenceOutcome, UpdateError,
};

pub use viralcast_community::{Balance, Dendrogram, MergeHierarchy, Partition, Slpa, SlpaConfig};
pub use viralcast_embed::{
    infer, infer_sequential, infer_warm, Embeddings, HierarchicalConfig, InferenceReport, PgdConfig,
};
pub use viralcast_gdelt::{GdeltConfig, GdeltWorld, Mention, MentionTable, NewsSite, Region};
pub use viralcast_graph::{
    BackboneGraph, CooccurrenceGraph, DiGraph, GraphBuilder, NodeId, SbmConfig,
};
pub use viralcast_model::{
    CascadeModel, EmbeddingBackend, NetInfBackend, NetInfConfig, RowBlock, BACKENDS,
};
pub use viralcast_obs::{MetricsRegistry, Recorder, RunReport, Span, StageTimings};
pub use viralcast_predict::pipeline::{extract_dataset, Dataset};
pub use viralcast_predict::{
    cross_validate, extract_features, threshold_sweep, CascadeFeatures, LinearSvm, PredictionTask,
    StandardScaler, SvmConfig, SweepPoint,
};
pub use viralcast_propagation::{
    planted_embeddings, Cascade, CascadeSet, EmbeddingRates, Exponential, HazardFunction,
    Infection, PlantedConfig, RateProvider, SimulationConfig, Simulator,
};
