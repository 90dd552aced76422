//! The paper's primary contribution: influence/selectivity node
//! embeddings inferred from cascades by community-parallel projected
//! gradient ascent.
//!
//! Every node `u` carries an influence vector `A_u ∈ R≥0^K` and a
//! selectivity vector `B_u ∈ R≥0^K`; the hazard of `u → v` transmission
//! is `⟨A_u, B_v⟩` (eqs. 6–7). Maximum-likelihood estimation of `A` and
//! `B` from observed cascades (eq. 8–11) proceeds by projected gradient
//! ascent with the linear-time gradient sweeps of eqs. 12–16, and is
//! parallelised across SLPA communities exactly as Algorithms 1 and 2
//! prescribe: workers own disjoint row blocks of `A` and `B`, so there
//! are no write-write conflicts and no locks.
//!
//! The `n × K` matrix pair itself, [`Embeddings`], is the rate model the
//! simulator draws from as well, so it lives in `viralcast-propagation`
//! and is re-exported here.
//!
//! Module map:
//!
//! * [`likelihood`] — eq. 8 in `O(s·K)` per cascade.
//! * [`gradient`] — eqs. 12–16 via prefix/suffix sweeps, also `O(s·K)`.
//! * [`subcascade`] — Algorithm 1 lines 1–11: splitting cascades into
//!   per-community sub-cascades expressed in local row indices.
//! * [`pgd`] — the projected-gradient-ascent inner loop with adaptive
//!   step halving and early stopping (step, exit threshold and clamp are
//!   constants of that file).
//! * [`parallel`] — Algorithm 1: one worker per community over disjoint
//!   matrix blocks (rayon scope).
//! * [`hierarchical`] — Algorithm 2: the level-by-level merge schedule,
//!   warm-starting each level from the previous one's embeddings.
//! * [`refit`] — the pipeline options and the warm refit (communities
//!   re-detected on the fresh batch, then [`hierarchical`] warm-started)
//!   behind every incremental update.
//!
//! The baselines the paper argues against (Hogwild, the `O(n²)` per-link
//! rate model) live with the ablations that run them, in `viralcast-bench`.

#![warn(missing_docs)]

pub mod gradient;
pub mod hierarchical;
pub mod likelihood;
pub mod parallel;
pub mod pgd;
pub mod refit;
pub mod subcascade;

pub use hierarchical::{
    infer, infer_sequential, infer_warm, initial_embeddings, HierarchicalConfig, InferenceReport,
    LevelSummary,
};
pub use pgd::{PgdConfig, PgdReport};
pub use refit::{detect_communities, refit, InferOptions, UpdateError};
pub use subcascade::IndexedCascade;
pub use viralcast_propagation::{EmbeddingFileError, Embeddings, EMBEDDINGS_FORMAT};
