//! Stochastic information propagation: cascades, the rate model and the
//! continuous-time simulator.
//!
//! The paper (Section III-A) adopts the stochastic propagation model of
//! Kempe, Kleinberg & Tardos: a message spreads along links with random,
//! independently distributed delays, every node is infected at most once
//! (SI dynamics), and the realisation of one spreading process — a
//! time-ordered sequence of `(node, time)` infections — is a *cascade*
//! (Definition 1).
//!
//! Modules:
//!
//! * [`cascade`] — the [`Cascade`]/[`Infection`] types with their validity
//!   invariants (strictly increasing times, distinct nodes), plus
//!   [`CascadeSet`] for corpora of cascades.
//! * [`embedding`] — the rate model [`Embeddings`]: influence and
//!   selectivity matrices whose inner product `⟨A_u, B_v⟩` is the
//!   constant hazard of `u → v` (eqs. 6–7). It holds both a world's
//!   planted truth and the fit the inference stage recovers.
//! * [`rates`] — pluggable `u → v` rate providers (raw edge weights, or
//!   an [`Embeddings`]) and the planted ground truth.
//! * [`simulator`] — the event-driven simulator with exponential delays
//!   and an observation window: "after the observation window, the
//!   current spreading process will be terminated instantly"
//!   (Section VI-A).
//! * [`stats`] — cascade corpus statistics (size and duration
//!   distributions) used by the data-exploration figures.
//! * [`store`] — JSON-lines persistence for cascade corpora, and the
//!   atomic file write every whole-file save goes through.

#![warn(missing_docs)]

pub mod cascade;
pub mod embedding;
pub mod rates;
pub mod simulator;
pub mod stats;
pub mod store;

pub use cascade::{Cascade, CascadeError, CascadeSet, Infection};
pub use embedding::{dot, EmbeddingFileError, Embeddings, EMBEDDINGS_FORMAT};
pub use rates::{
    assert_valid_rates, planted_embeddings, EdgeWeightRates, PlantedConfig, RateProvider,
};
pub use simulator::{SimulationConfig, Simulator};
