//! Stochastic information propagation: cascades, hazards and the
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
//! * [`hazard`] — delay distributions as hazard/survival function pairs.
//!   The paper's model is [`hazard::Exponential`].
//! * [`rates`] — pluggable `u → v` rate providers: raw edge weights or
//!   planted ground-truth influence/selectivity embeddings whose inner
//!   product is the rate, exactly the parametric form the inference stage
//!   recovers (eqs. 6–7).
//! * [`simulator`] — the event-driven simulator with an observation
//!   window: "after the observation window, the current spreading process
//!   will be terminated instantly" (Section VI-A).
//! * [`stats`] — cascade corpus statistics (size and duration
//!   distributions) used by the data-exploration figures.
//! * [`store`] — JSON-lines persistence for cascade corpora.

#![warn(missing_docs)]

pub mod cascade;
pub mod hazard;
pub mod rates;
pub mod simulator;
pub mod stats;
pub mod store;

pub use cascade::{Cascade, CascadeError, CascadeSet, Infection};
pub use hazard::{Exponential, HazardFunction};
pub use rates::{planted_embeddings, EdgeWeightRates, EmbeddingRates, PlantedConfig, RateProvider};
pub use simulator::{SimulationConfig, Simulator};
