//! Graph substrate for the viralcast reproduction of *Predicting Viral News
//! Events in Online Media* (Lu & Szymanski, IPDPSW 2017).
//!
//! This crate provides everything the higher layers need from graph land:
//!
//! * [`NodeId`] — a compact, copyable node handle used across the workspace.
//! * [`DiGraph`] — an immutable, CSR-backed weighted directed graph, built
//!   through [`GraphBuilder`].
//! * [`sbm`] — the Stochastic Block Model generator used for every synthetic
//!   experiment in the paper (Section VI-A: n = 2000, α = 0.2, β = 0.001).
//! * [`powerlaw`] — Zipf/power-law sampling and maximum-likelihood exponent
//!   estimation, used by the synthetic GDELT world to reproduce the
//!   "Matthew effect" of Figure 3.
//! * [`cooccurrence`] — the frequent co-occurrence graph of Section IV-B,
//!   `w(u,v) = 2 c(u,v) / (c(u) + c(v))`, which feeds SLPA community
//!   detection.
//! * [`backbone`] — the thresholded co-reporting backbone network of
//!   Figure 2.
//!
//! All generators are deterministic given a seeded RNG; nothing in this
//! crate spawns threads.

#![warn(missing_docs)]

pub mod backbone;
pub mod cooccurrence;
pub mod digraph;
pub mod node;
pub mod powerlaw;
pub mod sbm;

pub use backbone::BackboneGraph;
pub use cooccurrence::CooccurrenceGraph;
pub use digraph::{DiGraph, GraphBuilder, RowTargets, RowWeights, TargetRows, WeightRows};
pub use node::NodeId;
pub use sbm::SbmConfig;
