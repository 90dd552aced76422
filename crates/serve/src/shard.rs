//! Row-block ownership for sharded serving.
//!
//! [`RowBlock`] moved into `viralcast-model` with the backend
//! abstraction — ownership blocks are part of the trait surface
//! ([`viralcast_model::CascadeModel::rank_candidates`] scans an owned
//! block) — and is re-exported here so serve-level callers keep their
//! import path.

pub use viralcast_model::RowBlock;
