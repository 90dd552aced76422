//! `viralcast-cluster`: a sharded serve cluster behind one thin router.
//!
//! A single daemon on one box caps the node universe the north star can
//! reach; the SLPA communities the inference pipeline already computes
//! give a natural disjoint partition of the embedding rows, so the
//! cluster shards by community (falling back to deterministic
//! round-robin) and scatter-gathers reads across the shards.
//!
//! Layering, bottom to top:
//!
//! - [`hashing`] — rendezvous (highest-random-weight) hashing, the
//!   stable way `/v1/ingest` picks the shard that owns a seed site;
//! - [`placement`] — membership vectors: SLPA communities greedily
//!   bin-packed onto shards;
//! - [`manifest`] — the `viralcast-cluster-manifest/v2` file every
//!   shard and the router boot from, and the [`serve::RowBlock`] each
//!   shard derives from it;
//! - [`merge`] — the streaming top-k merge of shard-local rankings
//!   (exact for disjoint row blocks: the merged top-k is byte-identical
//!   to the single-box ranking);
//! - [`health`] — background `/healthz` probing and per-shard
//!   reachability state;
//! - [`router`] — the cluster's handler table behind the serve crate's
//!   listener ([`serve::listener::listen`], the same front door the
//!   daemon uses): routes ingests to the owning shard, fans reads out
//!   on a [`serve::BoundedPool`] with per-shard deadlines, and degrades
//!   to `"partial": true` responses instead of failing when shards are
//!   down.
//!
//! Like the serve crate, this crate depends on nothing outside the
//! workspace and the standard library.

#![warn(missing_docs)]

pub mod hashing;
pub mod health;
pub mod manifest;
pub mod merge;
pub mod placement;
pub mod router;

pub use manifest::{ClusterManifest, Placement, ShardSpec, MANIFEST_FORMAT};
pub use merge::{merge_topk, Ranked};
pub use router::{start_router, RouterConfig, RouterHandle};

/// The serve crate, re-exported so cluster callers reach
/// [`serve::RowBlock`] and the client types without a second dependency.
pub use viralcast_serve as serve;
