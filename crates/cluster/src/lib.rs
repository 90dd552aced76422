//! `viralcast-cluster`: a sharded serve cluster behind one thin router.
//!
//! A single daemon on one box caps the node universe the north star can
//! reach, so the cluster splits the embedding rows across shards and
//! scatter-gathers reads across them. Ownership has one rule: shard `i`
//! of `N` owns node `v` iff `v mod N = i`. It decides both the rows a
//! shard scans and the leader that takes an ingest seeded at `v`.
//!
//! Layering, bottom to top:
//!
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
//!   daemon uses): routes an ingest to the leader owning its seed site
//!   (walking `(owner + i) mod N` past dead leaders), fans reads out
//!   on a [`serve::BoundedPool`] with per-shard deadlines, and degrades
//!   to `"partial": true` responses instead of failing when shards are
//!   down.
//!
//! Like the serve crate, this crate depends on nothing outside the
//! workspace and the standard library.

#![warn(missing_docs)]

pub mod health;
pub mod manifest;
pub mod merge;
pub mod router;

pub use manifest::{ClusterManifest, ShardSpec, MANIFEST_FORMAT};
pub use merge::{merge_topk, Ranked};
pub use router::{start_router, RouterConfig, RouterHandle};

/// The serve crate, re-exported so cluster callers reach
/// [`serve::RowBlock`] and the client types without a second dependency.
pub use viralcast_serve as serve;
