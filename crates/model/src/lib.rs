//! The `CascadeModel` backend abstraction.
//!
//! Every serving layer — the snapshot store, the trainer, the HTTP
//! endpoints, the sharded row scans — used to hold a concrete
//! [`viralcast_embed::Embeddings`]. This crate extracts the operations
//! those layers actually need into [`CascadeModel`], a trait object per
//! shard that becomes the unit of placement:
//!
//! * `hazard(u, v)` — the instantaneous infection rate a single source
//!   exerts on a single target;
//! * [`CascadeModel::rank_candidates`] / [`CascadeModel::influencers`] —
//!   one chunked pass over every row, or over the rows a shard's
//!   [`RowBlock`] owns, feeding the one bounded selection ([`top_k`])
//!   under the one shared comparator ([`rank_order`]: score descending,
//!   node id ascending), so shard rankings tile the single-box ranking
//!   byte for byte;
//! * [`CascadeModel::update`] — the trainer's retrain contract: fold a
//!   fresh cascade batch into a *new* model (the old one keeps serving);
//! * [`CascadeModel::encode`] + [`decode_model`] — the checkpoint
//!   payload codec, dispatched by [`CascadeModel::backend_id`], which is
//!   also what manifests record so a daemon restarted with the wrong
//!   `--backend` fails fast with a [`BackendMismatch`] instead of
//!   deserializing garbage.
//!
//! Two backends ship today: [`EmbeddingBackend`] wraps the paper's
//! K-topic hazard-product embeddings (the default), and
//! [`NetInfBackend`] is a NETINF-style greedy edge-inference baseline
//! (Gomez-Rodriguez, Leskovec & Krause) serving hazards off a sparse
//! inferred graph. Adding a third (the Dirichlet-Survival process is
//! next) means implementing the trait and registering its id in
//! [`decode_model`] — no serve/store/cluster surgery.

#![warn(missing_docs)]

mod block;
pub mod embedding;
pub mod netinf;
mod scan;

pub use block::RowBlock;
pub use embedding::EmbeddingBackend;
pub use netinf::{NetInfBackend, NetInfConfig};
pub use scan::top_k;

use std::any::Any;
use std::sync::Arc;
use viralcast_graph::NodeId;
use viralcast_propagation::CascadeSet;

/// Backend ids with a registered codec, in the order the CLI lists them.
pub const BACKENDS: &[&str] = &[EmbeddingBackend::ID, NetInfBackend::ID];

/// One inference backend: everything the serving stack needs from a
/// fitted cascade model.
///
/// Implementations are immutable once published — [`update`] returns a
/// fresh model rather than mutating in place, which is what lets the
/// snapshot store hot-swap under concurrent readers without tearing.
///
/// [`update`]: CascadeModel::update
pub trait CascadeModel: Send + Sync + std::fmt::Debug {
    /// Stable identifier recorded in checkpoint and cluster manifests
    /// (`"embed"`, `"netinf"`, …). Must be registered in
    /// [`decode_model`].
    fn backend_id(&self) -> &'static str;

    /// Number of nodes in the model universe. Node ids `0..node_count`
    /// are valid arguments everywhere below; callers validate ids
    /// against this before querying.
    fn node_count(&self) -> usize;

    /// Number of latent topics, `0` for backends without a topic
    /// decomposition (per-topic influencer queries are then range
    /// errors).
    fn topic_count(&self) -> usize;

    /// Instantaneous infection rate node `u` exerts on node `v`.
    /// Non-negative and finite for in-range nodes; may panic on
    /// out-of-range ids (callers check [`node_count`] first).
    ///
    /// [`node_count`]: CascadeModel::node_count
    fn hazard(&self, u: NodeId, v: NodeId) -> f64;

    /// Ranks uninfected candidate nodes by their total infection rate
    /// from `infected`, highest first, ties broken by ascending node id
    /// (the shared comparator), truncated to `top`.
    ///
    /// `infected` must be sorted ascending (the candidate filter is a
    /// binary search; a repeated id is tolerated); all its ids must be
    /// in range. `owned` restricts the ranking to a shard's rows; `None`
    /// ranks every row.
    ///
    /// The score is linear in the sources, so a backend sums the
    /// infected set once per request — in ascending node order, the
    /// first source copied and the rest added to it — and then scores
    /// each candidate against that sum: the same request yields
    /// bit-identical rates on every process, and a single infected node
    /// `u` yields exactly `hazard(u, v)`. The winners are kept by
    /// [`top_k`], so a scan costs O((|infected| + n)·K + top·log top)
    /// for a K-topic model (a shard scores only its own rows); the
    /// infected filter runs only on the rows that beat its floor.
    fn rank_candidates(
        &self,
        infected: &[NodeId],
        top: usize,
        owned: Option<&RowBlock>,
    ) -> Vec<(NodeId, f64)>;

    /// Top-k influencer ranking, globally (`topic = None`) or for one
    /// topic, under the shared comparator. `owned` restricts the
    /// ranking to a shard's rows.
    ///
    /// # Errors
    /// `topic {t} out of range (model has {k} topics)` when `topic`
    /// names a topic the backend does not have.
    fn influencers(
        &self,
        topic: Option<usize>,
        top: usize,
        owned: Option<&RowBlock>,
    ) -> Result<Vec<(NodeId, f64)>, String>;

    /// Folds a batch of freshly observed cascades into a new model —
    /// the trainer's retrain contract. `self` is untouched (it keeps
    /// serving until the returned model is published).
    ///
    /// # Errors
    /// A human-readable reason when the batch is incompatible with the
    /// model (universe mismatch, out-of-range nodes), fitting fails, or
    /// the refit result holds a non-finite parameter (`… non-finite
    /// parameter at row r …`) — a model that would rank every request
    /// NaN is never handed to the trainer to publish.
    fn update(&self, fresh: &CascadeSet) -> Result<Arc<dyn CascadeModel>, String>;

    /// Serialises the model into its backend-specific checkpoint
    /// payload. The payload carries no framing, checksum, or backend
    /// tag — the store wraps it in its CRC-framed checkpoint file and
    /// records [`backend_id`] in the manifest, and [`decode_model`]
    /// reverses the pair.
    ///
    /// [`backend_id`]: CascadeModel::backend_id
    fn encode(&self) -> Vec<u8>;

    /// Downcast hook so tests and diagnostics can reach the concrete
    /// backend behind an `Arc<dyn CascadeModel>`.
    fn as_any(&self) -> &dyn Any;
}

/// Decodes a checkpoint payload previously produced by
/// [`CascadeModel::encode`], dispatching on the backend id the manifest
/// recorded next to it.
///
/// # Errors
/// The backend's own decode error, or `unknown backend …` for an id no
/// registered backend claims.
pub fn decode_model(backend_id: &str, payload: &[u8]) -> Result<Arc<dyn CascadeModel>, String> {
    match backend_id {
        EmbeddingBackend::ID => {
            EmbeddingBackend::decode(payload).map(|m| Arc::new(m) as Arc<dyn CascadeModel>)
        }
        NetInfBackend::ID => {
            NetInfBackend::decode(payload).map(|m| Arc::new(m) as Arc<dyn CascadeModel>)
        }
        other => Err(format!(
            "unknown backend {other:?} (known backends: {})",
            BACKENDS.join(", ")
        )),
    }
}

/// A daemon was pointed at durable state written by a different
/// backend. Raised at boot — before any request is served — so the
/// operator fixes the `--backend` flag instead of the model
/// deserializing garbage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BackendMismatch {
    /// The backend the daemon was started with.
    pub expected: String,
    /// The backend recorded in the checkpoint or cluster manifest.
    pub found: String,
}

impl std::fmt::Display for BackendMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "backend mismatch: durable state was written by backend {:?} \
             but the daemon was started with backend {:?}",
            self.found, self.expected
        )
    }
}

impl std::error::Error for BackendMismatch {}

/// The one ranking order every backend and every layer shares: score
/// descending, node id ascending on ties. Backends produce finite
/// non-negative scores; should a corrupt model or a hostile shard yield
/// a non-finite one, IEEE total order places it (NaN and +∞ first)
/// instead of panicking the request thread.
pub fn rank_order<N: Ord>(a: &(N, f64), b: &(N, f64)) -> std::cmp::Ordering {
    b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0))
}

/// `Err` naming the first `(row, value)` whose value is non-finite. One
/// NaN source row turns every score of a request NaN, so `update`
/// refuses such a refit and the trainer keeps serving the old snapshot.
fn check_finite(parameters: impl IntoIterator<Item = (usize, f64)>) -> Result<(), String> {
    match parameters.into_iter().find(|(_, x)| !x.is_finite()) {
        Some((row, x)) => Err(format!(
            "refit produced a non-finite parameter at row {row} ({x})"
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_backend_ids_are_refused() {
        let err = decode_model("dirichlet", &[]).unwrap_err();
        assert!(err.contains("unknown backend"), "{err}");
        assert!(err.contains("embed, netinf"), "{err}");
    }

    #[test]
    fn backend_mismatch_renders_both_sides() {
        let e = BackendMismatch {
            expected: "embed".into(),
            found: "netinf".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("\"netinf\""), "{msg}");
        assert!(msg.contains("\"embed\""), "{msg}");
    }
}
