//! `viralcast-serve`: the online prediction daemon.
//!
//! A zero-external-dependency HTTP/1.1 server over `std::net` that keeps
//! a versioned, atomically hot-swappable model snapshot in memory and
//! answers hazard, next-adopter, and influencer queries from it while a
//! background trainer folds freshly ingested cascades back into the
//! model. The snapshot holds an `Arc<dyn viralcast_model::CascadeModel>`
//! — any registered backend (the paper's embeddings, the NETINF greedy
//! baseline, …) serves through the same endpoints.
//!
//! Layering, bottom to top:
//!
//! - [`json`] — the strict parser and accessors of `viralcast_obs::json`,
//!   re-exported under the path the endpoint codecs import;
//! - [`http`] — bounded request parsing and response framing;
//! - [`snapshot`] — the `Arc`-swapped [`snapshot::ModelSnapshot`] store;
//! - [`ingest`] — the bounded cascade buffer behind `POST /v1/ingest`;
//! - [`replica`] — follower-role state: the leader's address plus the
//!   lag record a replication poller keeps current (the poller itself
//!   lives in `viralcast-replica`);
//! - [`api`] — endpoint codecs and model evaluation, socket-free;
//! - [`trace`] — request-scoped trace IDs (accepted or generated);
//! - [`shutdown`] — [`Shutdown`], the stop flag every background loop
//!   waits its interval out on (listener, trainer, prober, poller);
//! - [`pool`] — the one bounded worker pool (`try_submit` hands the
//!   item back when the queue is full);
//! - [`listener`] — the one HTTP front door, [`listener::listen`]: a
//!   blocking accept loop, 503 shed, error mapping, trace stamping,
//!   `{prefix}.http.*` metrics, access log and shutdown, around a
//!   handler `Fn(&Request, &str) -> Response`. The cluster router and
//!   the test fakes listen through it too;
//! - [`router`] — the daemon's handler table: `(method, path)` dispatch
//!   over [`router::AppState`];
//! - [`trainer`] — the retraining thread (the learner is injected as a
//!   [`trainer::RetrainFn`], keeping this crate independent of the
//!   `viralcast` facade);
//! - [`server`] — the daemon: durable recovery, `AppState`, trainer,
//!   "listen with `router::route`", and the [`server::ServerHandle`]
//!   lifecycle;
//! - [`signal`] / [`client`] — ctrl-c plumbing and a tiny test client.
//!
//! The daemon deliberately depends on nothing outside the workspace and
//! the standard library, so it builds (and keeps building) in offline
//! environments.

pub mod api;
pub mod client;
pub mod http;
pub mod ingest;
pub mod json;
pub mod listener;
pub mod pool;
pub mod replica;
pub mod router;
pub mod server;
pub mod shutdown;
pub mod signal;
pub mod snapshot;
pub mod trace;
pub mod trainer;

pub use client::{
    request_with_retry, transient_status, ClientResponse, RawResponse, Retried, RetryPolicy,
};
pub use http::{HttpLimits, Request, Response};
pub use ingest::{DrainedBatch, IngestBuffer, IngestReceipt, TraceMark};
pub use listener::{listen, Listener, ListenerConfig};
pub use pool::BoundedPool;
pub use replica::{ReplicaRole, ReplicaStatus};
pub use router::DegradeThresholds;
pub use server::{start, BootRecovery, ServeConfig, ServerHandle};
pub use shutdown::Shutdown;
pub use signal::install_ctrlc;
pub use snapshot::{ModelSnapshot, SnapshotStore};
pub use trainer::{RetrainFn, TrainerConfig};

/// The durability layer (`viralcast-store`), re-exported so callers
/// configuring `--data-dir` serving reach [`store::FsyncPolicy`] and
/// [`store::WalOptions`] without a separate dependency.
pub use viralcast_store as store;

/// The backend abstraction (`viralcast-model`), re-exported so callers
/// constructing a daemon reach [`model::CascadeModel`],
/// [`model::EmbeddingBackend`], and [`model::NetInfBackend`] without a
/// separate dependency.
pub use viralcast_model as model;
pub use viralcast_model::{BackendMismatch, CascadeModel, RowBlock};
