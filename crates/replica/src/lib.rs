//! `viralcast-replica`: snapshot replication for the serve cluster.
//!
//! A leader daemon already exposes its current model as a VCCKPT01
//! checkpoint stream on `GET /v1/replica/snapshot` (see
//! `viralcast_serve::router`). This crate is the other half: a
//! *follower* that boots by fetching that stream, serves reads from it
//! through the ordinary serve stack, and keeps itself fresh by polling
//! the leader with capped exponential backoff, hot-swapping each new
//! version through [`SnapshotStore::publish_version`].
//!
//! A follower is deliberately dumb: it never trains (the trainer thread
//! is not spawned), never persists (no data directory — the leader owns
//! the durable lineage), and never accepts writes (`/v1/ingest` answers
//! 409 with a `Location` redirect to the leader). What it does do is
//! scale reads: the cluster router fans `/v1/predict` and
//! `/v1/influencers` across a shard's leader *and* followers, and fails
//! over to a follower when the leader dies — reads stay non-partial
//! through a leader crash.
//!
//! Replication is pull-based and versioned, not a log: the follower
//! asks `?have=N` and the leader answers `304 Not Modified` or a full
//! snapshot tagged `X-Replica-Version`. Snapshots are small (the model,
//! not the event history), which buys crash-trivial semantics — a
//! follower that restarts just fetches again — at the cost of
//! re-sending the full model per version. `/healthz` and `/metrics` on
//! the follower report `replica_lag_versions` / `replica_lag_ms` so
//! operators can see staleness.

#![warn(missing_docs)]

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use viralcast_obs as obs;
use viralcast_serve::client;
use viralcast_serve::replica::{ReplicaRole, ReplicaStatus};
use viralcast_serve::router::{REPLICA_BACKEND_HEADER, REPLICA_VERSION_HEADER};
use viralcast_serve::snapshot::SnapshotStore;
use viralcast_serve::{CascadeModel, ServeConfig, ServerHandle, Shutdown};

/// The serve crate, re-exported so follower callers reach
/// [`viralcast_serve::ServeConfig`] and friends without a separate
/// dependency.
pub use viralcast_serve as serve;

/// One snapshot fetched from a leader.
pub struct FetchedSnapshot {
    /// The decoded model.
    pub model: Arc<dyn CascadeModel>,
    /// The leader's snapshot version for this model.
    pub version: u64,
    /// The backend id the leader tagged the payload with.
    pub backend: String,
}

/// The outcome of one replication poll.
pub enum Poll {
    /// The leader is still on the version we already have.
    NotModified {
        /// The leader's current version (equals the `have` we sent).
        version: u64,
    },
    /// The leader has a newer snapshot.
    Snapshot(FetchedSnapshot),
}

/// Fetches the leader's current snapshot (or a 304 when `have` is
/// already current) from `GET /v1/replica/snapshot`.
///
/// # Errors
/// Connection failures, non-200/304 statuses, missing version/backend
/// headers, and undecodable payloads all surface as strings — the
/// caller (the poll loop) treats every error the same way: back off and
/// retry.
pub fn poll_snapshot(
    leader: &SocketAddr,
    have: Option<u64>,
    timeout: Duration,
) -> Result<Poll, String> {
    let target = match have {
        Some(v) => format!("/v1/replica/snapshot?have={v}"),
        None => "/v1/replica/snapshot".to_string(),
    };
    let raw = client::request_bytes(leader, "GET", &target, None, &[], timeout)
        .map_err(|e| format!("leader {leader} unreachable: {e}"))?;
    if raw.status != 200 && raw.status != 304 {
        return Err(format!(
            "leader {leader} answered {} to a snapshot poll",
            raw.status
        ));
    }
    let version = raw
        .header(REPLICA_VERSION_HEADER)
        .ok_or_else(|| format!("leader {leader} sent no {REPLICA_VERSION_HEADER} header"))?
        .parse::<u64>()
        .map_err(|e| format!("leader {leader} sent a malformed version: {e}"))?;
    match raw.status {
        304 => Ok(Poll::NotModified { version }),
        _ => {
            let backend = raw
                .header(REPLICA_BACKEND_HEADER)
                .ok_or_else(|| format!("leader {leader} sent no {REPLICA_BACKEND_HEADER} header"))?
                .to_string();
            let model = viralcast_store::decode_checkpoint(&raw.body, &backend)
                .map_err(|e| format!("leader {leader} snapshot v{version} undecodable: {e}"))?;
            Ok(Poll::Snapshot(FetchedSnapshot {
                model,
                version,
                backend,
            }))
        }
    }
}

/// Follower configuration.
pub struct FollowerConfig {
    /// The leader to replicate from.
    pub leader: SocketAddr,
    /// Steady-state cadence of the `?have=N` poll.
    pub poll_interval: Duration,
    /// Backoff cap when the leader is unreachable (doubles from
    /// `poll_interval` up to this).
    pub max_backoff: Duration,
    /// How long the initial snapshot fetch keeps retrying before
    /// [`start_follower`] gives up.
    pub boot_timeout: Duration,
    /// Per-request timeout on snapshot fetches.
    pub fetch_timeout: Duration,
    /// The serve stack the follower answers reads from. `data_dir` and
    /// `replica` are overridden: followers are in-memory and get their
    /// role installed by [`start_follower`].
    pub serve: ServeConfig,
}

impl FollowerConfig {
    /// A follower of `leader` with default pacing, serving on an
    /// ephemeral port.
    pub fn new(leader: SocketAddr) -> FollowerConfig {
        FollowerConfig {
            leader,
            poll_interval: Duration::from_millis(250),
            max_backoff: Duration::from_secs(5),
            boot_timeout: Duration::from_secs(30),
            fetch_timeout: Duration::from_secs(5),
            serve: ServeConfig::default(),
        }
    }
}

/// A running follower: the serve stack plus the replication poller.
/// Call [`FollowerHandle::shutdown`] to stop both; dropping the handle
/// does not.
pub struct FollowerHandle {
    server: ServerHandle,
    status: Arc<ReplicaStatus>,
    stop: Arc<Shutdown>,
    poller: Option<JoinHandle<()>>,
}

impl FollowerHandle {
    /// The address the follower's listener actually bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The snapshot store serving reads (the poller publishes into it).
    pub fn snapshots(&self) -> Arc<SnapshotStore> {
        self.server.snapshots()
    }

    /// The shared lag bookkeeping (`/healthz` reads the same instance).
    pub fn status(&self) -> Arc<ReplicaStatus> {
        Arc::clone(&self.status)
    }

    /// Graceful stop: halts the poller, then the serve stack.
    pub fn shutdown(mut self) {
        self.stop.raise();
        if let Some(poller) = self.poller.take() {
            let _ = poller.join();
        }
        self.server.shutdown();
    }
}

/// Fetches the leader's current snapshot for a follower boot, retrying
/// with capped backoff (doubling from `poll_interval`) because the
/// leader may still be booting itself.
///
/// # Errors
/// Fails with `TimedOut` when no snapshot could be fetched within
/// `boot_timeout`; the message carries the last fetch error.
pub fn fetch_boot_snapshot(config: &FollowerConfig) -> io::Result<FetchedSnapshot> {
    let leader = config.leader;
    let deadline = Instant::now() + config.boot_timeout;
    let mut backoff = config.poll_interval;
    loop {
        let error = match poll_snapshot(&leader, None, config.fetch_timeout) {
            Ok(Poll::Snapshot(snapshot)) => return Ok(snapshot),
            Ok(Poll::NotModified { version }) => {
                format!("leader {leader} answered 304 (v{version}) to an unconditional fetch")
            }
            Err(e) => e,
        };
        obs::metrics().counter("replica.poll_errors").incr(1);
        obs::warn("replica", &format!("boot fetch failed: {error}"), &[]);
        if Instant::now() + backoff > deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!(
                    "no snapshot from leader {leader} within {:?}: {error}",
                    config.boot_timeout
                ),
            ));
        }
        std::thread::sleep(backoff);
        backoff = (backoff * 2).min(config.max_backoff);
    }
}

/// Boots a follower: [`fetch_boot_snapshot`], then
/// [`start_follower_from`] it.
///
/// # Errors
/// `TimedOut` when no snapshot arrives within `boot_timeout`, plus the
/// usual serve bind failures.
pub fn start_follower(config: FollowerConfig) -> io::Result<FollowerHandle> {
    let boot = fetch_boot_snapshot(&config)?;
    start_follower_from(boot, config)
}

/// Starts the serve stack in follower role at `boot`'s version and
/// spawns the poll loop. Callers that need the snapshot's shape before
/// the serve stack exists (a shard's row block depends on the node
/// count) fetch it themselves and hand it over here, so the payload
/// crosses the wire once.
///
/// # Errors
/// The usual serve bind failures.
pub fn start_follower_from(
    boot: FetchedSnapshot,
    config: FollowerConfig,
) -> io::Result<FollowerHandle> {
    let FollowerConfig {
        leader,
        poll_interval,
        max_backoff,
        boot_timeout: _,
        fetch_timeout,
        serve: mut serve_config,
    } = config;

    let role = ReplicaRole::new(leader, boot.version);
    let status = Arc::clone(&role.status);
    serve_config.replica = Some(role);
    // Followers are in-memory: the leader owns the durable lineage, and
    // a restarting follower re-fetches instead of recovering.
    serve_config.data_dir = None;
    let server = viralcast_serve::start(
        Arc::clone(&boot.model),
        Box::new(|model, _| Ok(Arc::clone(model))),
        serve_config,
    )?;
    // The store boots at version 1; adopt the leader's version so
    // follower and leader report the same lineage from the first read.
    server.snapshots().publish_version(boot.model, boot.version);
    obs::info(
        "replica",
        &format!(
            "following {leader} from snapshot v{} ({} backend)",
            boot.version, boot.backend
        ),
        &[],
    );

    let stop = Shutdown::new();
    let poller = {
        let stop = Arc::clone(&stop);
        let status = Arc::clone(&status);
        let snapshots = server.snapshots();
        std::thread::Builder::new()
            .name("replica-poller".into())
            .spawn(move || {
                poll_loop(
                    &leader,
                    &snapshots,
                    &status,
                    &stop,
                    poll_interval,
                    max_backoff,
                    fetch_timeout,
                );
            })?
    };

    Ok(FollowerHandle {
        server,
        status,
        stop,
        poller: Some(poller),
    })
}

/// The steady-state replication loop: poll `?have=applied`, publish
/// anything newer, and back off (capped doubling) while the leader is
/// unreachable.
fn poll_loop(
    leader: &SocketAddr,
    snapshots: &SnapshotStore,
    status: &ReplicaStatus,
    stop: &Shutdown,
    poll_interval: Duration,
    max_backoff: Duration,
    fetch_timeout: Duration,
) {
    let mut wait = poll_interval;
    while !stop.wait(wait) {
        match poll_snapshot(leader, Some(status.applied_version()), fetch_timeout) {
            Ok(Poll::NotModified { version }) => {
                status.observe_leader(version);
                wait = poll_interval;
            }
            Ok(Poll::Snapshot(snapshot)) => {
                status.observe_leader(snapshot.version);
                let adopted = snapshots.publish_version(snapshot.model, snapshot.version);
                status.record_applied(adopted);
                obs::metrics().counter("replica.snapshots_applied").incr(1);
                wait = poll_interval;
            }
            Err(e) => {
                obs::metrics().counter("replica.poll_errors").incr(1);
                obs::warn("replica", &format!("poll failed: {e}"), &[]);
                wait = (wait * 2).min(max_backoff);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viralcast_serve::TrainerConfig;

    fn embeddings() -> Arc<dyn CascadeModel> {
        Arc::new(viralcast_model::EmbeddingBackend::new(
            viralcast_embed::Embeddings::from_matrices(
                3,
                1,
                vec![1.0, 0.5, 0.0],
                vec![1.0, 1.0, 1.0],
            ),
        ))
    }

    fn leader_config() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            trainer: TrainerConfig {
                interval: Duration::from_secs(3600),
                min_batch: usize::MAX,
            },
            ..ServeConfig::default()
        }
    }

    fn follower_config(leader: SocketAddr) -> FollowerConfig {
        FollowerConfig {
            poll_interval: Duration::from_millis(30),
            boot_timeout: Duration::from_secs(5),
            serve: ServeConfig {
                addr: "127.0.0.1:0".into(),
                workers: 2,
                ..ServeConfig::default()
            },
            ..FollowerConfig::new(leader)
        }
    }

    #[test]
    fn follower_boots_from_the_leader_and_applies_new_versions() {
        let leader = viralcast_serve::start(
            embeddings(),
            Box::new(|model, _| Ok(Arc::clone(model))),
            leader_config(),
        )
        .unwrap();
        let follower = start_follower(follower_config(leader.local_addr())).unwrap();

        // Booted at the leader's version with the leader's model.
        assert_eq!(follower.snapshots().version(), leader.snapshots().version());
        assert_eq!(follower.snapshots().current().model.node_count(), 3);
        assert_eq!(follower.status().lag_versions(), 0);

        // A new leader version flows over within a few poll intervals.
        let bumped = leader.snapshots().publish(embeddings());
        let deadline = Instant::now() + Duration::from_secs(5);
        while follower.status().applied_version() < bumped {
            assert!(Instant::now() < deadline, "follower never caught up");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(follower.snapshots().version(), bumped);
        assert_eq!(follower.status().lag_versions(), 0);

        follower.shutdown();
        leader.shutdown();
    }

    #[test]
    fn poll_reports_not_modified_when_the_follower_is_current() {
        let leader = viralcast_serve::start(
            embeddings(),
            Box::new(|model, _| Ok(Arc::clone(model))),
            leader_config(),
        )
        .unwrap();
        let addr = leader.local_addr();
        let version = leader.snapshots().version();
        match poll_snapshot(&addr, Some(version), Duration::from_secs(2)).unwrap() {
            Poll::NotModified { version: v } => assert_eq!(v, version),
            Poll::Snapshot(_) => panic!("expected 304 when already current"),
        }
        match poll_snapshot(&addr, Some(version - 1), Duration::from_secs(2)).unwrap() {
            Poll::Snapshot(snapshot) => {
                assert_eq!(snapshot.version, version);
                assert_eq!(snapshot.backend, "embed");
                assert_eq!(snapshot.model.node_count(), 3);
            }
            Poll::NotModified { .. } => panic!("expected a snapshot for a stale have"),
        }
        leader.shutdown();
    }

    #[test]
    fn boot_fails_fast_when_no_leader_answers() {
        let dead: SocketAddr = "127.0.0.1:9".parse().unwrap();
        match start_follower(FollowerConfig {
            poll_interval: Duration::from_millis(10),
            boot_timeout: Duration::from_millis(200),
            fetch_timeout: Duration::from_millis(100),
            ..FollowerConfig::new(dead)
        }) {
            Err(err) => assert_eq!(err.kind(), io::ErrorKind::TimedOut),
            Ok(_) => panic!("boot against a dead leader must fail"),
        }
    }
}
