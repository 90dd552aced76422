//! In-process topologies on `127.0.0.1:0`, with guards that shut every
//! daemon down and remove every temp directory on all exit paths
//! (normal return, `?`, panic unwinding).

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use viralcast::cluster::{start_router, ClusterManifest, RouterConfig, RouterHandle};
use viralcast::model::{CascadeModel, EmbeddingBackend, RowBlock};
use viralcast::replica::{start_follower, FollowerConfig, FollowerHandle};
use viralcast::serve::{self, client, json, ServeConfig, ServerHandle, TrainerConfig};

use crate::sys::THREADS;

/// Where run artefacts (traces, reports, temp data dirs) go, relative to
/// the working directory — `benchmark/` when started through `run.sh`.
pub const OUT_DIR: &str = "out";

/// A directory under [`OUT_DIR`] that is removed when dropped.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `out/tmp-<tag>-<pid>-<n>`, empty.
    pub fn create(tag: &str) -> std::io::Result<TempDir> {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = Path::new(OUT_DIR).join(format!("tmp-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Anything with a consuming graceful stop.
pub trait Shutdown {
    /// Stops every thread and waits for them.
    fn shutdown(self);
}

impl Shutdown for ServerHandle {
    fn shutdown(self) {
        ServerHandle::shutdown(self);
    }
}

impl Shutdown for FollowerHandle {
    fn shutdown(self) {
        FollowerHandle::shutdown(self);
    }
}

impl Shutdown for RouterHandle {
    fn shutdown(self) {
        RouterHandle::shutdown(self);
    }
}

/// Owns a running daemon and stops it when dropped.
pub struct Running<T: Shutdown>(Option<T>);

impl<T: Shutdown> Running<T> {
    /// Takes ownership of `handle`.
    pub fn new(handle: T) -> Running<T> {
        Running(Some(handle))
    }

    /// Stops the daemon now (instead of at drop).
    pub fn stop(mut self) {
        if let Some(handle) = self.0.take() {
            handle.shutdown();
        }
    }
}

impl<T: Shutdown> std::ops::Deref for Running<T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect("present until drop")
    }
}

impl<T: Shutdown> Drop for Running<T> {
    fn drop(&mut self) {
        if let Some(handle) = self.0.take() {
            handle.shutdown();
        }
    }
}

/// A trainer that never fires: read workloads serve one fixed snapshot.
pub fn idle_trainer() -> TrainerConfig {
    TrainerConfig {
        interval: Duration::from_secs(3600),
        min_batch: usize::MAX,
    }
}

/// The daemon configuration every workload starts from: ephemeral
/// loopback port, two workers, idle trainer, no data directory.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: THREADS,
        trainer: idle_trainer(),
        ..ServeConfig::default()
    }
}

/// Starts one daemon serving `model` with `config`; the retrain hook is
/// the backend's real [`CascadeModel::update`].
pub fn start_daemon(
    model: Arc<dyn CascadeModel>,
    config: ServeConfig,
) -> Result<Running<ServerHandle>, String> {
    serve::start(
        model,
        Box::new(|current, fresh| current.update(fresh)),
        config,
    )
    .map(Running::new)
    .map_err(|e| format!("cannot start a serve daemon: {e}"))
}

/// A router over `SHARDS` shards, each a leader plus one follower.
/// Field order is drop order: router first, then followers, then the
/// leaders they poll.
pub struct Cluster {
    /// The front door.
    pub router: Running<RouterHandle>,
    /// One follower per shard, in shard order.
    pub followers: Vec<Running<FollowerHandle>>,
    /// The shard leaders, in shard order.
    pub leaders: Vec<Running<ServerHandle>>,
}

/// Shards in the `cluster_read` topology.
pub const SHARDS: usize = 2;

impl Cluster {
    /// Boots leaders, followers (default 250 ms polling) and the router,
    /// and waits until the router reports every site healthy.
    pub fn start(model: &Arc<dyn CascadeModel>) -> Result<Cluster, String> {
        let nodes = model.node_count();
        let block = |shard| RowBlock::round_robin(nodes, shard, SHARDS);
        let mut leaders = Vec::with_capacity(SHARDS);
        for shard in 0..SHARDS {
            let config = ServeConfig {
                shard: Some(block(shard)?),
                ..serve_config()
            };
            leaders.push(start_daemon(Arc::clone(model), config)?);
        }
        let leader_addrs: Vec<SocketAddr> = leaders.iter().map(|l| l.local_addr()).collect();
        let mut followers = Vec::with_capacity(SHARDS);
        for (shard, leader) in leader_addrs.iter().enumerate() {
            let config = FollowerConfig {
                serve: ServeConfig {
                    shard: Some(block(shard)?),
                    ..serve_config()
                },
                ..FollowerConfig::new(*leader)
            };
            let follower = start_follower(config)
                .map_err(|e| format!("cannot start the follower of shard {shard}: {e}"))?;
            followers.push(Running::new(follower));
        }
        let groups = followers.iter().map(|f| vec![f.local_addr()]).collect();
        let manifest = ClusterManifest::round_robin(&leader_addrs)?
            .with_backend(EmbeddingBackend::ID)?
            .with_followers(groups)?;
        let router = start_router(
            manifest,
            RouterConfig {
                addr: "127.0.0.1:0".into(),
                workers: THREADS,
                fanout_workers: THREADS,
                ..RouterConfig::default()
            },
        )
        .map_err(|e| format!("cannot start the router: {e}"))?;
        let cluster = Cluster {
            router: Running::new(router),
            followers,
            leaders,
        };
        cluster.await_healthy()?;
        Ok(cluster)
    }

    /// The router's address.
    pub fn addr(&self) -> SocketAddr {
        self.router.local_addr()
    }

    /// Polls the router's `/healthz` until every shard (leader and
    /// follower) has answered a probe.
    fn await_healthy(&self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let healthy = client::request(&self.addr(), "GET", "/healthz", None)
                .ok()
                .and_then(|r| json::parse(&r.body).ok())
                .is_some_and(|body| {
                    let field = |key| json::get(&body, key).and_then(json::as_u64);
                    field("shards_healthy") == Some(SHARDS as u64) && field("nodes") > Some(0)
                });
            if healthy {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err("the router never reported every shard healthy".into());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_dirs_vanish_on_drop_even_when_unwinding() {
        let path = {
            let dir = TempDir::create("unit").unwrap();
            std::fs::write(dir.path().join("x"), b"x").unwrap();
            dir.path().to_path_buf()
        };
        assert!(!path.exists());
        let mut escaped = PathBuf::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let dir = TempDir::create("unit").unwrap();
            escaped = dir.path().to_path_buf();
            panic!("boom");
        }));
        assert!(result.is_err());
        assert!(!escaped.exists());
    }

    #[test]
    fn a_dropped_guard_stops_its_daemon() {
        let model = crate::gen::backend(viralcast::embed::Embeddings::from_matrices(
            3,
            1,
            vec![1.0, 0.5, 0.0],
            vec![1.0, 1.0, 1.0],
        ));
        let addr = {
            let daemon = start_daemon(model, serve_config()).unwrap();
            let addr = daemon.local_addr();
            assert_eq!(
                client::request(&addr, "GET", "/healthz", None)
                    .unwrap()
                    .status,
                200
            );
            addr
        };
        // The listener is gone with its acceptor thread.
        assert!(client::request(&addr, "GET", "/healthz", None).is_err());
    }
}
