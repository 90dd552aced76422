//! Per-shard reachability state and the background prober.
//!
//! The router must answer even while shards die: a [`HealthBoard`]
//! keeps one lock-free healthy bit per shard, a background [`Prober`]
//! refreshes it from each shard's `/healthz`, and the scatter path
//! additionally marks a shard down the moment a request to it fails —
//! the router never waits a full probe interval to stop routing at a
//! corpse. Every read of the board is a couple of atomic loads, cheap
//! enough to sit on the request path.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use viralcast_serve::client;
use viralcast_serve::json;
use viralcast_serve::Shutdown;

struct ShardState {
    healthy: AtomicBool,
    /// Node count the shard last reported on `/healthz` (0 until seen).
    nodes: AtomicU64,
    /// Snapshot version the shard last reported (0 until seen).
    version: AtomicU64,
}

/// Shared per-shard health flags, indexed by shard id.
pub struct HealthBoard {
    shards: Vec<ShardState>,
}

impl HealthBoard {
    /// A board for `shards` shards. Shards start healthy so the first
    /// client requests scatter everywhere; the prober and the scatter
    /// path demote the unreachable ones within one round trip.
    pub fn new(shards: usize) -> Arc<HealthBoard> {
        Arc::new(HealthBoard {
            shards: (0..shards)
                .map(|_| ShardState {
                    healthy: AtomicBool::new(true),
                    nodes: AtomicU64::new(0),
                    version: AtomicU64::new(0),
                })
                .collect(),
        })
    }

    /// Number of shards tracked.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Whether `shard` is currently believed reachable.
    pub fn is_healthy(&self, shard: usize) -> bool {
        self.shards[shard].healthy.load(Ordering::Relaxed)
    }

    /// Records a successful exchange with `shard`.
    pub fn mark_up(&self, shard: usize) {
        self.shards[shard].healthy.store(true, Ordering::Relaxed);
    }

    /// Records a failed exchange with `shard`.
    pub fn mark_down(&self, shard: usize) {
        self.shards[shard].healthy.store(false, Ordering::Relaxed);
    }

    /// Records what `shard` reported about itself on `/healthz`.
    fn record_report(&self, shard: usize, nodes: u64, version: u64) {
        self.shards[shard].nodes.store(nodes, Ordering::Relaxed);
        self.shards[shard].version.store(version, Ordering::Relaxed);
    }

    /// Node count `shard` last reported (0 until first contact).
    pub fn nodes(&self, shard: usize) -> u64 {
        self.shards[shard].nodes.load(Ordering::Relaxed)
    }

    /// Highest node count any shard has reported — the size of the node
    /// universe, since every shard loads the full embedding file.
    pub fn max_nodes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.nodes.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }

    /// Highest snapshot version any shard has reported.
    pub fn max_version(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.version.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }

    /// Number of shards currently believed healthy.
    fn healthy_count(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| s.healthy.load(Ordering::Relaxed))
            .count()
    }
}

/// One `/healthz` probe of one shard; updates the board in place.
fn probe_shard(board: &HealthBoard, shard: usize, addr: &SocketAddr, timeout: Duration) {
    match client::request_with_options(addr, "GET", "/healthz", None, &[], timeout) {
        Ok(response) if response.status == 200 => {
            board.mark_up(shard);
            if let Ok(body) = json::parse(&response.body) {
                let nodes = json::get(&body, "nodes").and_then(json::as_u64);
                let version = json::get(&body, "snapshot_version").and_then(json::as_u64);
                board.record_report(
                    shard,
                    nodes.unwrap_or_else(|| board.nodes(shard)),
                    version.unwrap_or(0),
                );
            }
        }
        Ok(_) | Err(_) => board.mark_down(shard),
    }
}

/// The background probe loop: joins on drop.
pub struct Prober {
    stop: Arc<Shutdown>,
    handle: Option<JoinHandle<()>>,
}

impl Prober {
    /// Starts a thread that probes every shard once immediately and
    /// then every `interval`, each probe bounded by `timeout`.
    pub fn start(
        board: Arc<HealthBoard>,
        addrs: Vec<SocketAddr>,
        interval: Duration,
        timeout: Duration,
    ) -> Prober {
        assert_eq!(addrs.len(), board.shard_count());
        let stop = Shutdown::new();
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("cluster-prober".into())
            .spawn(move || {
                while !stop_flag.is_raised() {
                    for (shard, addr) in addrs.iter().enumerate() {
                        probe_shard(&board, shard, addr, timeout);
                    }
                    viralcast_obs::metrics()
                        .gauge("router.unhealthy_shards")
                        .set((board.shard_count() - board.healthy_count()) as f64);
                    stop_flag.wait(interval);
                }
            })
            .expect("spawn cluster prober");
        Prober {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for Prober {
    fn drop(&mut self) {
        self.stop.raise();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viralcast_serve::{listen, ListenerConfig, Response};

    #[test]
    fn board_tracks_marks_and_maxima() {
        let board = HealthBoard::new(3);
        assert_eq!(board.healthy_count(), 3);
        board.mark_down(1);
        assert!(!board.is_healthy(1));
        assert!(board.is_healthy(0) && board.is_healthy(2));
        assert_eq!(board.healthy_count(), 2);
        board.mark_up(1);
        assert_eq!(board.healthy_count(), 3);
        board.record_report(0, 120, 4);
        board.record_report(2, 80, 9);
        assert_eq!(board.nodes(0), 120);
        assert_eq!(board.max_nodes(), 120);
        assert_eq!(board.max_version(), 9);
    }

    #[test]
    fn probe_marks_down_on_connection_failure_and_up_on_200() {
        let board = HealthBoard::new(1);
        // Port 9 (discard) has no listener: connection refused.
        let dead: SocketAddr = "127.0.0.1:9".parse().unwrap();
        probe_shard(&board, 0, &dead, Duration::from_millis(200));
        assert!(!board.is_healthy(0));

        let server = listen(ListenerConfig::new("127.0.0.1:0", "fake"), |_, _| {
            Response::text(200, r#"{"status":"ok","nodes":42,"snapshot_version":7}"#)
        })
        .unwrap();
        probe_shard(&board, 0, &server.local_addr(), Duration::from_secs(2));
        server.shutdown();
        assert!(board.is_healthy(0));
        assert_eq!(board.nodes(0), 42);
        assert_eq!(board.max_version(), 7);
    }
}
