//! Follower-role state: who the leader is and how far behind we are.
//!
//! A follower daemon serves reads from snapshots it replicates off a
//! leader instead of training its own. The daemon itself only needs two
//! things from that arrangement: the leader's address (so write
//! attempts can be redirected with a 409) and a lag record the poller
//! keeps current (so `/healthz` and `/metrics` can report
//! `replica_lag_versions` / `replica_lag_ms`). The polling loop itself
//! lives in `viralcast-replica`; this module is just the shared state
//! it updates and the router reads.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Lag bookkeeping shared between the replication poller (writer) and
/// the request path (reader). All methods are lock-free.
#[derive(Debug)]
pub struct ReplicaStatus {
    /// Highest version the leader has been seen to advertise.
    leader_version: AtomicU64,
    /// Version of the snapshot this follower currently serves.
    applied_version: AtomicU64,
    /// Milliseconds since `epoch` when we first fell behind the leader;
    /// [`u64::MAX`] while caught up.
    behind_since_ms: AtomicU64,
    epoch: Instant,
}

const CAUGHT_UP: u64 = u64::MAX;

impl ReplicaStatus {
    /// Fresh status with both versions at `applied` (caught up).
    pub fn new(applied: u64) -> ReplicaStatus {
        ReplicaStatus {
            leader_version: AtomicU64::new(applied),
            applied_version: AtomicU64::new(applied),
            behind_since_ms: AtomicU64::new(CAUGHT_UP),
            epoch: Instant::now(),
        }
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis().min(u64::MAX as u128 - 1) as u64
    }

    /// Records that the leader advertises `version` (from a snapshot
    /// fetch or a not-modified poll). Starts the lag clock the first
    /// time the leader pulls ahead of what is applied.
    pub fn observe_leader(&self, version: u64) {
        let prev = self.leader_version.fetch_max(version, Ordering::SeqCst);
        let leader = prev.max(version);
        if leader > self.applied_version.load(Ordering::SeqCst) {
            let _ = self.behind_since_ms.compare_exchange(
                CAUGHT_UP,
                self.now_ms(),
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
        }
    }

    /// Records that snapshot `version` is now serving locally; clears
    /// the lag clock once we have caught the leader.
    pub fn record_applied(&self, version: u64) {
        self.applied_version.fetch_max(version, Ordering::SeqCst);
        if self.applied_version.load(Ordering::SeqCst) >= self.leader_version.load(Ordering::SeqCst)
        {
            self.behind_since_ms.store(CAUGHT_UP, Ordering::SeqCst);
        }
    }

    /// Versions the leader is ahead of this follower (0 while caught up).
    pub fn lag_versions(&self) -> u64 {
        self.leader_version
            .load(Ordering::SeqCst)
            .saturating_sub(self.applied_version.load(Ordering::SeqCst))
    }

    /// How long this follower has been behind, milliseconds (0 while
    /// caught up).
    pub fn lag_ms(&self) -> f64 {
        match self.behind_since_ms.load(Ordering::SeqCst) {
            CAUGHT_UP => 0.0,
            since => self.now_ms().saturating_sub(since) as f64,
        }
    }

    /// Snapshot version this follower currently serves.
    pub fn applied_version(&self) -> u64 {
        self.applied_version.load(Ordering::SeqCst)
    }

    /// Highest leader version seen so far.
    #[cfg(test)]
    fn leader_version(&self) -> u64 {
        self.leader_version.load(Ordering::SeqCst)
    }
}

/// Marks a daemon as a read-only follower of `leader`.
#[derive(Clone, Debug)]
pub struct ReplicaRole {
    /// The leader this follower replicates from (and redirects writes to).
    pub leader: SocketAddr,
    /// Shared lag bookkeeping the poller updates.
    pub status: Arc<ReplicaStatus>,
}

impl ReplicaRole {
    /// A follower of `leader`, caught up at `applied`.
    pub fn new(leader: SocketAddr, applied: u64) -> ReplicaRole {
        ReplicaRole {
            leader,
            status: Arc::new(ReplicaStatus::new(applied)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caught_up_status_reports_zero_lag() {
        let status = ReplicaStatus::new(3);
        assert_eq!(status.lag_versions(), 0);
        assert_eq!(status.lag_ms(), 0.0);
        assert_eq!(status.applied_version(), 3);
        assert_eq!(status.leader_version(), 3);
    }

    #[test]
    fn lag_opens_when_the_leader_advances_and_closes_on_apply() {
        let status = ReplicaStatus::new(1);
        status.observe_leader(4);
        assert_eq!(status.lag_versions(), 3);
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(status.lag_ms() > 0.0, "lag clock never started");
        status.record_applied(4);
        assert_eq!(status.lag_versions(), 0);
        assert_eq!(status.lag_ms(), 0.0);
    }

    #[test]
    fn stale_observations_never_roll_versions_back() {
        let status = ReplicaStatus::new(5);
        status.observe_leader(2);
        assert_eq!(status.leader_version(), 5);
        status.record_applied(3);
        assert_eq!(status.applied_version(), 5);
        assert_eq!(status.lag_versions(), 0);
    }

    #[test]
    fn role_clones_share_one_status() {
        let role = ReplicaRole::new("127.0.0.1:7001".parse().unwrap(), 1);
        let clone = role.clone();
        role.status.observe_leader(2);
        assert_eq!(clone.status.lag_versions(), 1);
    }
}
