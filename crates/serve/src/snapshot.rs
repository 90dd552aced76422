//! Versioned, atomically hot-swappable model snapshots.
//!
//! Readers grab an `Arc<ModelSnapshot>` and keep serving from it for the
//! whole request — a retrain publishing version `n+1` mid-request cannot
//! tear the model out from under them, and in-flight responses honestly
//! report the version they were computed from. The swap itself holds a
//! write lock only long enough to replace one `Arc`, so request threads
//! never wait on training.

use std::sync::{Arc, RwLock};
use std::time::{SystemTime, UNIX_EPOCH};
use viralcast_model::CascadeModel;
use viralcast_obs as obs;

/// One immutable published model version.
#[derive(Debug)]
pub struct ModelSnapshot {
    /// Monotone version, starting at 1 for the snapshot loaded at boot.
    pub version: u64,
    /// The model this version serves — any [`CascadeModel`] backend.
    pub model: Arc<dyn CascadeModel>,
    /// Unix seconds at publication (0 if the clock is unavailable).
    pub published_unix: u64,
}

/// The swap point between request threads and the trainer.
#[derive(Debug)]
pub struct SnapshotStore {
    current: RwLock<Arc<ModelSnapshot>>,
}

fn unix_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

fn set_version_gauge(version: u64) {
    obs::metrics()
        .gauge("serve.snapshot.version")
        .set(version as f64);
}

impl SnapshotStore {
    /// A store whose first snapshot (version 1) wraps `model`.
    #[cfg(test)]
    pub(crate) fn new(model: Arc<dyn CascadeModel>) -> Self {
        Self::with_version(model, 1)
    }

    /// A store whose first snapshot resumes a recovered lineage at
    /// `version` (clamped to ≥ 1) — used when booting from a durable
    /// checkpoint so versions stay monotone across restarts.
    pub fn with_version(model: Arc<dyn CascadeModel>, version: u64) -> Self {
        let version = version.max(1);
        set_version_gauge(version);
        SnapshotStore {
            current: RwLock::new(Arc::new(ModelSnapshot {
                version,
                model,
                published_unix: unix_now(),
            })),
        }
    }

    /// The current snapshot. Cheap: one read lock, one `Arc` clone.
    pub fn current(&self) -> Arc<ModelSnapshot> {
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Current version without cloning the snapshot.
    pub fn version(&self) -> u64 {
        self.current
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .version
    }

    /// Publishes `model` as the next version and returns it.
    pub fn publish(&self, model: Arc<dyn CascadeModel>) -> u64 {
        let mut slot = self.current.write().unwrap_or_else(|e| e.into_inner());
        let version = slot.version + 1;
        *slot = Arc::new(ModelSnapshot {
            version,
            model,
            published_unix: unix_now(),
        });
        drop(slot);
        set_version_gauge(version);
        obs::metrics().counter("serve.snapshot.publishes").incr(1);
        version
    }

    /// Publishes `model` under a caller-chosen version — the follower
    /// path, where the version comes from the leader's lineage rather
    /// than a local increment. Monotone-guarded: a version at or below
    /// the current one is rejected (returns the unchanged current
    /// version) so stale replication fetches can never roll the store
    /// backwards.
    pub fn publish_version(&self, model: Arc<dyn CascadeModel>, version: u64) -> u64 {
        let mut slot = self.current.write().unwrap_or_else(|e| e.into_inner());
        if version <= slot.version {
            return slot.version;
        }
        *slot = Arc::new(ModelSnapshot {
            version,
            model,
            published_unix: unix_now(),
        });
        drop(slot);
        set_version_gauge(version);
        obs::metrics().counter("serve.snapshot.publishes").incr(1);
        version
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viralcast_embed::Embeddings;
    use viralcast_graph::NodeId;
    use viralcast_model::EmbeddingBackend;

    fn emb(seed: f64) -> Arc<dyn CascadeModel> {
        Arc::new(EmbeddingBackend::new(Embeddings::from_matrices(
            2,
            1,
            vec![seed, seed],
            vec![seed, seed],
        )))
    }

    /// `emb(seed)` has all-equal entries, so every pairwise hazard is
    /// `seed²` — the probe the swap tests read through the trait.
    fn probe(snap: &ModelSnapshot) -> f64 {
        snap.model.hazard(NodeId(0), NodeId(1))
    }

    #[test]
    fn boot_snapshot_is_version_one() {
        let store = SnapshotStore::new(emb(0.5));
        assert_eq!(store.version(), 1);
        assert_eq!(store.current().version, 1);
    }

    #[test]
    fn recovered_lineage_resumes_at_its_version() {
        let store = SnapshotStore::with_version(emb(0.5), 7);
        assert_eq!(store.version(), 7);
        assert_eq!(store.publish(emb(0.6)), 8);
        // Version 0 is not a publishable lineage; clamp to the floor.
        assert_eq!(SnapshotStore::with_version(emb(0.5), 0).version(), 1);
    }

    #[test]
    fn publish_version_adopts_forward_and_rejects_backward() {
        let store = SnapshotStore::new(emb(0.5));
        // Adopt a leader version far ahead of the local lineage.
        assert_eq!(store.publish_version(emb(0.7), 9), 9);
        assert_eq!(store.version(), 9);
        assert_eq!(probe(&store.current()), 0.7 * 0.7);
        // Stale and equal versions are rejected without swapping.
        assert_eq!(store.publish_version(emb(0.9), 9), 9);
        assert_eq!(store.publish_version(emb(0.9), 3), 9);
        assert_eq!(probe(&store.current()), 0.7 * 0.7);
        // A local publish resumes after the adopted version.
        assert_eq!(store.publish(emb(0.8)), 10);
    }

    #[test]
    fn publish_bumps_version_and_swaps() {
        let store = SnapshotStore::new(emb(0.5));
        let held = store.current();
        assert_eq!(store.publish(emb(0.7)), 2);
        assert_eq!(store.version(), 2);
        // The old handle still sees the model it started with.
        assert_eq!(held.version, 1);
        assert_eq!(probe(&held), 0.5 * 0.5);
        assert_eq!(probe(&store.current()), 0.7 * 0.7);
    }

    #[test]
    fn concurrent_readers_never_see_a_torn_model() {
        // Each published model has all-equal entries; a "torn" read would
        // surface as a hazard inconsistent with the snapshot version.
        let store = Arc::new(SnapshotStore::new(emb(1.0)));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let store = Arc::clone(&store);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let snap = store.current();
                        let v = snap.version as f64;
                        assert_eq!(probe(&snap), v * v, "torn snapshot at v{}", snap.version);
                    }
                });
            }
            // emb(v) tags every entry with the version number; the single
            // publisher keeps the loop variable and the assigned version
            // in lockstep.
            let store2 = Arc::clone(&store);
            scope.spawn(move || {
                for v in 2..=199u64 {
                    store2.publish(emb(v as f64));
                }
                stop.store(true, std::sync::atomic::Ordering::Relaxed);
            });
        });
        assert_eq!(store.version(), 199);
    }
}
