//! The daemon: durable recovery, request state, trainer, and the
//! lifecycle handle. Sockets and worker threads belong to
//! [`crate::listener`]; the daemon listens with [`router::route`] as
//! its handler.

use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use viralcast_model::{BackendMismatch, CascadeModel};
use viralcast_obs as obs;
use viralcast_store::{EventStore, WalOptions};

use crate::http::HttpLimits;
use crate::ingest::IngestBuffer;
use crate::listener::{listen, Listener, ListenerConfig};
use crate::router::{self, AppState};
use crate::snapshot::SnapshotStore;
use crate::trainer::{self, RetrainFn, TrainerConfig};

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker threads handling requests (≥ 1).
    pub workers: usize,
    /// Per-connection read timeout.
    pub read_timeout: Duration,
    /// Per-connection write timeout.
    pub write_timeout: Duration,
    /// Background trainer cadence.
    pub trainer: TrainerConfig,
    /// Ingest buffer capacity (cascades).
    pub ingest_capacity: usize,
    /// HTTP parsing limits.
    pub limits: HttpLimits,
    /// Data directory for the durable event store. `None` (the
    /// default) serves purely in memory; `Some` write-ahead-logs every
    /// acked ingest, checkpoints each published snapshot, and recovers
    /// both at boot.
    pub data_dir: Option<PathBuf>,
    /// WAL tuning (segment size, fsync policy) when `data_dir` is set.
    pub wal: WalOptions,
    /// Path of the JSONL access log (one line per request). `None`
    /// disables access logging.
    pub access_log: Option<PathBuf>,
    /// When `/healthz` reports `degraded` instead of `ok`.
    pub degrade: router::DegradeThresholds,
    /// Candidate row block this daemon owns when serving as one shard
    /// of a cluster; `None` (the default) serves every row.
    pub shard: Option<crate::shard::RowBlock>,
    /// Follower role: `Some` makes this daemon a read-only replica —
    /// the trainer thread is not spawned (snapshots arrive from the
    /// leader through [`SnapshotStore::publish_version`]), ingest is
    /// refused with a 409 redirect to the leader, and `/healthz` /
    /// `/metrics` report replication lag.
    pub replica: Option<crate::replica::ReplicaRole>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:8080".into(),
            workers: 4,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            trainer: TrainerConfig::default(),
            ingest_capacity: 4096,
            limits: HttpLimits::default(),
            data_dir: None,
            wal: WalOptions::default(),
            access_log: None,
            degrade: router::DegradeThresholds::default(),
            shard: None,
            replica: None,
        }
    }
}

/// What a durable boot recovered from its data directory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BootRecovery {
    /// Intact WAL records replayed (checkpointed or pending).
    pub replayed: usize,
    /// Acked-but-untrained events fed back into the ingest buffer.
    pub pending: usize,
    /// Bytes truncated from a torn final WAL segment.
    pub truncated_bytes: u64,
    /// Snapshot version the daemon resumed at (1 on a cold start).
    pub snapshot_version: u64,
}

/// A running daemon. Dropping the handle does **not** stop the server;
/// call [`ServerHandle::shutdown`].
pub struct ServerHandle {
    listener: Listener,
    /// `None` on a follower, which never trains.
    trainer: Option<JoinHandle<()>>,
    snapshots: Arc<SnapshotStore>,
    ingest: Arc<IngestBuffer>,
    event_store: Option<Arc<Mutex<EventStore>>>,
    recovery: Option<BootRecovery>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// The snapshot store the daemon serves from.
    pub fn snapshots(&self) -> Arc<SnapshotStore> {
        Arc::clone(&self.snapshots)
    }

    /// The ingest buffer feeding the trainer.
    pub fn ingest(&self) -> Arc<IngestBuffer> {
        Arc::clone(&self.ingest)
    }

    /// What boot recovered from the data directory (`None` without one).
    pub fn recovery(&self) -> Option<BootRecovery> {
        self.recovery
    }

    /// Graceful stop: raises the shutdown flag the listener and the
    /// trainer share, and waits for both.
    ///
    /// Joining the trainer means an in-flight checkpoint finishes before
    /// this returns; the final WAL sync then closes the window an
    /// `FsyncPolicy::Interval` log leaves between the last acked batch
    /// and its fsync — a graceful stop must never lose acked records.
    pub fn shutdown(self) {
        self.listener.shutdown();
        if let Some(trainer) = self.trainer {
            let _ = trainer.join();
        }
        if let Some(store) = &self.event_store {
            let mut guard = store.lock().unwrap_or_else(|e| e.into_inner());
            if let Err(e) = guard.sync() {
                obs::warn("serve", &format!("final WAL sync failed: {e}"), &[]);
            }
        }
    }
}

/// Recovers durable state, then starts the listener and the trainer.
///
/// `retrain` is invoked by the trainer with the current model and a
/// fresh cascade batch; pass `CascadeModel::update` wrapped in a closure
/// (see the `serve` subcommand) or any stand-in.
///
/// # Errors
///
/// Besides the usual bind/open failures, a durable boot fails fast with
/// an `InvalidData` error wrapping [`BackendMismatch`] when the data
/// directory's checkpoint was written by a different backend than the
/// passed-in model — silently serving (or worse, retraining over) the
/// wrong backend's state would corrupt the lineage.
pub fn start(
    model: Arc<dyn CascadeModel>,
    retrain: RetrainFn,
    config: ServeConfig,
) -> io::Result<ServerHandle> {
    // Recover the durable state first: if the data directory holds a
    // checkpoint, it supersedes the passed-in model (same lineage, same
    // version), and every acked-but-untrained event in the WAL is fed
    // back to the trainer before the listener accepts traffic.
    let mut boot_model = model;
    let mut boot_version = 1u64;
    let mut pending = Vec::new();
    let mut recovery_summary = None;
    let event_store = match &config.data_dir {
        Some(dir) => {
            let (es, recovery) = EventStore::open(dir, config.wal)?;
            boot_version = recovery.snapshot_version();
            if let Some(recovered) = recovery.model {
                if recovered.backend_id() != boot_model.backend_id() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        BackendMismatch {
                            expected: boot_model.backend_id().to_string(),
                            found: recovered.backend_id().to_string(),
                        },
                    ));
                }
                boot_model = recovered;
            }
            recovery_summary = Some(BootRecovery {
                replayed: recovery.replayed,
                pending: recovery.pending.len(),
                truncated_bytes: recovery.truncated_bytes,
                snapshot_version: boot_version,
            });
            pending = recovery.pending;
            obs::info(
                "serve",
                &format!(
                    "recovered {} from {}: {} pending event(s), snapshot v{boot_version}",
                    if recovery.manifest.is_some() {
                        "checkpoint + WAL"
                    } else {
                        "WAL"
                    },
                    dir.display(),
                    pending.len(),
                ),
                &[],
            );
            Some(Arc::new(Mutex::new(es)))
        }
        None => None,
    };

    let snapshots = Arc::new(SnapshotStore::with_version(boot_model, boot_version));
    let ingest = Arc::new(IngestBuffer::new(config.ingest_capacity));
    if !pending.is_empty() {
        // Preload bypasses the capacity bound: these events were acked
        // in a previous life and must not be shed.
        ingest.preload(pending);
    }
    let access_log = match &config.access_log {
        Some(path) => Some((
            Arc::new(obs::AccessLog::create(path)?),
            Arc::clone(&snapshots),
        )),
        None => None,
    };
    let state = AppState {
        snapshots: Arc::clone(&snapshots),
        ingest: Arc::clone(&ingest),
        store: event_store.clone(),
        shed_retry_after_ms: config.trainer.interval.as_millis().max(1) as u64,
        started: Instant::now(),
        degrade: config.degrade,
        shard: config.shard.clone().map(Arc::new),
        replica: config.replica.clone(),
    };
    let listener = listen(
        ListenerConfig {
            workers: config.workers,
            read_timeout: config.read_timeout,
            write_timeout: config.write_timeout,
            limits: config.limits,
            access_log,
            ..ListenerConfig::new(config.addr, "serve")
        },
        move |req, trace_id| router::route(req, &state, trace_id),
    )?;

    // Followers never train: their snapshots arrive from the leader,
    // and a local trainer would fork the version lineage.
    let trainer = config.replica.is_none().then(|| {
        trainer::spawn(
            Arc::clone(&snapshots),
            Arc::clone(&ingest),
            event_store.clone(),
            retrain,
            config.trainer,
            listener.shutdown_flag(),
        )
    });
    Ok(ServerHandle {
        listener,
        trainer,
        snapshots,
        ingest,
        event_store,
        recovery: recovery_summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use std::net::TcpListener;

    fn config() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            trainer: TrainerConfig {
                interval: Duration::from_millis(20),
                min_batch: 1,
            },
            ..ServeConfig::default()
        }
    }

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

    fn identity_retrain() -> RetrainFn {
        Box::new(|model, _| Ok(Arc::clone(model)))
    }

    #[test]
    fn serves_requests_and_shuts_down_cleanly() {
        let handle = start(embeddings(), identity_retrain(), config()).unwrap();
        let addr = handle.local_addr();

        let resp = client::request(&addr, "GET", "/healthz", None).unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"status\":\"ok\""), "{}", resp.body);

        let resp = client::request(
            &addr,
            "POST",
            "/v1/hazard",
            Some(r#"{"pairs":[[0,1]],"dt":1.0}"#),
        )
        .unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"rate\":"), "{}", resp.body);

        let resp = client::request(&addr, "GET", "/nope", None).unwrap();
        assert_eq!(resp.status, 404);

        handle.shutdown();
        // The port is released once the acceptor exits.
        assert!(TcpListener::bind(addr).is_ok());
    }

    #[test]
    fn ingest_triggers_a_background_retrain() {
        let handle = start(embeddings(), identity_retrain(), config()).unwrap();
        let addr = handle.local_addr();
        let resp = client::request(
            &addr,
            "POST",
            "/v1/ingest",
            Some(r#"{"cascades":[[{"node":0,"time":0.0},{"node":1,"time":1.0}]]}"#),
        )
        .unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"accepted\":1"), "{}", resp.body);

        let snapshots = handle.snapshots();
        let deadline = Instant::now() + Duration::from_secs(5);
        while snapshots.version() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(snapshots.version() >= 2, "trainer never published");
        handle.shutdown();
    }

    #[test]
    fn durable_boot_recovers_acked_ingests() {
        let dir =
            std::env::temp_dir().join(format!("viralcast-serve-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = config();
        cfg.data_dir = Some(dir.clone());
        // The trainer never fires: everything acked stays in the WAL.
        cfg.trainer.interval = Duration::from_secs(3600);

        let handle = start(embeddings(), identity_retrain(), cfg.clone()).unwrap();
        assert_eq!(
            handle.recovery(),
            Some(BootRecovery {
                snapshot_version: 1,
                ..BootRecovery::default()
            })
        );
        let resp = client::request(
            &handle.local_addr(),
            "POST",
            "/v1/ingest",
            Some(r#"{"cascades":[[{"node":0,"time":0.0},{"node":1,"time":1.0}]]}"#),
        )
        .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        handle.shutdown();

        // Restart on the same directory: the acked event is back in the
        // trainer's queue, same snapshot lineage.
        let handle = start(embeddings(), identity_retrain(), cfg).unwrap();
        let recovery = handle.recovery().expect("durable boot reports recovery");
        assert_eq!(recovery.replayed, 1);
        assert_eq!(recovery.pending, 1);
        assert_eq!(recovery.snapshot_version, 1);
        assert_eq!(handle.ingest().len(), 1);
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn graceful_shutdown_flushes_an_interval_policy_wal() {
        use viralcast_store::FsyncPolicy;
        let dir =
            std::env::temp_dir().join(format!("viralcast-serve-flush-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = config();
        cfg.data_dir = Some(dir.clone());
        // Neither the trainer nor the interval policy would sync on
        // their own within this test's lifetime.
        cfg.trainer.interval = Duration::from_secs(3600);
        cfg.wal = WalOptions {
            segment_bytes: 8 << 20,
            fsync: FsyncPolicy::Interval(Duration::from_secs(3600)),
        };

        let handle = start(embeddings(), identity_retrain(), cfg.clone()).unwrap();
        let resp = client::request(
            &handle.local_addr(),
            "POST",
            "/v1/ingest",
            Some(r#"{"cascades":[[{"node":0,"time":0.0},{"node":1,"time":1.0}]]}"#),
        )
        .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        // The acked record sits in the page cache: no fsync has covered
        // it yet. The graceful shutdown must run one.
        let before = obs::metrics().counter("store.wal.fsyncs").get();
        handle.shutdown();
        let after = obs::metrics().counter("store.wal.fsyncs").get();
        assert!(after > before, "shutdown did not fsync the WAL");

        // And the record is durably there on the next boot.
        let handle = start(embeddings(), identity_retrain(), cfg).unwrap();
        assert_eq!(handle.recovery().map(|r| r.pending), Some(1));
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_boot_refuses_a_foreign_backend_checkpoint() {
        let dir =
            std::env::temp_dir().join(format!("viralcast-serve-backend-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = config();
        cfg.data_dir = Some(dir.clone());
        cfg.trainer.interval = Duration::from_millis(20);

        // First life: an embed daemon publishes (and checkpoints) v2.
        let handle = start(embeddings(), identity_retrain(), cfg.clone()).unwrap();
        let resp = client::request(
            &handle.local_addr(),
            "POST",
            "/v1/ingest",
            Some(r#"{"cascades":[[{"node":0,"time":0.0},{"node":1,"time":1.0}]]}"#),
        )
        .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        let snapshots = handle.snapshots();
        let deadline = Instant::now() + Duration::from_secs(5);
        while snapshots.version() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(snapshots.version() >= 2, "trainer never published");
        handle.shutdown();

        // Second life: restarting over the same directory with a netinf
        // model must fail fast with a typed BackendMismatch, not serve
        // the wrong backend's checkpoint.
        let corpus = viralcast_propagation::CascadeSet::new(
            3,
            vec![viralcast_propagation::Cascade::new(vec![
                viralcast_propagation::Infection::new(0u32, 0.0),
                viralcast_propagation::Infection::new(1u32, 1.0),
            ])
            .unwrap()],
        );
        let netinf =
            viralcast_model::NetInfBackend::fit(&corpus, viralcast_model::NetInfConfig::default());
        let err = match start(Arc::new(netinf), identity_retrain(), cfg) {
            Err(e) => e,
            Ok(handle) => {
                handle.shutdown();
                panic!("a netinf boot over an embed checkpoint must fail");
            }
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let mismatch = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<BackendMismatch>())
            .expect("error carries a BackendMismatch");
        assert_eq!(mismatch.expected, "netinf");
        assert_eq!(mismatch.found, "embed");
        std::fs::remove_dir_all(&dir).ok();
    }
}
