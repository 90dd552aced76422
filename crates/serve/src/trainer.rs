//! The background incremental-retraining thread.
//!
//! Every `interval`, the trainer drains the ingest buffer and — when the
//! batch is big enough — hands the fresh cascades plus the *current*
//! snapshot's model to the injected retrain function (the CLI wires the
//! backend's [`CascadeModel::update`] here; tests inject stubs). A
//! successful retrain publishes the next snapshot version; request
//! threads keep serving the old `Arc` throughout, so readers never block
//! on training.
//!
//! With a durable [`EventStore`] attached, the drain happens under the
//! store lock so the WAL offset read alongside it provably covers
//! exactly the drained-or-already-trained records (the ingest path
//! appends to the WAL and pushes to the buffer under the same lock).
//! After a successful publish the trainer checkpoints: the new model
//! lands atomically next to a manifest recording the snapshot version,
//! the backend id, and that offset, and fully covered WAL segments are
//! compacted away.
//!
//! The retrain function is injected rather than imported so tests can
//! stub it and the CLI can decorate the backend's update (validation,
//! option overrides) without this crate knowing.

use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use viralcast_model::CascadeModel;
use viralcast_obs::{self as obs, warn, JsonValue};
use viralcast_propagation::CascadeSet;
use viralcast_store::EventStore;

use crate::ingest::{DrainedBatch, IngestBuffer};
use crate::shutdown::Shutdown;
use crate::snapshot::SnapshotStore;

/// Warm-start retraining: `(current model, fresh cascades) → new model`.
/// The cascade set's universe matches the model's node count. The
/// default wiring is the backend's own [`CascadeModel::update`].
pub type RetrainFn = Box<
    dyn Fn(&Arc<dyn CascadeModel>, &CascadeSet) -> Result<Arc<dyn CascadeModel>, String> + Send,
>;

/// Trainer cadence knobs.
#[derive(Clone, Copy, Debug)]
pub struct TrainerConfig {
    /// How often to check the buffer and retrain.
    pub interval: Duration,
    /// Minimum buffered cascades before a retrain fires (≥ 1).
    pub min_batch: usize,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            interval: Duration::from_secs(5),
            min_batch: 1,
        }
    }
}

/// Spawns the trainer thread; it waits each interval out on `shutdown`
/// and exits the moment that is raised.
pub fn spawn(
    store: Arc<SnapshotStore>,
    buffer: Arc<IngestBuffer>,
    event_store: Option<Arc<Mutex<EventStore>>>,
    retrain: RetrainFn,
    config: TrainerConfig,
    shutdown: Arc<Shutdown>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("viralcast-trainer".into())
        .spawn(move || run(store, buffer, event_store, retrain, config, shutdown))
        .expect("spawning the trainer thread")
}

fn run(
    store: Arc<SnapshotStore>,
    buffer: Arc<IngestBuffer>,
    event_store: Option<Arc<Mutex<EventStore>>>,
    retrain: RetrainFn,
    config: TrainerConfig,
    shutdown: Arc<Shutdown>,
) {
    let min_batch = config.min_batch.max(1);
    // A zero interval must not turn the wait into a spin.
    let interval = config.interval.max(Duration::from_millis(1));
    // Attempts start one interval apart; a retrain that overran its
    // interval is followed by the next attempt at once.
    let mut next_attempt = Instant::now() + interval;
    while !shutdown.wait(next_attempt.saturating_duration_since(Instant::now())) {
        next_attempt = Instant::now() + interval;
        if buffer.len() < min_batch {
            continue;
        }
        // Drain under the event-store lock: the ingest path appends to
        // the WAL and pushes to the buffer atomically under the same
        // lock, so `next_index` read here covers exactly the records
        // drained now or in earlier ticks — the offset a checkpoint
        // after this batch may safely claim.
        let (batch, covered) = match &event_store {
            Some(es) => {
                let guard = es.lock().unwrap_or_else(|e| e.into_inner());
                (buffer.drain(), Some(guard.next_index()))
            }
            None => (buffer.drain(), None),
        };
        retrain_once(&store, event_store.as_deref(), batch, covered, &retrain);
    }
}

/// One retrain attempt over a drained batch (no-op on an empty batch).
/// `covered` is the WAL offset the batch extends the model to; with an
/// event store attached, a successful publish checkpoints there.
fn retrain_once(
    store: &SnapshotStore,
    event_store: Option<&Mutex<EventStore>>,
    batch: DrainedBatch,
    covered: Option<u64>,
    retrain: &RetrainFn,
) {
    if batch.is_empty() {
        return;
    }
    let snap = store.current();
    let count = batch.cascades.len();
    let fresh = CascadeSet::new(snap.model.node_count(), batch.cascades);
    let started = Instant::now();
    match retrain(&snap.model, &fresh) {
        Ok(model) => {
            let seconds = started.elapsed().as_secs_f64();
            let version = store.publish(model);
            obs::metrics().counter("serve.retrain.runs").incr(1);
            obs::metrics()
                .counter("serve.retrain.cascades")
                .incr(count as u64);
            obs::metrics()
                .histogram(
                    "serve.retrain.seconds",
                    &[0.01, 0.05, 0.25, 1.0, 5.0, 30.0, 120.0],
                )
                .record(seconds);
            obs::info(
                "serve.retrain",
                &format!("published snapshot v{version} from {count} cascades in {seconds:.2}s"),
                &[],
            );
            report_publish_lag(&batch.traces, version);
            if let (Some(es), Some(offset)) = (event_store, covered) {
                let published = store.current();
                let mut guard = es.lock().unwrap_or_else(|e| e.into_inner());
                // A failed checkpoint degrades durability (recovery
                // replays from the previous one), not serving.
                if let Err(e) = guard.checkpoint(version, offset, published.model.as_ref()) {
                    obs::metrics().counter("store.checkpoint.errors").incr(1);
                    warn(
                        "serve.retrain",
                        &format!("checkpoint of snapshot v{version} failed: {e}"),
                        &[],
                    );
                }
            }
        }
        Err(message) => {
            obs::metrics().counter("serve.retrain.errors").incr(1);
            warn(
                "serve.retrain",
                &format!("retrain over {count} cascades failed: {message}"),
                &[],
            );
        }
    }
}

/// Records, per contributing ingest trace, the acked-to-published
/// latency of the snapshot that now covers it: the histogram
/// `serve.ingest_to_publish_ms`, the last-batch gauge
/// `serve.lag.ingest_to_publish_ms` (the worst lag of this publish),
/// and one log line joining the trace ID to the snapshot version.
fn report_publish_lag(traces: &[crate::ingest::TraceMark], version: u64) {
    let mut worst_ms = 0.0f64;
    for mark in traces {
        let lag_ms = mark.enqueued.elapsed().as_secs_f64() * 1e3;
        worst_ms = worst_ms.max(lag_ms);
        obs::metrics()
            .histogram_exponential("serve.ingest_to_publish_ms", 1.0, 2.0, 16)
            .record(lag_ms);
        obs::info(
            "serve.retrain",
            &format!(
                "trace {} ({} cascade(s)) covered by snapshot v{version} after {lag_ms:.1}ms",
                mark.trace_id, mark.cascades
            ),
            &[
                ("trace_id", JsonValue::from(mark.trace_id.as_str())),
                ("snapshot_version", JsonValue::from(version)),
                ("lag_ms", JsonValue::from(lag_ms)),
            ],
        );
    }
    if !traces.is_empty() {
        obs::metrics()
            .gauge("serve.lag.ingest_to_publish_ms")
            .set(worst_ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::TraceMark;
    use viralcast_embed::Embeddings;
    use viralcast_model::EmbeddingBackend;
    use viralcast_propagation::{Cascade, Infection};

    fn embeddings() -> Arc<dyn CascadeModel> {
        Arc::new(EmbeddingBackend::new(Embeddings::from_matrices(
            4,
            1,
            vec![0.1; 4],
            vec![0.1; 4],
        )))
    }

    /// The wrapped embeddings of a published embed-backend snapshot.
    fn inner(model: &Arc<dyn CascadeModel>) -> &Embeddings {
        model
            .as_any()
            .downcast_ref::<EmbeddingBackend>()
            .expect("embed backend")
            .embeddings()
    }

    fn identity() -> RetrainFn {
        Box::new(|model, _| Ok(Arc::clone(model)))
    }

    fn cascade() -> Cascade {
        Cascade::new(vec![Infection::new(0u32, 0.0), Infection::new(1u32, 0.3)]).unwrap()
    }

    fn batch_of(cascades: Vec<Cascade>) -> DrainedBatch {
        DrainedBatch {
            cascades,
            traces: Vec::new(),
        }
    }

    #[test]
    fn drained_batch_publishes_a_new_version() {
        let store = SnapshotStore::new(embeddings());
        // A retrain that bumps every influence entry by 1 and records the
        // batch size it saw.
        let retrain: RetrainFn = Box::new(|model, fresh| {
            assert_eq!(fresh.node_count(), 4);
            assert_eq!(fresh.len(), 2);
            let emb = model
                .as_any()
                .downcast_ref::<EmbeddingBackend>()
                .expect("embed backend")
                .embeddings();
            let a: Vec<f64> = emb.influence_matrix().iter().map(|x| x + 1.0).collect();
            Ok(Arc::new(EmbeddingBackend::new(Embeddings::from_matrices(
                emb.node_count(),
                emb.topic_count(),
                a,
                emb.selectivity_matrix().to_vec(),
            ))))
        });
        retrain_once(
            &store,
            None,
            batch_of(vec![cascade(), cascade()]),
            None,
            &retrain,
        );
        let snap = store.current();
        assert_eq!(snap.version, 2);
        assert!((inner(&snap.model).influence_matrix()[0] - 1.1).abs() < 1e-12);
    }

    #[test]
    fn failed_retrain_keeps_the_old_snapshot() {
        let store = SnapshotStore::new(embeddings());
        let retrain: RetrainFn = Box::new(|_, _| Err("synthetic failure".into()));
        retrain_once(&store, None, batch_of(vec![cascade()]), None, &retrain);
        assert_eq!(store.version(), 1);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let store = SnapshotStore::new(embeddings());
        let retrain: RetrainFn = Box::new(|_, _| panic!("must not be called"));
        retrain_once(&store, None, DrainedBatch::default(), None, &retrain);
        assert_eq!(store.version(), 1);
    }

    #[test]
    fn successful_publish_checkpoints_the_event_store() {
        let dir =
            std::env::temp_dir().join(format!("viralcast-trainer-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut es, _) = EventStore::open(&dir, viralcast_store::WalOptions::default()).unwrap();
        es.append_batch(&[Cascade::new(vec![
            Infection::new(0u32, 0.0),
            Infection::new(1u32, 0.3),
        ])
        .unwrap()])
            .unwrap();
        let es = Mutex::new(es);
        let store = SnapshotStore::new(embeddings());
        let retrain: RetrainFn = identity();
        retrain_once(
            &store,
            Some(&es),
            batch_of(vec![cascade()]),
            Some(1),
            &retrain,
        );
        assert_eq!(store.version(), 2);
        // The checkpoint landed: reopening recovers snapshot v2 with
        // nothing left pending below the recorded offset.
        drop(es);
        let (_, recovery) = EventStore::open(&dir, viralcast_store::WalOptions::default()).unwrap();
        assert_eq!(recovery.snapshot_version(), 2);
        assert!(recovery.pending.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn publish_reports_per_trace_lag() {
        let store = SnapshotStore::new(embeddings());
        let retrain: RetrainFn = identity();
        let hist_before = obs::metrics()
            .histogram_exponential("serve.ingest_to_publish_ms", 1.0, 2.0, 16)
            .count();
        let batch = DrainedBatch {
            cascades: vec![cascade(), cascade()],
            traces: vec![
                TraceMark {
                    trace_id: "lag-a".into(),
                    cascades: 1,
                    enqueued: Instant::now(),
                },
                TraceMark {
                    trace_id: "lag-b".into(),
                    cascades: 1,
                    enqueued: Instant::now(),
                },
            ],
        };
        retrain_once(&store, None, batch, None, &retrain);
        assert_eq!(store.version(), 2);
        let hist = obs::metrics()
            .histogram_exponential("serve.ingest_to_publish_ms", 1.0, 2.0, 16)
            .count();
        assert_eq!(hist - hist_before, 2, "one lag sample per trace mark");
        let lag = obs::metrics().gauge("serve.lag.ingest_to_publish_ms").get();
        assert!(
            (0.0..60_000.0).contains(&lag),
            "implausible lag gauge {lag}"
        );
    }

    #[test]
    fn trainer_thread_drains_and_shuts_down() {
        let store = Arc::new(SnapshotStore::new(embeddings()));
        let buffer = Arc::new(IngestBuffer::new(16));
        let shutdown = Shutdown::new();
        let retrain: RetrainFn = identity();
        let handle = spawn(
            Arc::clone(&store),
            Arc::clone(&buffer),
            None,
            retrain,
            TrainerConfig {
                interval: Duration::from_millis(20),
                min_batch: 1,
            },
            Arc::clone(&shutdown),
        );
        buffer.push_batch(vec![cascade()], Some("trainer-test"));
        let deadline = Instant::now() + Duration::from_secs(5);
        while store.version() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(store.version() >= 2, "trainer never published");
        assert!(buffer.is_empty());
        shutdown.raise();
        handle.join().unwrap();
    }

    #[test]
    fn an_idle_trainer_stops_mid_interval() {
        let shutdown = Shutdown::new();
        let handle = spawn(
            Arc::new(SnapshotStore::new(embeddings())),
            Arc::new(IngestBuffer::new(16)),
            None,
            identity(),
            TrainerConfig {
                interval: Duration::from_secs(3600),
                min_batch: 1,
            },
            Arc::clone(&shutdown),
        );
        let started = Instant::now();
        shutdown.raise();
        handle.join().unwrap();
        let took = started.elapsed();
        assert!(took < Duration::from_secs(5), "join took {took:?}");
    }
}
