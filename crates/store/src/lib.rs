//! `viralcast-store` — the durability layer under the online pipeline:
//! an append-only write-ahead log for ingested cascades plus atomically
//! checkpointed model snapshots, so a crash or restart loses no acked
//! event and resumes the same snapshot lineage.
//!
//! Layering, bottom to top:
//!
//! - [`crc32`] — the IEEE CRC-32 every record frame is checksummed with;
//! - [`codec`] — length-prefixed, CRC-framed binary records holding
//!   fixed-width cascade payloads;
//! - [`wal`] — segment files, rotation, fsync policy, torn-tail
//!   recovery, and prefix compaction;
//! - [`checkpoint`] — atomic snapshot persistence (temp + fsync +
//!   rename) and the manifest tying a snapshot version to the WAL
//!   offset it covers;
//! - [`EventStore`] — the composition the daemon uses: one data
//!   directory holding the log, the latest checkpoint, and the
//!   manifest, opened with full crash recovery.
//!
//! Like `viralcast-obs` and `viralcast-serve`, this crate takes no
//! dependencies outside the workspace and the standard library.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod codec;
pub mod crc32;
pub mod fault;
pub mod wal;

pub use checkpoint::{
    decode_checkpoint, encode_model, load_model_checkpoint, save_checkpoint, Manifest,
};
pub use codec::{CodecError, FrameRead};
pub use fault::{FaultHandle, FaultKind, FaultPlan};
pub use wal::{BatchMark, FsyncPolicy, Replay, SequencedCascade, Wal, WalOptions};

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
pub use viralcast_model::{self as model, CascadeModel};
use viralcast_obs as obs;
use viralcast_propagation::Cascade;

/// What [`EventStore::open`] reconstructed from a data directory.
#[derive(Debug)]
pub struct Recovery {
    /// The last committed checkpoint, if any.
    pub manifest: Option<Manifest>,
    /// The checkpointed model (present iff `manifest` is), decoded by
    /// the backend the manifest named.
    pub model: Option<Arc<dyn CascadeModel>>,
    /// Replayed cascades **not** covered by the checkpoint, in log
    /// order: the acked-but-untrained tail the caller must feed back
    /// into its pipeline.
    pub pending: Vec<Cascade>,
    /// Total intact WAL records replayed (including checkpointed ones
    /// whose segments have not been compacted yet).
    pub replayed: usize,
    /// Bytes truncated from a torn final segment.
    pub truncated_bytes: u64,
}

impl Recovery {
    /// Snapshot version to resume at (1 when no checkpoint exists).
    pub fn snapshot_version(&self) -> u64 {
        self.manifest.as_ref().map_or(1, |m| m.snapshot_version)
    }
}

/// One data directory: the WAL, the latest checkpoint, the manifest.
///
/// The store is single-writer: callers that share it across threads
/// wrap it in a `Mutex` and hold the lock across any sequence that must
/// stay consistent with the log (the serve crate holds it across
/// "append to WAL, then hand to the trainer's buffer", and across
/// "drain the buffer, then read the covered offset").
#[derive(Debug)]
pub struct EventStore {
    dir: PathBuf,
    wal: Wal,
    /// First record index **not** covered by the latest checkpoint —
    /// everything in `[checkpoint_offset, next_index)` is durable but
    /// not yet folded into a snapshot.
    checkpoint_offset: u64,
}

impl EventStore {
    /// Opens (or creates) the store in `dir`: loads the manifest and its
    /// checkpointed model (decoded by the backend the manifest names),
    /// replays every intact WAL record, and truncates a torn final
    /// segment. A manifest that names a missing or unreadable checkpoint
    /// file is an error — that is corruption, not a cold start.
    pub fn open(dir: &Path, options: WalOptions) -> io::Result<(EventStore, Recovery)> {
        std::fs::create_dir_all(dir)?;
        let manifest = Manifest::load(dir)?;
        let model = match &manifest {
            Some(m) => Some(
                checkpoint::load_model_checkpoint(&dir.join(&m.embeddings_file), &m.backend)
                    .map_err(|e| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "manifest names checkpoint {} but it cannot be loaded: {e}",
                                m.embeddings_file
                            ),
                        )
                    })?,
            ),
            None => None,
        };
        let offset = manifest.as_ref().map_or(0, |m| m.wal_offset);
        let (wal, replay) = Wal::open(dir, options, offset)?;
        let pending = replay
            .records
            .iter()
            .filter(|r| r.index >= offset)
            .map(|r| r.cascade.clone())
            .collect();
        let recovery = Recovery {
            manifest,
            model,
            pending,
            replayed: replay.records.len(),
            truncated_bytes: replay.truncated_bytes,
        };
        obs::info(
            "store",
            &format!(
                "opened {}: {} record(s) replayed, {} pending, checkpoint v{}",
                dir.display(),
                recovery.replayed,
                recovery.pending.len(),
                recovery.snapshot_version(),
            ),
            &[],
        );
        let store = EventStore {
            dir: dir.to_path_buf(),
            wal,
            checkpoint_offset: offset,
        };
        store.set_pending_gauge();
        Ok((store, recovery))
    }

    /// Index the next appended record will get — also the exclusive
    /// upper bound of everything durable so far.
    pub fn next_index(&self) -> u64 {
        self.wal.next_index()
    }

    /// Durable records not yet folded into a checkpointed snapshot —
    /// the WAL lag a dashboard watches to see the trainer falling
    /// behind ingest.
    pub fn pending_records(&self) -> u64 {
        self.wal.next_index().saturating_sub(self.checkpoint_offset)
    }

    fn set_pending_gauge(&self) {
        obs::metrics()
            .gauge("store.wal.pending_records")
            .set(self.pending_records() as f64);
    }

    /// Arms an injectable [`fault::FaultPlan`] on the store's I/O paths
    /// (WAL appends/fsyncs/rotations and checkpoints), returning the
    /// handle that reports how many faults fired.
    pub fn arm_faults(&mut self, plan: FaultPlan) -> FaultHandle {
        self.wal.arm_faults(plan)
    }

    /// Appends a batch and commits it under the fsync policy. Once this
    /// returns, the batch is as durable as the policy promises and the
    /// caller may ack it.
    ///
    /// On failure the partially appended batch is rolled back out of the
    /// log before the error is returned: the caller will NACK the whole
    /// batch, so none of its records may survive to be replayed as if
    /// they had been acked. If the rollback itself fails, the error says
    /// so — recovery's torn-tail truncation is then the backstop.
    pub fn append_batch(&mut self, cascades: &[Cascade]) -> io::Result<u64> {
        let mark = self.wal.mark();
        let mut failure = None;
        for cascade in cascades {
            if let Err(e) = self.wal.append(cascade) {
                failure = Some(e);
                break;
            }
        }
        let failure = match failure {
            None => self.wal.commit().err(),
            failed => failed,
        };
        if let Some(e) = failure {
            let outcome = self.wal.rollback_to(&mark);
            self.set_pending_gauge();
            return match outcome {
                Ok(removed) => {
                    obs::metrics()
                        .counter("store.wal.rolled_back_batches")
                        .incr(1);
                    obs::warn(
                        "store",
                        &format!(
                            "append batch failed ({e}); rolled back {removed} unacked byte(s)"
                        ),
                        &[],
                    );
                    Err(e)
                }
                Err(rb) => Err(io::Error::new(
                    e.kind(),
                    format!(
                        "{e}; rollback of the unacked batch also failed: {rb} \
                         (recovery will truncate any torn tail)"
                    ),
                )),
            };
        }
        self.set_pending_gauge();
        Ok(self.wal.next_index())
    }

    /// Forces an fsync regardless of policy.
    pub fn sync(&mut self) -> io::Result<()> {
        self.wal.sync()
    }

    /// Persists a checkpoint — the model atomically, then the manifest
    /// commit point — and garbage-collects WAL segments wholly below
    /// `wal_offset` (the first record index **not** folded into the
    /// snapshot).
    pub fn checkpoint(
        &mut self,
        snapshot_version: u64,
        wal_offset: u64,
        model: &dyn CascadeModel,
    ) -> io::Result<Manifest> {
        if self.wal.fault_on_checkpoint() {
            return Err(fault::injected("checkpoint failure"));
        }
        let manifest = save_checkpoint(&self.dir, snapshot_version, wal_offset, model)?;
        self.wal.compact(wal_offset)?;
        self.checkpoint_offset = self.checkpoint_offset.max(wal_offset);
        self.set_pending_gauge();
        obs::metrics().counter("store.checkpoint.saves").incr(1);
        obs::metrics()
            .gauge("store.checkpoint.wal_offset")
            .set(wal_offset as f64);
        obs::metrics()
            .gauge("store.checkpoint.snapshot_version")
            .set(snapshot_version as f64);
        Ok(manifest)
    }

    /// Drops the store without the final policy-driven fsync — a
    /// test/demo hook simulating a crash at the process boundary.
    pub fn abandon(self) {
        self.wal.abandon();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viralcast_propagation::Infection;

    fn cascade(seed: u32) -> Cascade {
        Cascade::new(vec![
            Infection::new(seed, 0.0),
            Infection::new(seed + 1, 1.0),
        ])
        .unwrap()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "viralcast-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn emb(seed: f64) -> viralcast_model::EmbeddingBackend {
        viralcast_model::EmbeddingBackend::new(viralcast_embed::Embeddings::from_matrices(
            4,
            1,
            vec![seed; 4],
            vec![seed; 4],
        ))
    }

    #[test]
    fn cold_start_is_empty() {
        let dir = tmp_dir("cold");
        let (store, recovery) = EventStore::open(&dir, WalOptions::default()).unwrap();
        assert!(recovery.manifest.is_none());
        assert!(recovery.model.is_none());
        assert!(recovery.pending.is_empty());
        assert_eq!(recovery.snapshot_version(), 1);
        assert_eq!(store.next_index(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_reopen_replays_pending() {
        let dir = tmp_dir("pending");
        {
            let (mut store, _) = EventStore::open(&dir, WalOptions::default()).unwrap();
            let next = store
                .append_batch(&[cascade(0), cascade(10), cascade(20)])
                .unwrap();
            assert_eq!(next, 3);
        }
        let (store, recovery) = EventStore::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(recovery.replayed, 3);
        assert_eq!(recovery.pending.len(), 3);
        assert_eq!(recovery.pending[1].seed().node.0, 10);
        assert_eq!(store.next_index(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_splits_covered_from_pending() {
        let dir = tmp_dir("ckpt");
        {
            let (mut store, _) = EventStore::open(&dir, WalOptions::default()).unwrap();
            store.append_batch(&[cascade(0), cascade(10)]).unwrap();
            // Snapshot v5 covers the first two records…
            store.checkpoint(5, 2, &emb(0.5)).unwrap();
            // …then one more arrives after the checkpoint.
            store.append_batch(&[cascade(20)]).unwrap();
        }
        let (store, recovery) = EventStore::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(recovery.snapshot_version(), 5);
        let back = recovery.model.expect("checkpointed model");
        assert_eq!(back.backend_id(), "embed");
        let back = back
            .as_any()
            .downcast_ref::<viralcast_model::EmbeddingBackend>()
            .expect("embed backend");
        assert!(back.embeddings().max_abs_diff(emb(0.5).embeddings()) < 1e-12);
        assert_eq!(recovery.pending.len(), 1);
        assert_eq!(recovery.pending[0].seed().node.0, 20);
        assert_eq!(store.next_index(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_compacts_covered_segments() {
        let dir = tmp_dir("compact");
        let options = WalOptions {
            segment_bytes: 64,
            fsync: FsyncPolicy::OnRotate,
        };
        let (mut store, _) = EventStore::open(&dir, options).unwrap();
        for i in 0..9u32 {
            store.append_batch(&[cascade(i * 2)]).unwrap();
        }
        store.sync().unwrap();
        let segments_before = wal_segments(&dir);
        assert!(segments_before >= 3);
        store.checkpoint(2, store.next_index(), &emb(0.1)).unwrap();
        assert!(wal_segments(&dir) < segments_before);
        // Compaction never loses uncovered records: everything here was
        // covered, so a reopen has no pending work but full lineage.
        drop(store);
        let (_, recovery) = EventStore::open(&dir, options).unwrap();
        assert_eq!(recovery.snapshot_version(), 2);
        assert!(recovery.pending.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pending_records_track_the_checkpoint_frontier() {
        let dir = tmp_dir("lag");
        {
            let (mut store, _) = EventStore::open(&dir, WalOptions::default()).unwrap();
            assert_eq!(store.pending_records(), 0);
            store.append_batch(&[cascade(0), cascade(10)]).unwrap();
            assert_eq!(store.pending_records(), 2);
            store.checkpoint(2, 2, &emb(0.5)).unwrap();
            assert_eq!(store.pending_records(), 0);
            store.append_batch(&[cascade(20)]).unwrap();
            assert_eq!(store.pending_records(), 1);
        }
        // A reopen resumes the lag from the manifest, not from zero.
        let (store, _) = EventStore::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(store.pending_records(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_naming_a_missing_checkpoint_is_an_error() {
        let dir = tmp_dir("missing");
        std::fs::create_dir_all(&dir).unwrap();
        Manifest {
            snapshot_version: 3,
            wal_offset: 0,
            embeddings_file: "checkpoint-3.bin".into(),
            backend: "embed".into(),
        }
        .save(&dir)
        .unwrap();
        let err = EventStore::open(&dir, WalOptions::default()).unwrap_err();
        assert!(err.to_string().contains("cannot be loaded"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    fn wal_segments(dir: &Path) -> usize {
        std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| {
                let name = e.file_name();
                let name = name.to_string_lossy();
                name.starts_with("wal-") && name.ends_with(".log")
            })
            .count()
    }
}
