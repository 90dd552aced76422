//! Checkpoints: atomically persisted model snapshots plus the manifest
//! tying each snapshot to the WAL offset it covers.
//!
//! A checkpoint is two files in the data directory:
//!
//! * `checkpoint-<version>.bin` — the model in the store's own binary
//!   format: an 8-byte magic followed by one CRC-framed record holding
//!   the backend's own payload ([`CascadeModel::encode`]; for the
//!   default embed backend that is `[u32 LE n][u32 LE k]`, then `n·k`
//!   influence and `n·k` selectivity entries as `u64 LE` f64 bits),
//!   written atomically via [`atomic_write`];
//! * `manifest` — a tiny line-oriented text file naming the snapshot
//!   version, the model file, the backend that wrote it, and
//!   `wal_offset`, the first WAL record index **not** folded into this
//!   snapshot.
//!
//! The manifest is the commit point: it is written to a temp file,
//! fsynced, and renamed over the old manifest, so recovery always sees
//! either the previous checkpoint or the new one, never a mix. Only
//! after the manifest lands are stale `checkpoint-*` files deleted
//! and WAL segments below `wal_offset` eligible for compaction.
//!
//! Neither format is JSON: the store crate hand rolls its I/O (like obs
//! and serve), the manifest is a few `key=value` lines needing no parser
//! worth depending on, and the model file reuses the WAL's frame codec
//! so a bit-flipped checkpoint is detected at load rather than silently
//! served.

use std::fs::{self, File};
use std::io::{self, Read};
use std::path::Path;
use std::sync::Arc;
use viralcast_model::CascadeModel;
use viralcast_propagation::store::atomic_write;

use crate::codec::{frame, read_frame, FrameRead};

/// First line of every manifest file.
pub const MANIFEST_FORMAT: &str = "viralcast-manifest-v1";

/// File name of the manifest inside a data directory.
pub const MANIFEST_FILE: &str = "manifest";

/// The durable record of the latest checkpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Snapshot version the checkpointed embeddings were published as.
    pub snapshot_version: u64,
    /// First WAL record index not covered by this checkpoint: records
    /// `< wal_offset` are baked into the snapshot, records `>=` must be
    /// replayed into the trainer on boot.
    pub wal_offset: u64,
    /// Embeddings file name (relative to the data directory).
    pub embeddings_file: String,
    /// Backend that encoded the checkpoint payload (a
    /// [`CascadeModel::backend_id`]).
    pub backend: String,
}

impl Manifest {
    fn render(&self) -> String {
        format!(
            "{MANIFEST_FORMAT}\nsnapshot_version={}\nwal_offset={}\nembeddings_file={}\nbackend={}\n",
            self.snapshot_version, self.wal_offset, self.embeddings_file, self.backend
        )
    }

    fn parse(text: &str) -> Result<Manifest, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some(MANIFEST_FORMAT) => {}
            Some(other) => return Err(format!("format tag {other:?} != {MANIFEST_FORMAT:?}")),
            None => return Err("empty manifest".into()),
        }
        let mut version = None;
        let mut offset = None;
        let mut file = None;
        let mut backend = None;
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("malformed line {line:?}"))?;
            match key {
                "snapshot_version" => {
                    version = Some(
                        value
                            .parse()
                            .map_err(|_| format!("bad version {value:?}"))?,
                    )
                }
                "wal_offset" => {
                    offset = Some(value.parse().map_err(|_| format!("bad offset {value:?}"))?)
                }
                "embeddings_file" => file = Some(value.to_string()),
                "backend" => backend = Some(value.to_string()),
                other => return Err(format!("unknown key {other:?}")),
            }
        }
        Ok(Manifest {
            snapshot_version: version.ok_or("missing snapshot_version")?,
            wal_offset: offset.ok_or("missing wal_offset")?,
            embeddings_file: file.ok_or("missing embeddings_file")?,
            backend: backend.ok_or("missing backend")?,
        })
    }

    /// Loads the manifest from `dir`, `Ok(None)` when none exists yet.
    pub fn load(dir: &Path) -> io::Result<Option<Manifest>> {
        let path = dir.join(MANIFEST_FILE);
        let mut text = String::new();
        match File::open(&path) {
            Ok(mut f) => f.read_to_string(&mut text)?,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        Manifest::parse(&text).map(Some).map_err(|m| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("invalid manifest {}: {m}", path.display()),
            )
        })
    }

    /// Atomically replaces the manifest in `dir` with `self`.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        atomic_write(&dir.join(MANIFEST_FILE), self.render().as_bytes())
    }
}

/// Name of the embeddings file a checkpoint of `version` writes.
fn checkpoint_file_name(version: u64) -> String {
    format!("checkpoint-{version}.bin")
}

/// First 8 bytes of every checkpoint model file.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"VCCKPT01";

/// Serialises a model into the checkpoint file format: the magic
/// followed by one CRC-framed record of the backend's payload.
pub fn encode_model(model: &dyn CascadeModel) -> Vec<u8> {
    let payload = model.encode();
    let mut out = Vec::with_capacity(CHECKPOINT_MAGIC.len() + 8 + payload.len());
    out.extend_from_slice(CHECKPOINT_MAGIC);
    out.extend_from_slice(&frame(&payload));
    out
}

/// Unwraps the magic + CRC frame of a checkpoint file, returning the
/// backend payload inside.
fn unwrap_checkpoint(bytes: &[u8]) -> Result<Vec<u8>, String> {
    let rest = bytes
        .strip_prefix(CHECKPOINT_MAGIC.as_slice())
        .ok_or("missing checkpoint magic")?;
    match read_frame(rest, 0) {
        FrameRead::Complete { payload, consumed } if consumed == rest.len() => Ok(payload.to_vec()),
        FrameRead::Complete { .. } => Err("trailing bytes after the record".into()),
        FrameRead::Torn => Err("truncated checkpoint record".into()),
        FrameRead::Corrupt => Err("checkpoint record failed its CRC".into()),
        FrameRead::End => Err("empty checkpoint record".into()),
    }
}

/// Decodes a checkpoint file through the backend registry, dispatching
/// on the `backend` id the manifest recorded next to the file name.
pub fn decode_checkpoint(bytes: &[u8], backend: &str) -> Result<Arc<dyn CascadeModel>, String> {
    viralcast_model::decode_model(backend, &unwrap_checkpoint(bytes)?)
}

/// Loads the checkpointed model file at `path`, decoding it with the
/// backend the manifest named.
pub fn load_model_checkpoint(path: &Path, backend: &str) -> io::Result<Arc<dyn CascadeModel>> {
    let bytes = fs::read(path)?;
    decode_checkpoint(&bytes, backend).map_err(|m| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("invalid checkpoint {}: {m}", path.display()),
        )
    })
}

/// Persists a checkpoint: the model first, then the manifest commit
/// point, then garbage-collects superseded `checkpoint-*` files.
pub fn save_checkpoint(
    dir: &Path,
    version: u64,
    wal_offset: u64,
    model: &dyn CascadeModel,
) -> io::Result<Manifest> {
    let file_name = checkpoint_file_name(version);
    atomic_write(&dir.join(&file_name), &encode_model(model))?;
    let manifest = Manifest {
        snapshot_version: version,
        wal_offset,
        embeddings_file: file_name.clone(),
        backend: model.backend_id().to_string(),
    };
    manifest.save(dir)?;
    // Stale checkpoints are unreferenced once the manifest points at the
    // new one; failing to unlink them wastes disk but breaks nothing.
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.starts_with("checkpoint-") && name != file_name {
            let _ = fs::remove_file(&path);
        }
    }
    Ok(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use viralcast_embed::Embeddings;
    use viralcast_model::EmbeddingBackend;

    /// The embeddings inside a decoded embed-backend model.
    fn embeddings_of(model: &dyn CascadeModel) -> &Embeddings {
        model
            .as_any()
            .downcast_ref::<EmbeddingBackend>()
            .expect("an embed-backend model")
            .embeddings()
    }

    /// `decode_checkpoint` under the embed backend, error side only.
    fn decode_error(bytes: &[u8]) -> Option<String> {
        decode_checkpoint(bytes, EmbeddingBackend::ID).err()
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "viralcast-ckpt-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn manifest_round_trip() {
        let dir = tmp_dir("manifest");
        assert_eq!(Manifest::load(&dir).unwrap(), None);
        let m = Manifest {
            snapshot_version: 7,
            wal_offset: 123,
            embeddings_file: "checkpoint-7.bin".into(),
            backend: "netinf".into(),
        };
        m.save(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), Some(m));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifests_without_a_backend_line_are_refused() {
        // Three key=value lines only: the backend is never guessed.
        let err = Manifest::parse(
            "viralcast-manifest-v1\nsnapshot_version=3\nwal_offset=9\nembeddings_file=checkpoint-3.bin\n",
        )
        .unwrap_err();
        assert!(err.contains("missing backend"), "{err}");
    }

    #[test]
    fn manifest_rejects_garbage() {
        for bad in [
            "",
            "something-else\nsnapshot_version=1\nwal_offset=0\nembeddings_file=x",
            "viralcast-manifest-v1\nsnapshot_version=abc\nwal_offset=0\nembeddings_file=x",
            "viralcast-manifest-v1\nwal_offset=0\nembeddings_file=x",
            "viralcast-manifest-v1\nno equals sign",
        ] {
            assert!(Manifest::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn save_checkpoint_replaces_and_garbage_collects() {
        let dir = tmp_dir("gc");
        let emb = Embeddings::from_matrices(2, 1, vec![0.1, 0.2], vec![0.3, 0.4]);
        let model = EmbeddingBackend::new(emb.clone());
        save_checkpoint(&dir, 2, 10, &model).unwrap();
        save_checkpoint(&dir, 5, 40, &model).unwrap();
        let manifest = Manifest::load(&dir).unwrap().unwrap();
        assert_eq!(manifest.snapshot_version, 5);
        assert_eq!(manifest.wal_offset, 40);
        assert_eq!(manifest.backend, "embed");
        assert!(dir.join("checkpoint-5.bin").exists());
        assert!(!dir.join("checkpoint-2.bin").exists(), "stale kept");
        let back =
            load_model_checkpoint(&dir.join(&manifest.embeddings_file), &manifest.backend).unwrap();
        assert!(emb.max_abs_diff(embeddings_of(back.as_ref())) < 1e-12);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn model_checkpoints_round_trip_any_backend() {
        use viralcast_propagation::{Cascade, CascadeSet, Infection};
        let dir = tmp_dir("netinf");
        let corpus = CascadeSet::new(
            3,
            vec![Cascade::new(vec![Infection::new(0u32, 0.0), Infection::new(1u32, 0.4)]).unwrap()],
        );
        let model = viralcast_model::NetInfBackend::fit(&corpus, Default::default());
        let manifest = save_checkpoint(&dir, 4, 7, &model).unwrap();
        assert_eq!(manifest.backend, "netinf");
        let back =
            load_model_checkpoint(&dir.join(&manifest.embeddings_file), &manifest.backend).unwrap();
        assert_eq!(back.backend_id(), "netinf");
        assert_eq!(back.node_count(), 3);
        // Loading it as the embed backend refuses the netinf payload.
        assert!(
            load_model_checkpoint(&dir.join(&manifest.embeddings_file), EmbeddingBackend::ID)
                .is_err()
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn embeddings_codec_round_trips_exactly() {
        let emb = Embeddings::from_matrices(
            3,
            2,
            vec![0.5, -1.25, 0.0, f64::MIN_POSITIVE, 1e300, 7.75],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        );
        let bytes = encode_model(&EmbeddingBackend::new(emb.clone()));
        let model = decode_checkpoint(&bytes, EmbeddingBackend::ID).unwrap();
        let back = embeddings_of(model.as_ref());
        assert_eq!(back.node_count(), 3);
        assert_eq!(back.topic_count(), 2);
        assert_eq!(back.influence_matrix(), emb.influence_matrix());
        assert_eq!(back.selectivity_matrix(), emb.selectivity_matrix());
    }

    #[test]
    fn embeddings_codec_rejects_corruption() {
        let emb = Embeddings::from_matrices(2, 1, vec![0.1, 0.2], vec![0.3, 0.4]);
        let good = encode_model(&EmbeddingBackend::new(emb));
        assert!(decode_error(b"not a checkpoint").is_some());
        // Every strict prefix fails cleanly rather than panicking.
        for cut in 0..good.len() {
            assert!(decode_error(&good[..cut]).is_some(), "cut {cut}");
        }
        // A flipped matrix bit fails the CRC.
        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(decode_error(&flipped).unwrap().contains("CRC"));
        // A shape lie with matching CRC still fails the cell count.
        let mut payload = vec![9u8, 0, 0, 0, 1, 0, 0, 0];
        payload.extend_from_slice(&[0u8; 16]);
        let mut lied = CHECKPOINT_MAGIC.to_vec();
        lied.extend_from_slice(&frame(&payload));
        assert!(decode_error(&lied).unwrap().contains("disagrees"));
    }
}
