//! Persistence for cascade corpora, and the one atomic file write.
//!
//! Corpora are stored as a small JSON header line followed by one JSON
//! cascade per line. JSON-lines keeps the files greppable and streamable,
//! and lets the harnesses regenerate expensive corpora once and reuse
//! them across figures.
//!
//! Every file the workspace replaces whole — a corpus, an embeddings
//! file, a checkpoint and its manifest — goes through [`atomic_write`].

use crate::cascade::{Cascade, CascadeSet};
use serde::{Deserialize, Serialize};
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

#[derive(Serialize, Deserialize)]
struct Header {
    format: String,
    node_count: usize,
    cascade_count: usize,
}

const FORMAT: &str = "viralcast-cascades-v1";

/// Errors from reading a cascade file.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Malformed JSON or a broken invariant.
    Format(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "I/O error: {e}"),
            StoreError::Format(m) => write!(f, "format error: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Writes a corpus to `path` in JSON-lines form, atomically.
pub fn save(set: &CascadeSet, path: &Path) -> Result<(), StoreError> {
    let mut w = Vec::new();
    let header = Header {
        format: FORMAT.to_string(),
        node_count: set.node_count(),
        cascade_count: set.len(),
    };
    serde_json::to_writer(&mut w, &header).map_err(|e| StoreError::Format(e.to_string()))?;
    w.push(b'\n');
    for c in set.cascades() {
        serde_json::to_writer(&mut w, c).map_err(|e| StoreError::Format(e.to_string()))?;
        w.push(b'\n');
    }
    atomic_write(path, &w)?;
    Ok(())
}

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// fsync, rename over the target. A crash at any point leaves either the
/// old file or the new one, never a torn mix.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = temp_sibling(path);
    {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // Persist the rename itself (the directory entry) where possible;
    // failure here (e.g. exotic filesystems) degrades durability, not
    // correctness, so it is not fatal.
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// The temp-file path `atomic_write` stages through: a dot-prefixed
/// sibling so the rename never crosses filesystems.
fn temp_sibling(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("atomic");
    path.with_file_name(format!(".{name}.tmp"))
}

/// Reads a corpus previously written by [`save`].
pub fn load(path: &Path) -> Result<CascadeSet, StoreError> {
    let mut lines = BufReader::new(File::open(path)?).lines();
    let header_line = lines
        .next()
        .ok_or_else(|| StoreError::Format("empty file".into()))??;
    let header: Header = serde_json::from_str(&header_line)
        .map_err(|e| StoreError::Format(format!("bad header: {e}")))?;
    if header.format != FORMAT {
        return Err(StoreError::Format(format!(
            "unknown format {:?}",
            header.format
        )));
    }
    // Every line is outside input: the derived `Deserialize` fills the
    // struct without `Cascade::new`'s checks, so each decoded cascade is
    // rebuilt through it. `cascade_count` is not trusted for allocation;
    // lines are numbered from 2, after the header.
    let mut cascades = Vec::new();
    for (number, line) in (2..).zip(lines) {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let decoded: Cascade = serde_json::from_str(&line)
            .map_err(|e| StoreError::Format(format!("line {number}: bad cascade: {e}")))?;
        let c = Cascade::new(decoded.infections().to_vec())
            .map_err(|e| StoreError::Format(format!("line {number}: {e}")))?;
        if c.infections()
            .iter()
            .any(|i| i.node.index() >= header.node_count)
        {
            return Err(StoreError::Format(format!(
                "line {number}: cascade references node outside the declared universe"
            )));
        }
        cascades.push(c);
    }
    if cascades.len() != header.cascade_count {
        return Err(StoreError::Format(format!(
            "header declared {} cascades, found {}",
            header.cascade_count,
            cascades.len()
        )));
    }
    Ok(CascadeSet::new(header.node_count, cascades))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cascade::Infection;

    fn sample_set() -> CascadeSet {
        let c1 = Cascade::new(vec![Infection::new(0u32, 0.0), Infection::new(1u32, 1.5)]).unwrap();
        let c2 = Cascade::new(vec![Infection::new(2u32, 0.25)]).unwrap();
        CascadeSet::new(3, vec![c1, c2])
    }

    #[test]
    fn round_trip() {
        let dir = std::env::temp_dir().join("viralcast-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.jsonl");
        let set = sample_set();
        save(&set, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.node_count(), set.node_count());
        assert_eq!(loaded.cascades(), set.cascades());
        std::fs::remove_file(&path).ok();
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "viralcast-corpus-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn atomic_write_survives_a_stale_temp_file() {
        let dir = tmp_dir("stale");
        let target = dir.join("file.txt");
        // A previous crash left a partial temp behind.
        fs::write(temp_sibling(&target), b"partial garbage").unwrap();
        atomic_write(&target, b"good").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"good");
        assert!(!temp_sibling(&target).exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_replaces_an_existing_corpus_through_a_temp_file() {
        let dir = tmp_dir("replace");
        let path = dir.join("corpus.jsonl");
        fs::write(&path, "an older, longer corpus file ".repeat(64)).unwrap();
        save(&sample_set(), &path).unwrap();
        assert_eq!(load(&path).unwrap().cascades(), sample_set().cascades());
        assert!(!temp_sibling(&path).exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load(Path::new("/nonexistent/viralcast.jsonl")).unwrap_err();
        assert!(matches!(err, StoreError::Io(_)));
    }

    #[test]
    fn garbage_header_is_format_error() {
        let dir = std::env::temp_dir().join("viralcast-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.jsonl");
        std::fs::write(&path, "not json\n").unwrap();
        let err = load(&path).unwrap_err();
        assert!(matches!(err, StoreError::Format(_)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn count_mismatch_detected() {
        let dir = std::env::temp_dir().join("viralcast-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mismatch.jsonl");
        let set = sample_set();
        save(&set, &path).unwrap();
        // Append a forged extra cascade.
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        writeln!(f, "{}", serde_json::to_string(&set.cascades()[1]).unwrap()).unwrap();
        let err = load(&path).unwrap_err();
        assert!(matches!(err, StoreError::Format(_)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_detected() {
        // Simulate a crash mid-write: drop the last line.
        let dir = std::env::temp_dir().join("viralcast-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("truncated.jsonl");
        save(&sample_set(), &path).unwrap();
        let full = std::fs::read_to_string(&path).unwrap();
        let keep: Vec<&str> = full.lines().collect();
        std::fs::write(&path, keep[..keep.len() - 1].join("\n")).unwrap();
        let err = load(&path).unwrap_err();
        assert!(matches!(err, StoreError::Format(_)), "got {err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_cascade_line_detected() {
        let dir = std::env::temp_dir().join("viralcast-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.jsonl");
        save(&sample_set(), &path).unwrap();
        let mut text = std::fs::read_to_string(&path).unwrap();
        text = text.replace("\"node\"", "\"nod\"");
        std::fs::write(&path, text).unwrap();
        let err = load(&path).unwrap_err();
        assert!(matches!(err, StoreError::Format(_)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_universe_node_detected() {
        let dir = std::env::temp_dir().join("viralcast-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("oob.jsonl");
        // Handcraft a file whose header claims 1 node but cascade uses 5.
        let c = Cascade::new(vec![Infection::new(5u32, 0.0)]).unwrap();
        let contents = format!(
            "{}\n{}\n",
            serde_json::to_string(&Header {
                format: FORMAT.into(),
                node_count: 1,
                cascade_count: 1
            })
            .unwrap(),
            serde_json::to_string(&c).unwrap()
        );
        std::fs::write(&path, contents).unwrap();
        let err = load(&path).unwrap_err();
        assert!(matches!(err, StoreError::Format(_)));
        std::fs::remove_file(&path).ok();
    }
}
