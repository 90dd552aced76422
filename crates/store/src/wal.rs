//! The append-only write-ahead log: segment files, rotation, fsync
//! policy, torn-tail recovery, and prefix compaction.
//!
//! A log is a directory of segment files named `wal-<start>.log`, where
//! `<start>` is the zero-padded global index of the segment's first
//! record. Each segment begins with an 8-byte magic tag and then holds
//! consecutive [`crate::codec`] frames; record indices are implicit
//! (segment start + ordinal), so the files contain no redundant
//! sequence numbers to keep consistent.
//!
//! Durability is governed by [`FsyncPolicy`]: writes always reach the
//! file via `write_all`, and [`Wal::commit`] decides when `fsync`
//! actually runs. `Always` syncs at every commit point (the ingest path
//! commits once per acked batch), `Interval` bounds the data-loss window
//! by time, and `OnRotate` only syncs when a segment closes — the
//! throughput end of the trade-off.
//!
//! Recovery ([`Wal::open`]) replays every intact record. A torn or
//! corrupt frame in the **final** segment is a crash signature: the file
//! is truncated back to the last intact record boundary and appending
//! resumes there. The same damage in a non-final segment means records
//! known to be followed by later writes are unreadable — that is data
//! loss the log cannot silently repair, so `open` refuses with an error
//! instead of dropping acked records on the floor.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use viralcast_obs as obs;
use viralcast_propagation::Cascade;

use crate::codec::{self, FrameRead};
use crate::fault::{self, FaultHandle, FaultKind, FaultPlan};

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"VCWALSG1";

/// When appended records are fsynced to disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync at every commit point (each acked ingest batch). Slowest,
    /// loses nothing that was acked.
    Always,
    /// Sync when this much time has passed since the last sync. Bounds
    /// the loss window by time instead of by batch.
    Interval(Duration),
    /// Sync only when a segment rotates (and on explicit [`Wal::sync`]).
    /// Fastest; a crash can lose up to a segment of acked records.
    OnRotate,
}

impl FsyncPolicy {
    /// Parses `always`, `rotate`, `interval`, or `interval:<millis>`.
    pub fn parse(raw: &str) -> Result<FsyncPolicy, String> {
        match raw {
            "always" => Ok(FsyncPolicy::Always),
            "rotate" => Ok(FsyncPolicy::OnRotate),
            "interval" => Ok(FsyncPolicy::Interval(Duration::from_millis(200))),
            other => match other.strip_prefix("interval:") {
                Some(ms) => ms
                    .parse::<u64>()
                    .map(|ms| FsyncPolicy::Interval(Duration::from_millis(ms)))
                    .map_err(|_| format!("malformed fsync interval {ms:?} (expected millis)")),
                None => Err(format!(
                    "unknown fsync policy {other:?} (expected always|interval[:MS]|rotate)"
                )),
            },
        }
    }
}

/// Tunables for a log.
#[derive(Clone, Copy, Debug)]
pub struct WalOptions {
    /// Rotate to a new segment once the current one exceeds this size.
    pub segment_bytes: u64,
    /// When appends are fsynced.
    pub fsync: FsyncPolicy,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            segment_bytes: 8 << 20,
            fsync: FsyncPolicy::Always,
        }
    }
}

/// A replayed record: its global index and the decoded cascade.
#[derive(Clone, Debug, PartialEq)]
pub struct SequencedCascade {
    /// Global record index (position in the log since its creation).
    pub index: u64,
    /// The recovered cascade.
    pub cascade: Cascade,
}

/// What [`Wal::open`] found on disk.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    /// Every intact record, in index order.
    pub records: Vec<SequencedCascade>,
    /// Bytes cut from a torn final segment.
    pub truncated_bytes: u64,
    /// Segment files present after recovery.
    pub segments: usize,
}

/// The append-only log over one directory.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    options: WalOptions,
    file: File,
    /// Global index of the current segment's first record.
    segment_start: u64,
    /// Bytes written to the current segment (including the magic).
    segment_len: u64,
    /// Index the next appended record will get.
    next_index: u64,
    /// Appends not yet fsynced.
    dirty: bool,
    last_sync: Instant,
    /// Armed failpoints ([`crate::fault`]); `None` outside tests/chaos.
    faults: Option<FaultHandle>,
}

/// Where a batch started, so a mid-batch failure can be unwound. Taken
/// with [`Wal::mark`] before the first append of the batch.
#[derive(Clone, Copy, Debug)]
pub struct BatchMark {
    segment_start: u64,
    segment_len: u64,
    next_index: u64,
}

fn segment_path(dir: &Path, start: u64) -> PathBuf {
    dir.join(format!("wal-{start:020}.log"))
}

/// Parses the start index out of a `wal-<start>.log` file name.
fn segment_start_of(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// All segment files under `dir`, sorted by start index.
fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if let Some(start) = segment_start_of(&path) {
            segments.push((start, path));
        }
    }
    segments.sort_by_key(|&(start, _)| start);
    Ok(segments)
}

fn corrupt(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

impl Wal {
    /// Opens (or creates) the log in `dir`, replaying every intact
    /// record and truncating a torn final segment. When the directory
    /// holds no segments, the first record gets index `base_index`
    /// (non-zero after a checkpoint compacted the whole log away).
    pub fn open(dir: &Path, options: WalOptions, base_index: u64) -> io::Result<(Wal, Replay)> {
        fs::create_dir_all(dir)?;
        let segments = list_segments(dir)?;
        let mut replay = Replay::default();
        let mut next_index = base_index;

        for (pos, &(start, ref path)) in segments.iter().enumerate() {
            let is_last = pos + 1 == segments.len();
            if pos > 0 && start != next_index {
                return Err(corrupt(format!(
                    "segment {} starts at record {start} but the previous segment \
                     ends at {next_index}: a segment is missing or misnamed",
                    path.display()
                )));
            }
            next_index = start;
            let read = replay_segment(path, start, is_last, &mut replay)?;
            next_index += read;
        }

        // Resume appending in the last segment, or start a fresh one.
        let (segment_start, path) = match segments.last() {
            Some(&(start, ref path)) => (start, path.clone()),
            None => (next_index, segment_path(dir, next_index)),
        };
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)?;
        let mut segment_len = file.metadata()?.len();
        if segment_len < SEGMENT_MAGIC.len() as u64 {
            // Brand new (or a crash cut the magic itself before any
            // record): start the segment over.
            file.set_len(0)?;
            file.write_all(SEGMENT_MAGIC)?;
            file.sync_data()?;
            segment_len = SEGMENT_MAGIC.len() as u64;
        }
        replay.segments = segments.len().max(1);

        obs::metrics()
            .counter("store.wal.replayed_records")
            .incr(replay.records.len() as u64);
        obs::metrics()
            .counter("store.wal.truncated_bytes")
            .incr(replay.truncated_bytes);
        obs::metrics()
            .gauge("store.wal.segments")
            .set(replay.segments as f64);

        Ok((
            Wal {
                dir: dir.to_path_buf(),
                options,
                file,
                segment_start,
                segment_len,
                next_index,
                dirty: false,
                last_sync: Instant::now(),
                faults: None,
            },
            replay,
        ))
    }

    /// Index the next appended record will get.
    pub fn next_index(&self) -> u64 {
        self.next_index
    }

    /// Arms an injectable [`FaultPlan`] on this log's I/O paths,
    /// returning the shared handle the caller queries for fired counts.
    /// Arming replaces any earlier plan.
    pub fn arm_faults(&mut self, plan: FaultPlan) -> FaultHandle {
        let handle = FaultHandle::arm(plan);
        self.faults = Some(handle.clone());
        handle
    }

    /// Fires an armed checkpoint fault, if any — called by
    /// [`crate::EventStore::checkpoint`], which owns no plan itself.
    pub(crate) fn fault_on_checkpoint(&self) -> bool {
        self.faults.as_ref().is_some_and(FaultHandle::on_checkpoint)
    }

    /// Appends one cascade, returning its record index. The bytes reach
    /// the file before this returns; whether they reach the *disk* is
    /// [`Wal::commit`]'s job.
    pub fn append(&mut self, cascade: &Cascade) -> io::Result<u64> {
        let mut framed = codec::frame(&codec::encode_cascade(cascade));
        if self.segment_len + framed.len() as u64 > self.options.segment_bytes
            && self.next_index > self.segment_start
        {
            self.rotate()?;
        }
        match self.faults.as_ref().and_then(FaultHandle::on_append) {
            Some(FaultKind::ShortWrite) => {
                // Write a strict prefix of the frame — the torn-tail
                // crash signature — then fail the append.
                let cut = framed.len() / 2;
                self.file.write_all(&framed[..cut])?;
                self.segment_len += cut as u64;
                self.dirty = true;
                return Err(fault::injected("short write"));
            }
            Some(FaultKind::TornRecord) => {
                // Write the full frame with its CRC trailer corrupted.
                let last = framed.len() - 1;
                framed[last] ^= 0xFF;
                self.file.write_all(&framed)?;
                self.segment_len += framed.len() as u64;
                self.dirty = true;
                return Err(fault::injected("torn record (CRC mismatch)"));
            }
            _ => {}
        }
        self.file.write_all(&framed)?;
        self.segment_len += framed.len() as u64;
        self.dirty = true;
        let index = self.next_index;
        self.next_index += 1;
        obs::metrics().counter("store.wal.appends").incr(1);
        Ok(index)
    }

    /// A commit point (one acked ingest batch): applies the fsync
    /// policy to everything appended so far.
    pub fn commit(&mut self) -> io::Result<()> {
        match self.options.fsync {
            FsyncPolicy::Always => self.sync(),
            FsyncPolicy::Interval(window) => {
                if self.last_sync.elapsed() >= window {
                    self.sync()
                } else {
                    Ok(())
                }
            }
            FsyncPolicy::OnRotate => Ok(()),
        }
    }

    /// Forces an fsync of the current segment.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.dirty {
            if self.faults.as_ref().is_some_and(FaultHandle::on_fsync) {
                // The log stays dirty: a later sync retries for real.
                return Err(fault::injected("fsync failure"));
            }
            self.file.sync_data()?;
            self.dirty = false;
            obs::metrics().counter("store.wal.fsyncs").incr(1);
        }
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Closes the current segment (synced regardless of policy) and
    /// starts the next one.
    fn rotate(&mut self) -> io::Result<()> {
        if self.faults.as_ref().is_some_and(FaultHandle::on_rotate) {
            // Fails before the old segment is closed or the new file
            // exists, so the log keeps appending to the current segment
            // once the caller retries.
            return Err(fault::injected("rotate failure"));
        }
        self.sync()?;
        let path = segment_path(&self.dir, self.next_index);
        let mut file = OpenOptions::new()
            .create_new(true)
            .read(true)
            .append(true)
            .open(&path)?;
        file.write_all(SEGMENT_MAGIC)?;
        file.sync_data()?;
        self.file = file;
        self.segment_start = self.next_index;
        self.segment_len = SEGMENT_MAGIC.len() as u64;
        obs::metrics().counter("store.wal.rotations").incr(1);
        self.update_segment_gauge()?;
        Ok(())
    }

    /// Removes every segment whose records all fall below `upto` (the
    /// first index **not** covered by the last checkpoint). The active
    /// segment is never removed. Returns how many files were deleted.
    pub fn compact(&mut self, upto: u64) -> io::Result<usize> {
        let segments = list_segments(&self.dir)?;
        let mut removed = 0usize;
        for window in segments.windows(2) {
            let (start, ref path) = window[0];
            let (next_start, _) = window[1];
            if start < self.segment_start && next_start <= upto {
                fs::remove_file(path)?;
                removed += 1;
            }
        }
        if removed > 0 {
            obs::metrics()
                .counter("store.wal.compacted_segments")
                .incr(removed as u64);
            self.update_segment_gauge()?;
        }
        Ok(removed)
    }

    /// Where the log stands right now — take one before the first
    /// append of a batch so a mid-batch failure can be unwound with
    /// [`Wal::rollback_to`].
    pub fn mark(&self) -> BatchMark {
        BatchMark {
            segment_start: self.segment_start,
            segment_len: self.segment_len,
            next_index: self.next_index,
        }
    }

    /// Unwinds every byte appended since `mark` — the partially written
    /// batch a client was never acked for must not be resurrected by a
    /// later replay. Segments created after the mark are deleted, the
    /// marked segment is truncated back to its marked length, and the
    /// truncation is fsynced before returning. Returns the bytes
    /// removed from the marked segment.
    pub fn rollback_to(&mut self, mark: &BatchMark) -> io::Result<u64> {
        if mark.segment_start != self.segment_start {
            // The batch crossed one or more rotations: drop the newer
            // segments wholesale and resume the marked one.
            for (start, path) in list_segments(&self.dir)? {
                if start > mark.segment_start {
                    fs::remove_file(&path)?;
                }
            }
            let path = segment_path(&self.dir, mark.segment_start);
            self.file = OpenOptions::new().read(true).append(true).open(&path)?;
            self.segment_start = mark.segment_start;
            self.segment_len = self.file.metadata()?.len();
            self.update_segment_gauge()?;
        }
        let removed = self.segment_len.saturating_sub(mark.segment_len);
        self.file.set_len(mark.segment_len)?;
        // Syncs the truncation (and, as a side effect, every surviving
        // record in the file) directly — the armed fsync failpoint is
        // deliberately bypassed so a rollback cannot be re-injected.
        self.file.sync_data()?;
        self.segment_len = mark.segment_len;
        self.next_index = mark.next_index;
        self.dirty = false;
        self.last_sync = Instant::now();
        obs::metrics()
            .counter("store.wal.rollback_bytes")
            .incr(removed);
        Ok(removed)
    }

    fn update_segment_gauge(&self) -> io::Result<()> {
        let count = list_segments(&self.dir)?.len();
        obs::metrics().gauge("store.wal.segments").set(count as f64);
        Ok(())
    }

    /// Drops the log without flushing anything buffered in the OS —
    /// test/demo hook for simulating a crash at the process boundary.
    /// (Appends go straight to the file, so this mainly skips the final
    /// policy-driven fsync.)
    pub fn abandon(self) {
        std::mem::forget(self.file);
    }
}

/// Replays one segment into `replay`; returns how many records it held.
/// Torn or corrupt tails are truncated in the final segment and are
/// errors anywhere else.
fn replay_segment(path: &Path, start: u64, is_last: bool, replay: &mut Replay) -> io::Result<u64> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;

    // A segment cut before (or inside) its magic holds no records; the
    // torn bytes are trimmed like any other torn tail.
    if bytes.len() < SEGMENT_MAGIC.len() || &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        if bytes.len() >= SEGMENT_MAGIC.len() {
            return Err(corrupt(format!(
                "{} does not start with the WAL segment magic — not a viralcast log",
                path.display()
            )));
        }
        if !is_last {
            return Err(corrupt(format!(
                "non-final segment {} is cut inside its header",
                path.display()
            )));
        }
        replay.truncated_bytes += bytes.len() as u64;
        truncate_to(path, 0)?;
        return Ok(0);
    }

    let mut pos = SEGMENT_MAGIC.len();
    let mut count = 0u64;
    loop {
        match codec::read_frame(&bytes, pos) {
            FrameRead::End => break,
            FrameRead::Complete { payload, consumed } => match codec::decode_cascade(payload) {
                Ok(cascade) => {
                    replay.records.push(SequencedCascade {
                        index: start + count,
                        cascade,
                    });
                    pos += consumed;
                    count += 1;
                }
                // A frame whose CRC matched but whose payload is not a
                // cascade was never written by this codec: corruption.
                Err(e) => {
                    return truncate_tail(
                        path,
                        pos,
                        bytes.len(),
                        is_last,
                        replay,
                        format!("undecodable record: {e}"),
                    )
                    .map(|()| count)
                }
            },
            FrameRead::Torn => {
                return truncate_tail(
                    path,
                    pos,
                    bytes.len(),
                    is_last,
                    replay,
                    "torn record".into(),
                )
                .map(|()| count)
            }
            FrameRead::Corrupt => {
                return truncate_tail(
                    path,
                    pos,
                    bytes.len(),
                    is_last,
                    replay,
                    "CRC mismatch".into(),
                )
                .map(|()| count)
            }
        }
    }
    Ok(count)
}

/// Handles a damaged tail at byte `pos`: truncate in the final segment,
/// refuse anywhere else.
fn truncate_tail(
    path: &Path,
    pos: usize,
    len: usize,
    is_last: bool,
    replay: &mut Replay,
    why: String,
) -> io::Result<()> {
    if !is_last {
        return Err(corrupt(format!(
            "{} at byte {pos} of non-final segment {}: later records exist, \
             refusing to silently drop them",
            why,
            path.display()
        )));
    }
    let cut = (len - pos) as u64;
    obs::warn(
        "store.wal",
        &format!(
            "{} at byte {pos} of {}: truncating {cut} torn byte(s)",
            why,
            path.display()
        ),
        &[],
    );
    replay.truncated_bytes += cut;
    truncate_to(path, pos as u64)
}

fn truncate_to(path: &Path, len: u64) -> io::Result<()> {
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(len)?;
    file.sync_data()
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
            "viralcast-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_then_reopen_replays_in_order() {
        let dir = tmp_dir("roundtrip");
        {
            let (mut wal, replay) = Wal::open(&dir, WalOptions::default(), 0).unwrap();
            assert!(replay.records.is_empty());
            for i in 0..5u32 {
                assert_eq!(wal.append(&cascade(i * 10)).unwrap(), i as u64);
            }
            wal.commit().unwrap();
        }
        let (wal, replay) = Wal::open(&dir, WalOptions::default(), 0).unwrap();
        assert_eq!(replay.records.len(), 5);
        assert_eq!(replay.truncated_bytes, 0);
        for (i, rec) in replay.records.iter().enumerate() {
            assert_eq!(rec.index, i as u64);
            assert_eq!(rec.cascade.seed().node.0, i as u32 * 10);
        }
        assert_eq!(wal.next_index(), 5);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_splits_segments_and_replay_spans_them() {
        let dir = tmp_dir("rotate");
        let options = WalOptions {
            segment_bytes: 64, // tiny: a record is 8 + 4 + 24 = 36 bytes
            fsync: FsyncPolicy::OnRotate,
        };
        {
            let (mut wal, _) = Wal::open(&dir, options, 0).unwrap();
            for i in 0..6u32 {
                wal.append(&cascade(i)).unwrap();
            }
            wal.sync().unwrap();
        }
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() >= 3, "expected rotations, got {segments:?}");
        let (_, replay) = Wal::open(&dir, options, 0).unwrap();
        assert_eq!(replay.records.len(), 6);
        assert_eq!(replay.records[5].index, 5);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_appending_resumes() {
        let dir = tmp_dir("torn");
        {
            let (mut wal, _) = Wal::open(&dir, WalOptions::default(), 0).unwrap();
            for i in 0..3u32 {
                wal.append(&cascade(i)).unwrap();
            }
            wal.commit().unwrap();
        }
        // Tear the last record by cutting 5 bytes off the segment.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let len = fs::metadata(&path).unwrap().len();
        truncate_to(&path, len - 5).unwrap();

        let (mut wal, replay) = Wal::open(&dir, WalOptions::default(), 0).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert!(replay.truncated_bytes > 0);
        // The log is whole again: index 2 is reassigned to the next append.
        assert_eq!(wal.append(&cascade(99)).unwrap(), 2);
        wal.commit().unwrap();
        let (_, replay) = Wal::open(&dir, WalOptions::default(), 0).unwrap();
        assert_eq!(replay.records.len(), 3);
        assert_eq!(replay.records[2].cascade.seed().node.0, 99);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_in_a_non_final_segment_is_refused() {
        let dir = tmp_dir("midcorrupt");
        let options = WalOptions {
            segment_bytes: 64,
            fsync: FsyncPolicy::OnRotate,
        };
        {
            let (mut wal, _) = Wal::open(&dir, options, 0).unwrap();
            for i in 0..6u32 {
                wal.append(&cascade(i)).unwrap();
            }
            wal.sync().unwrap();
        }
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() >= 2);
        // Flip a payload byte in the first segment.
        let (_, first) = &segments[0];
        let mut bytes = fs::read(first).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(first, &bytes).unwrap();
        let err = Wal::open(&dir, options, 0).unwrap_err();
        assert!(err.to_string().contains("non-final"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_removes_covered_segments_only() {
        let dir = tmp_dir("compact");
        let options = WalOptions {
            segment_bytes: 64,
            fsync: FsyncPolicy::OnRotate,
        };
        let (mut wal, _) = Wal::open(&dir, options, 0).unwrap();
        for i in 0..9u32 {
            wal.append(&cascade(i)).unwrap();
        }
        wal.sync().unwrap();
        let before = list_segments(&dir).unwrap().len();
        assert!(before >= 3);
        // Nothing below offset 0 → nothing removed.
        assert_eq!(wal.compact(0).unwrap(), 0);
        // Everything is covered → all but the active segment removed.
        let removed = wal.compact(wal.next_index()).unwrap();
        assert_eq!(removed, before - 1);
        // Replay still yields the active segment's records, contiguous.
        drop(wal);
        let (_, replay) = Wal::open(&dir, options, 0).unwrap();
        assert!(!replay.records.is_empty());
        assert_eq!(replay.records.last().unwrap().index, 8);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_directory_starts_at_the_base_index() {
        let dir = tmp_dir("base");
        let (mut wal, replay) = Wal::open(&dir, WalOptions::default(), 42).unwrap();
        assert!(replay.records.is_empty());
        assert_eq!(wal.next_index(), 42);
        assert_eq!(wal.append(&cascade(0)).unwrap(), 42);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("always"), Ok(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("rotate"), Ok(FsyncPolicy::OnRotate));
        assert_eq!(
            FsyncPolicy::parse("interval:50"),
            Ok(FsyncPolicy::Interval(Duration::from_millis(50)))
        );
        assert!(FsyncPolicy::parse("sometimes").is_err());
        assert!(FsyncPolicy::parse("interval:x").is_err());
    }
}
