//! Injectable I/O failpoints for the durability layer.
//!
//! Recovery code that is only exercised by real crashes is recovery code
//! that is hoped-for, not tested. A [`FaultPlan`] arms deterministic
//! faults on the WAL's I/O paths — short writes, torn (CRC-corrupt)
//! records, fsync failures, rotation failures, and checkpoint failures —
//! each firing at the Nth operation of its class. Every injected fault
//! surfaces as a typed [`std::io::Error`] whose message starts with
//! `injected fault:`; nothing in this crate panics on one.
//!
//! Plans are armed through [`crate::wal::Wal::arm_faults`] or
//! [`crate::EventStore::arm_faults`], which return a [`FaultHandle`] the
//! test keeps to ask how many faults actually fired. Each armed fault is
//! one-shot: after it fires, the same operation succeeds again, so tests
//! can drive the store through fault → recovery → resumed service.

use std::io;
use std::sync::{Arc, Mutex};

/// The fault classes a plan can arm. `ShortWrite` and `TornRecord`
/// count *append* operations; the others count their own class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The targeted append writes only a strict prefix of its frame and
    /// then fails — the crash signature torn-tail recovery truncates.
    ShortWrite,
    /// The targeted append writes the full frame with its trailing CRC
    /// bytes corrupted and then fails — bit-rot / interrupted-overwrite
    /// damage that replay must detect by checksum.
    TornRecord,
    /// The targeted fsync fails without syncing; appended bytes stay in
    /// the page cache and the log stays dirty.
    FsyncFail,
    /// The targeted segment rotation fails before the new segment file
    /// is created.
    RotateFail,
    /// The targeted [`crate::EventStore::checkpoint`] fails before
    /// writing anything.
    CheckpointFail,
}

impl FaultKind {
    fn counter(self) -> OpClass {
        match self {
            FaultKind::ShortWrite | FaultKind::TornRecord => OpClass::Append,
            FaultKind::FsyncFail => OpClass::Fsync,
            FaultKind::RotateFail => OpClass::Rotate,
            FaultKind::CheckpointFail => OpClass::Checkpoint,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OpClass {
    Append,
    Fsync,
    Rotate,
    Checkpoint,
}

#[derive(Debug)]
struct Armed {
    kind: FaultKind,
    /// 1-based ordinal of the operation (within its class, counted from
    /// when the plan was armed) this fault fires at.
    at: u64,
    fired: bool,
}

/// A deterministic schedule of I/O faults. Build one with
/// [`FaultPlan::new`] + [`FaultPlan::fail`], then arm it on a
/// [`crate::wal::Wal`] or [`crate::EventStore`].
#[derive(Debug, Default)]
pub struct FaultPlan {
    arms: Vec<Armed>,
    appends: u64,
    fsyncs: u64,
    rotations: u64,
    checkpoints: u64,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Arms `kind` to fire at the `nth` (1-based) operation of its
    /// class. Arming the same class twice is fine; each arm is one-shot.
    pub fn fail(mut self, kind: FaultKind, nth: u64) -> FaultPlan {
        assert!(nth >= 1, "fault ordinals are 1-based");
        self.arms.push(Armed {
            kind,
            at: nth,
            fired: false,
        });
        self
    }

    /// How many armed faults have fired so far.
    pub fn fired(&self) -> usize {
        self.arms.iter().filter(|a| a.fired).count()
    }

    fn trip(&mut self, class: OpClass) -> Option<FaultKind> {
        let count = match class {
            OpClass::Append => {
                self.appends += 1;
                self.appends
            }
            OpClass::Fsync => {
                self.fsyncs += 1;
                self.fsyncs
            }
            OpClass::Rotate => {
                self.rotations += 1;
                self.rotations
            }
            OpClass::Checkpoint => {
                self.checkpoints += 1;
                self.checkpoints
            }
        };
        let arm = self
            .arms
            .iter_mut()
            .find(|a| !a.fired && a.kind.counter() == class && a.at == count)?;
        arm.fired = true;
        Some(arm.kind)
    }
}

/// A shared handle to an armed plan; the arming call returns it so tests
/// can keep querying [`FaultPlan::fired`] while the store owns the plan.
#[derive(Clone, Debug, Default)]
pub struct FaultHandle(Arc<Mutex<FaultPlan>>);

impl FaultHandle {
    pub(crate) fn arm(plan: FaultPlan) -> FaultHandle {
        FaultHandle(Arc::new(Mutex::new(plan)))
    }

    /// How many armed faults have fired so far.
    pub fn fired(&self) -> usize {
        self.lock().fired()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultPlan> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn on_append(&self) -> Option<FaultKind> {
        self.lock().trip(OpClass::Append)
    }

    pub(crate) fn on_fsync(&self) -> bool {
        self.lock().trip(OpClass::Fsync).is_some()
    }

    pub(crate) fn on_rotate(&self) -> bool {
        self.lock().trip(OpClass::Rotate).is_some()
    }

    pub(crate) fn on_checkpoint(&self) -> bool {
        self.lock().trip(OpClass::Checkpoint).is_some()
    }
}

/// Prefix every injected error carries, so tests (and operators reading
/// logs from a chaos run) can tell injected faults from real ones.
pub const INJECTED_PREFIX: &str = "injected fault";

/// Builds the typed error an injected fault surfaces as.
pub(crate) fn injected(what: &str) -> io::Error {
    io::Error::other(format!("{INJECTED_PREFIX}: {what}"))
}

/// Whether `err` (or its message) came from an injected fault.
pub fn is_injected(err: &io::Error) -> bool {
    err.to_string().contains(INJECTED_PREFIX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_fire_at_their_ordinal_once() {
        let handle = FaultHandle::arm(
            FaultPlan::new()
                .fail(FaultKind::ShortWrite, 2)
                .fail(FaultKind::FsyncFail, 1),
        );
        assert_eq!(handle.on_append(), None); // append #1
        assert_eq!(handle.on_append(), Some(FaultKind::ShortWrite)); // #2
        assert_eq!(handle.on_append(), None); // one-shot
        assert!(handle.on_fsync()); // fsync #1
        assert!(!handle.on_fsync());
        assert_eq!(handle.fired(), 2);
        assert!(handle.lock().arms.iter().all(|a| a.fired));
    }

    #[test]
    fn classes_count_independently() {
        let handle = FaultHandle::arm(
            FaultPlan::new()
                .fail(FaultKind::TornRecord, 1)
                .fail(FaultKind::RotateFail, 1)
                .fail(FaultKind::CheckpointFail, 1),
        );
        assert!(handle.on_rotate());
        assert_eq!(handle.on_append(), Some(FaultKind::TornRecord));
        assert!(handle.on_checkpoint());
        assert_eq!(handle.fired(), 3);
    }

    #[test]
    fn injected_errors_are_recognizable() {
        let err = injected("short write");
        assert!(is_injected(&err));
        assert!(err.to_string().contains("short write"));
        assert!(!is_injected(&io::Error::other("disk on fire")));
    }
}
