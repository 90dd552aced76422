//! The process's own memory, as the kernel reports it.
//!
//! A serving daemon retrains on every drained batch, forever, so its
//! resident set is a health signal of its own: memory that creeps up
//! from one retrain to the next shows here first. [`memory`] reads
//! `VmRSS` and `VmHWM` from `/proc/self/status`; [`record_memory`] sets
//! them as the `process.resident_bytes` and `process.peak_resident_bytes`
//! gauges, which `/metrics` calls at scrape time.

/// Resident set sizes of this process, in bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProcessMemory {
    /// Resident now (`VmRSS`).
    pub resident_bytes: u64,
    /// The most ever resident (`VmHWM`).
    pub peak_resident_bytes: u64,
}

/// This process's resident set sizes, or `None` where
/// `/proc/self/status` is missing or lacks either line.
pub fn memory() -> Option<ProcessMemory> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = |key: &str| {
        status
            .lines()
            .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
            .and_then(|rest| rest.split_whitespace().next()?.parse::<u64>().ok())
            .map(|kib| kib * 1024)
    };
    Some(ProcessMemory {
        resident_bytes: kib("VmRSS")?,
        peak_resident_bytes: kib("VmHWM")?,
    })
}

/// Sets the `process.resident_bytes` and `process.peak_resident_bytes`
/// gauges from [`memory`]; sets nothing where it is `None`.
pub fn record_memory() {
    if let Some(memory) = memory() {
        let registry = crate::metrics();
        registry
            .gauge("process.resident_bytes")
            .set(memory.resident_bytes as f64);
        registry
            .gauge("process.peak_resident_bytes")
            .set(memory.peak_resident_bytes as f64);
    }
}
