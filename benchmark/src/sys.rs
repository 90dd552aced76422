//! Process-level measurements and the report's `env` block.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use viralcast::obs::JsonValue;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID` from `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn cpu_clock_ns(clock_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, matching the C layout via `repr(C)`), and
    // `clock_gettime` writes nothing else. libc is already linked by std.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time (user + system, every thread but the [`keep_awake`]
/// spinners) this process has consumed, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let spun: u64 = SPUN_NS.iter().map(|ns| ns.load(Ordering::Relaxed)).sum();
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID).saturating_sub(spun)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("viralbench reads CLOCK_PROCESS_CPUTIME_ID and /proc; it needs 64-bit Linux");

/// The value of `key:` in `/proc/self/status`, in KiB.
fn status_kib(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM").map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// Cores the scheduler will give this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name") || l.starts_with("Model"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Whether the linked `rayon` is the published crate or the vendored
/// stand-in: the published `ThreadPool` lives in `rayon_core`.
fn rayon_flavour() -> &'static str {
    if std::any::type_name::<rayon::ThreadPool>().starts_with("rayon_core") {
        "real"
    } else {
        "stand-in"
    }
}

/// Threads every pool in a run is sized to (`nproc` of the reference box).
pub const THREADS: usize = 2;

/// `struct sched_param` and `SCHED_IDLE` from `<sched.h>`.
#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}
const SCHED_IDLE: i32 = 5;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// CPU time each spinner has consumed, published by the spinner itself.
static SPUN_NS: [AtomicU64; THREADS] = [AtomicU64::new(0), AtomicU64::new(0)];
static AWAKE: AtomicBool = AtomicBool::new(false);

/// Starts one `SCHED_IDLE` spinner per core, for the life of the process.
///
/// The reference box is a guest: a core with nothing to run halts, the
/// host takes it away, and the next timer or cross-core wake-up waits
/// until the host gives it back — a wait that depends on the host's
/// other tenants, from microseconds to milliseconds. A daemon that sleeps
/// 10 ms between accepts and hands each request from thread to thread
/// pays it several times per request, so the mostly idle workloads
/// (`cluster_read`, `ingest_mixed`) measured the neighbours. A spinner
/// under `SCHED_IDLE` runs only while nothing else wants its core and is
/// preempted the moment anything does; the cores never halt and a
/// wake-up costs the same from run to run. The spinners' own CPU time is
/// taken out of [`process_cpu_ns`]. Returns false (and spins nothing)
/// where the kernel refuses the policy.
pub fn keep_awake() -> bool {
    let (sender, receiver) = std::sync::mpsc::channel();
    for slot in &SPUN_NS {
        let sender = sender.clone();
        std::thread::spawn(move || {
            let param = SchedParam { sched_priority: 0 };
            // SAFETY: `param` is a valid `struct sched_param`; pid 0 is
            // the calling thread.
            let idle = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } == 0;
            let _ = sender.send(idle);
            while idle {
                for _ in 0..256 {
                    std::hint::spin_loop();
                }
                slot.store(cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID), Ordering::Relaxed);
            }
        });
    }
    let awake = (0..THREADS).all(|_| receiver.recv() == Ok(true));
    AWAKE.store(awake, Ordering::Relaxed);
    awake
}

/// The machine and build a report was produced on.
pub fn env_block() -> JsonValue {
    JsonValue::obj(vec![
        ("nproc", JsonValue::from(nproc())),
        ("cpu_model", JsonValue::from(cpu_model())),
        ("rustc", JsonValue::from(env!("VIRALBENCH_RUSTC"))),
        ("commit", JsonValue::from(env!("VIRALBENCH_COMMIT"))),
        ("profile", JsonValue::from("release")),
        ("rayon", JsonValue::from(rayon_flavour())),
        ("pool_threads", JsonValue::from(THREADS)),
        ("idle_spinners", JsonValue::from(AWAKE.load(Ordering::Relaxed))),
        ("fsync_policy", JsonValue::from("always")),
        ("os", JsonValue::from(std::env::consts::OS)),
        ("arch", JsonValue::from(std::env::consts::ARCH)),
    ])
}

/// Refuses to measure an unoptimised build.
pub fn require_release_build() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err(
            "viralbench measures optimised code only: build with `cargo build --release` \
                    (debug assertions are on in this binary)"
                .into(),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns() > before);
    }

    #[test]
    fn spinner_cpu_is_left_out_of_the_process_clock() {
        if !keep_awake() {
            return;
        }
        let raw = || cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID);
        let (raw_before, net_before) = (raw(), process_cpu_ns());
        // The spinners run whenever a core is free; give them a moment.
        let spun = || SPUN_NS.iter().map(|ns| ns.load(Ordering::Relaxed)).sum::<u64>();
        let spun_before = spun();
        for _ in 0..200 {
            std::thread::sleep(std::time::Duration::from_millis(10));
            if spun() > spun_before {
                break;
            }
        }
        assert!(spun() > spun_before, "the spinners never ran");
        let (raw_after, net_after) = (raw(), process_cpu_ns());
        // Signed: a spinner's published time lags its clock by microseconds.
        assert!((net_after as i64 - net_before as i64) < (raw_after - raw_before) as i64);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 0.0);
    }
}
