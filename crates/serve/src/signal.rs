//! Ctrl-c / SIGTERM without a signal-handling crate.
//!
//! The handler does the only async-signal-safe thing possible — it sets a
//! static atomic flag — and the CLI's foreground loop (`serve`, `router`:
//! a 50 ms check) polls that flag and then calls the handle's
//! `shutdown()`; the accept loop itself never looks at it. On Unix the
//! registration goes straight through libc's `signal(2)` (libc is always
//! linked); elsewhere the flag simply never fires and the daemon runs
//! until killed.

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN_REQUESTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    use super::{AtomicBool, Ordering, SHUTDOWN_REQUESTED};

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN_REQUESTED.store(true, Ordering::SeqCst);
    }

    pub fn install() -> &'static AtomicBool {
        unsafe {
            signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
            signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
        }
        &SHUTDOWN_REQUESTED
    }
}

#[cfg(not(unix))]
mod imp {
    use super::{AtomicBool, SHUTDOWN_REQUESTED};

    pub fn install() -> &'static AtomicBool {
        &SHUTDOWN_REQUESTED
    }
}

/// Installs handlers for SIGINT and SIGTERM (idempotent) and returns the
/// flag they set.
pub fn install_ctrlc() -> &'static AtomicBool {
    imp::install()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_starts_unset_and_is_reachable() {
        let flag = install_ctrlc();
        // Another test in this process may have raised a signal; only
        // assert the handle is usable, not its value.
        let _ = flag.load(Ordering::SeqCst);
    }
}
