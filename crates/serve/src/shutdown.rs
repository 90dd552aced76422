//! The one interruptible wait: a stop flag a thread can park on.
//!
//! Every background loop in the stack — the listener's accept-error
//! backoff, the trainer's interval, the cluster prober's and the replica
//! poller's pacing — waits out its interval on a [`Shutdown`] instead of
//! sleeping it away in slices, so an idle process takes no timer wake-ups
//! between its real work and `raise()` ends every wait at once.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A raise-once stop flag with a timed, interruptible wait.
#[derive(Default)]
pub struct Shutdown {
    raised: Mutex<bool>,
    wake: Condvar,
}

impl Shutdown {
    /// A flag that has not been raised, ready to share.
    pub fn new() -> Arc<Shutdown> {
        Arc::new(Shutdown::default())
    }

    /// Raises the flag and wakes every thread parked in [`Shutdown::wait`].
    pub fn raise(&self) {
        // The bool is valid at every step, so a poisoned lock still
        // guards a usable flag.
        *self.raised.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.wake.notify_all();
    }

    /// Whether [`Shutdown::raise`] has been called.
    pub fn is_raised(&self) -> bool {
        *self.raised.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Parks for up to `timeout`; returns `true` as soon as the flag is
    /// raised (at once when it already is), `false` when the whole
    /// timeout passed without a raise.
    pub fn wait(&self, timeout: Duration) -> bool {
        let guard = self.raised.lock().unwrap_or_else(|e| e.into_inner());
        let (guard, _) = self
            .wake
            .wait_timeout_while(guard, timeout, |raised| !*raised)
            .unwrap_or_else(|e| e.into_inner());
        *guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::time::Instant;

    #[test]
    fn wait_times_out_false_until_raised_then_returns_at_once() {
        let flag = Shutdown::new();
        assert!(!flag.is_raised());
        let started = Instant::now();
        assert!(!flag.wait(Duration::from_millis(20)));
        assert!(started.elapsed() >= Duration::from_millis(20));

        flag.raise();
        assert!(flag.is_raised());
        let started = Instant::now();
        assert!(flag.wait(Duration::from_secs(3600)));
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn raise_interrupts_a_parked_wait() {
        let flag = Shutdown::new();
        let (parked_tx, parked_rx) = channel();
        let waiter = {
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                parked_tx.send(()).unwrap();
                let started = Instant::now();
                (flag.wait(Duration::from_secs(3600)), started.elapsed())
            })
        };
        parked_rx.recv().unwrap();
        flag.raise();
        let (raised, waited) = waiter.join().unwrap();
        assert!(raised);
        assert!(waited < Duration::from_secs(60), "waited {waited:?}");
    }
}
