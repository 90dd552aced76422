//! The one bounded worker pool: fixed threads draining a bounded queue.
//!
//! The HTTP listener queues connections on it and answers 503 on the
//! stream a full queue hands back; the cluster router queues scatter
//! jobs on it and reads a full queue as "that shard did not respond".
//! Neither may block or queue without bound, so
//! [`BoundedPool::try_submit`] is the only way in.

use std::io;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// A fixed set of threads applying one function to queued items.
/// Dropping the pool drains what is queued, then joins the threads.
pub struct BoundedPool<T> {
    /// `None` only inside `drop`, which closes the queue by taking it.
    tx: Option<SyncSender<T>>,
    workers: Vec<JoinHandle<()>>,
}

impl<T: Send + 'static> BoundedPool<T> {
    /// Spawns `workers` threads (at least one) named `{name}-{i}` over
    /// a queue bounded at `workers * 4` items; each runs `run` on the
    /// items it dequeues.
    pub fn new(
        name: &str,
        workers: usize,
        run: impl Fn(T) + Send + Sync + 'static,
    ) -> io::Result<BoundedPool<T>> {
        let workers = workers.max(1);
        let (tx, rx) = sync_channel::<T>(workers * 4);
        let rx = Arc::new(Mutex::new(rx));
        let run = Arc::new(run);
        let workers = (0..workers)
            .map(|i| {
                let (rx, run) = (Arc::clone(&rx), Arc::clone(&run));
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || worker_loop(&rx, &*run))
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(BoundedPool {
            tx: Some(tx),
            workers,
        })
    }

    /// Queues `item` if the queue has room right now; a full queue
    /// hands it back instead of blocking.
    pub fn try_submit(&self, item: T) -> Result<(), T> {
        let tx = self.tx.as_ref().expect("queue stays open until drop");
        tx.try_send(item).map_err(|e| match e {
            TrySendError::Full(item) | TrySendError::Disconnected(item) => item,
        })
    }
}

impl<T> Drop for BoundedPool<T> {
    fn drop(&mut self) {
        self.tx.take();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop<T>(rx: &Mutex<Receiver<T>>, run: &impl Fn(T)) {
    loop {
        // The lock is held only to dequeue: a slow item must not
        // serialise the pool. `recv` cannot panic, so a poisoned lock
        // still guards a usable receiver.
        let next = rx.lock().unwrap_or_else(|e| e.into_inner()).recv();
        match next {
            Ok(item) => run(item),
            Err(_) => return, // pool dropped, queue drained
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::channel;
    use std::time::Duration;

    type Job = Box<dyn FnOnce() + Send>;

    fn job_pool(workers: usize) -> BoundedPool<Job> {
        BoundedPool::new("test-pool", workers, |job: Job| job()).unwrap()
    }

    #[test]
    fn runs_submitted_items_on_named_pool_threads() {
        let (tx, rx) = channel();
        let pool = BoundedPool::new("test-pool", 3, move |n: usize| {
            let name = std::thread::current().name().map(str::to_string);
            tx.send((n, name)).unwrap();
        })
        .unwrap();
        // A queue of 3 × 4 always has room for twelve items.
        for n in 0..12 {
            assert!(pool.try_submit(n).is_ok());
        }
        let mut seen: Vec<(usize, Option<String>)> = (0..12)
            .map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap())
            .collect();
        seen.sort();
        for (expected, (n, name)) in seen.iter().enumerate() {
            assert_eq!(*n, expected);
            assert!(name.as_deref().unwrap().starts_with("test-pool-"));
        }
    }

    #[test]
    fn drop_drains_queued_items() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = job_pool(1);
            for _ in 0..4 {
                let counter = Arc::clone(&counter);
                let job: Job = Box::new(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
                assert!(pool.try_submit(job).is_ok());
            }
        } // drop joins the worker after the queue drains
        assert_eq!(counter.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn try_submit_hands_the_item_back_when_saturated() {
        let pool = job_pool(1);
        let (started_tx, started_rx) = channel::<()>();
        let (hold_tx, hold_rx) = channel::<()>();
        // Park the only worker so the queue (capacity 4) can fill.
        let park: Job = Box::new(move || {
            started_tx.send(()).unwrap();
            let _ = hold_rx.recv_timeout(Duration::from_secs(5));
        });
        assert!(pool.try_submit(park).is_ok());
        started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let accepted = (0..20)
            .filter(|_| pool.try_submit(Box::new(|| {})).is_ok())
            .count();
        assert_eq!(accepted, 4, "queue is bounded at workers * 4");
        hold_tx.send(()).unwrap();
    }
}
