//! The closed-loop load generator.
//!
//! Each client thread walks its pre-generated operation list, pausing a
//! pre-generated think time of at most [`THINK`] before each request,
//! one request per connection, through
//! `viralcast::serve::client::request_with_headers` — the function the
//! repository's own `loadgen`, the router's fan-out and the follower
//! poller use — so a keep-alive or pooling change inside `serve::client`
//! reaches these numbers without an edit here. A transport error
//! (`EADDRNOTAVAIL` from `TIME_WAIT` build-up under `Connection: close`,
//! a refused or reset connection, a timeout) is a failed operation; it
//! is counted, never retried.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use viralcast::obs::{self, MetricsSnapshot};
use viralcast::serve::client;

use crate::gen::Op;
use crate::sys;
use crate::window::{Sample, Window};

/// Warm-up before every HTTP window: caches fill, `TIME_WAIT` sockets
/// reach their steady population, the trainer finishes its first cycle.
pub const WARMUP: Duration = Duration::from_secs(3);

/// Longest think time: before each request a client pauses for a
/// pre-generated time drawn uniformly below this, one `ACCEPT_POLL` of
/// the daemons. With zero think time a closed-loop client locks onto
/// that 10 ms poll — it reconnects the instant its answer arrives and
/// then waits out the rest of the acceptor's sleep — so every latency is
/// a whole number of polls whatever the server did in between: an
/// `ingest_mixed` write takes 10.4 ms whether the WAL append costs 0.3 ms
/// or 3, a `read_scan` predict 40 ms for any scan between 30 and 40, and
/// `cluster_read` answers in 10 or 20 ms in a share that differs from run
/// to run, with the median on the step between them. Pauses of up to one
/// poll spread the arrivals over the poll's phase: latency becomes the
/// server's own time plus a uniform wait, and moves when the server does.
pub const THINK: Duration = Duration::from_millis(10);

/// Every this-many-th response of a client is kept for the oracle.
pub const VERIFY_EVERY: usize = 50;

/// One closed-loop client.
pub struct Client<'a> {
    /// Where it connects.
    pub addr: SocketAddr,
    /// The operations it cycles through.
    pub ops: &'a [Op],
    /// Index of its first operation (clients start apart).
    pub first: usize,
    /// Whether its operations are the workload's primary kind.
    pub primary: bool,
    /// Pre-generated think times, cycled like `ops`: the client sleeps
    /// `pauses[i]` before sending operation `i`.
    pub pauses: &'a [Duration],
}

/// A response body held back for post-window verification.
pub struct Kept {
    /// Which client produced it.
    pub client: usize,
    /// Index into that client's sample list.
    pub sample: usize,
    /// The response body.
    pub body: String,
}

/// Everything a load phase observed.
pub struct LoadOutcome {
    /// The measurement window.
    pub window: Window,
    /// Process CPU time spent inside the window, milliseconds.
    pub cpu_ms: f64,
    /// Per-client operation records, warm-up included.
    pub samples: Vec<Vec<Sample>>,
    /// Responses kept for the oracle.
    pub kept: Vec<Kept>,
    /// Transport errors (no HTTP response at all), warm-up included.
    pub transport_errors: u64,
    /// Registry contents as the window opened and closed. Every
    /// in-process daemon shares the one global registry.
    pub registry: (MetricsSnapshot, MetricsSnapshot),
}

impl LoadOutcome {
    /// Every sample of every client.
    pub fn all_samples(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().flatten()
    }
}

struct ClientLog {
    samples: Vec<Sample>,
    kept: Vec<(usize, String)>,
    transport_errors: u64,
}

fn client_loop(client: &Client<'_>, stop: &AtomicBool) -> ClientLog {
    let mut log = ClientLog {
        samples: Vec::with_capacity(1 << 14),
        kept: Vec::new(),
        transport_errors: 0,
    };
    let mut next = client.first;
    while !stop.load(Ordering::Relaxed) {
        let index = next % client.ops.len();
        next += 1;
        let op = &client.ops[index];
        std::thread::sleep(client.pauses[index % client.pauses.len()]);
        let start = Instant::now();
        let result = client::request_with_headers(
            &client.addr,
            op.method,
            &op.target,
            op.body.as_deref(),
            &[],
        );
        let end = Instant::now();
        let ok = match result {
            Ok(response) => {
                let ok = response.status == 200;
                if ok && log.samples.len() % VERIFY_EVERY == 0 {
                    log.kept.push((log.samples.len(), response.body));
                }
                ok
            }
            Err(_) => {
                log.transport_errors += 1;
                false
            }
        };
        log.samples.push(Sample {
            start,
            end,
            ok,
            op: index as u32,
            primary: client.primary,
        });
    }
    log
}

/// Runs `clients` through a [`WARMUP`] and then a `measure`-long
/// window. Operations that straddle a window edge stay in the sample
/// lists but fall outside [`LoadOutcome::window`].
pub fn drive(clients: &[Client<'_>], measure: Duration) -> LoadOutcome {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter()
            .map(|client| {
                let stop = &stop;
                scope.spawn(move || client_loop(client, stop))
            })
            .collect();

        std::thread::sleep(WARMUP);
        let before = obs::metrics().snapshot();
        let (start, cpu_start) = (Instant::now(), sys::process_cpu_ns());
        std::thread::sleep(measure);
        let (end, cpu_end) = (Instant::now(), sys::process_cpu_ns());
        let after = obs::metrics().snapshot();
        stop.store(true, Ordering::Relaxed);

        let mut outcome = LoadOutcome {
            window: Window { start, end },
            cpu_ms: (cpu_end - cpu_start) as f64 / 1e6,
            samples: Vec::with_capacity(clients.len()),
            kept: Vec::new(),
            transport_errors: 0,
            registry: (before, after),
        };
        for (id, handle) in handles.into_iter().enumerate() {
            let log = handle.join().expect("a load client panicked");
            outcome
                .kept
                .extend(log.kept.into_iter().map(|(sample, body)| Kept {
                    client: id,
                    sample,
                    body,
                }));
            outcome.transport_errors += log.transport_errors;
            outcome.samples.push(log.samples);
        }
        outcome
    })
}
