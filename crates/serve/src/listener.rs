//! The one HTTP front door: accept loop, connection workers, lifecycle.
//!
//! The daemon, the cluster router and the tests' canned shards all
//! [`listen`]; they differ in the handler they pass and the prefix they
//! report under. The acceptor parks in a blocking `accept()`, so a
//! connection reaches a worker the moment the kernel has it and an idle
//! door costs no wake-ups. [`Listener::shutdown`] raises the [`Shutdown`]
//! flag and then connects to the door itself; the acceptor re-checks the
//! flag after every `accept` and drops that wake connection unserved and
//! uncounted. A failed `accept` is classified ([`accept_backoff`]):
//! per-connection failures retry at once, resource exhaustion is counted
//! under `{prefix}.http.accept_errors`, logged once per burst and backed
//! off from, because a blocking `accept` that fails instantly would
//! otherwise spin. Accepted connections get `TCP_NODELAY` and the
//! configured timeouts and queue on a [`BoundedPool`]; when the queue is
//! full the acceptor answers 503 itself. A worker reads one request per
//! connection, calls the handler, stamps the response with the trace ID,
//! and records `{prefix}.http.*` metrics and the access-log line.

use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use viralcast_obs as obs;

use crate::http::{self, HttpError, HttpLimits, Request, Response};
use crate::pool::BoundedPool;
use crate::router::endpoint_label;
use crate::shutdown::Shutdown;
use crate::snapshot::SnapshotStore;
use crate::trace;

/// First pause after an `accept` failure that outlasts the call; doubles
/// per consecutive failure up to [`ACCEPT_BACKOFF_MAX`].
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(5);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_secs(1);

/// Bound on one wake attempt of [`Listener::shutdown`], and on the wait
/// for the acceptor to notice before the next attempt.
const WAKE_RETRY: Duration = Duration::from_millis(100);

/// What one front door listens on and reports as.
pub struct ListenerConfig {
    /// Bind address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Connection workers (at least one is spawned).
    pub workers: usize,
    /// Per-connection read timeout.
    pub read_timeout: Duration,
    /// Per-connection write timeout.
    pub write_timeout: Duration,
    /// HTTP parsing limits.
    pub limits: HttpLimits,
    /// Metric, log-target and thread-name prefix: `serve` | `router`.
    pub prefix: &'static str,
    /// Error message of the 503 a saturated queue is answered with.
    pub shed_message: &'static str,
    /// JSONL access log (one line per request) and the store whose
    /// version each line reports.
    pub access_log: Option<(Arc<obs::AccessLog>, Arc<SnapshotStore>)>,
}

impl ListenerConfig {
    /// `addr` under `prefix` with the daemon's defaults: 4 workers, 5 s
    /// timeouts, default limits, no access log.
    pub fn new(addr: impl Into<String>, prefix: &'static str) -> ListenerConfig {
        ListenerConfig {
            addr: addr.into(),
            workers: 4,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            limits: HttpLimits::default(),
            prefix,
            shed_message: "server overloaded; retry later",
            access_log: None,
        }
    }
}

/// A running front door. Dropping the handle does **not** stop it; call
/// [`Listener::shutdown`].
pub struct Listener {
    addr: SocketAddr,
    shutdown: Arc<Shutdown>,
    /// Raised by the acceptor once it has left its accept loop.
    left: Arc<Shutdown>,
    acceptor: JoinHandle<()>,
}

impl Listener {
    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The flag [`Listener::shutdown`] raises, for threads that must
    /// wind down together with the listener.
    pub fn shutdown_flag(&self) -> Arc<Shutdown> {
        Arc::clone(&self.shutdown)
    }

    /// Graceful stop: the acceptor exits and drops the pool, which
    /// serves the connections already queued and joins the workers.
    pub fn shutdown(self) {
        self.shutdown.raise();
        // The acceptor is parked in `accept()`; a connection to the door
        // is what wakes it. A wake can fail (this process may be out of
        // descriptors), so knock until the acceptor has left its loop.
        let wake = wake_addr(self.addr);
        while !self.acceptor.is_finished() {
            let _ = TcpStream::connect_timeout(&wake, WAKE_RETRY);
            if self.left.wait(WAKE_RETRY) {
                break;
            }
        }
        let _ = self.acceptor.join();
    }
}

/// Where a connection to the door bound at `bound` lands: the address
/// itself, or the loopback of the same family behind a wildcard bind.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// How long the acceptor stays off the socket after a failed `accept`
/// that `burst` consecutive failures preceded; `None` retries at once.
fn accept_backoff(kind: io::ErrorKind, burst: u32) -> Option<Duration> {
    match kind {
        // A signal landed, or the peer gave up while still in the
        // backlog: that connection is gone, the next is unaffected.
        io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted => None,
        // EMFILE, ENFILE, ENOBUFS, ENOMEM…: the condition outlasts the
        // call and the pending connection stays in the backlog, so the
        // next `accept` would fail just as fast.
        _ => Some((ACCEPT_BACKOFF_MIN * (1 << burst.min(16))).min(ACCEPT_BACKOFF_MAX)),
    }
}

/// Binds `config.addr` and serves every request through `handler`,
/// which gets the parsed request and its resolved trace ID.
pub fn listen(
    config: ListenerConfig,
    handler: impl Fn(&Request, &str) -> Response + Send + Sync + 'static,
) -> io::Result<Listener> {
    let socket = TcpListener::bind(&config.addr)?;
    let addr = socket.local_addr()?;
    let (prefix, workers) = (config.prefix, config.workers.max(1));
    let (read_timeout, write_timeout) = (config.read_timeout, config.write_timeout);
    let door = Arc::new(Door { config, handler });
    let worker = Arc::clone(&door);
    let pool = BoundedPool::new(
        &format!("{prefix}-worker"),
        workers,
        move |mut stream: TcpStream| worker.serve(&mut stream),
    )?;
    let (shutdown, left) = (Shutdown::new(), Shutdown::new());
    let (stop, leaving) = (Arc::clone(&shutdown), Arc::clone(&left));
    let acceptor = std::thread::Builder::new()
        .name(format!("{prefix}-acceptor"))
        .spawn(move || {
            let mut burst = 0u32; // consecutive failed accepts
            loop {
                let accepted = socket.accept();
                // Whatever woke the acceptor after the raise — the wake
                // connection or a client that came too late — is dropped
                // unserved and uncounted.
                if stop.is_raised() {
                    break;
                }
                let stream = match accepted {
                    Ok((stream, _)) => stream,
                    Err(e) => {
                        let Some(backoff) = accept_backoff(e.kind(), burst) else {
                            continue;
                        };
                        door.count("accept_errors");
                        if burst == 0 {
                            obs::warn(prefix, &format!("accept failed, backing off: {e}"), &[]);
                        }
                        burst += 1;
                        if stop.wait(backoff) {
                            break;
                        }
                        continue;
                    }
                };
                burst = 0;
                // A peer can reset between `accept` and here; count it,
                // but one log line per hostile connect would be a lever.
                if stream.set_nodelay(true).is_err()
                    || stream.set_read_timeout(Some(read_timeout)).is_err()
                    || stream.set_write_timeout(Some(write_timeout)).is_err()
                {
                    door.count("accept_errors");
                    continue;
                }
                if let Err(mut stream) = pool.try_submit(stream) {
                    door.shed(&mut stream);
                }
            }
            // Close the door and tell `shutdown` to stop knocking before
            // the pool drains what is queued, which can take a while.
            drop(socket);
            leaving.raise();
        })?;
    let banner = format!("listening on {addr} with {workers} workers");
    obs::info(prefix, &banner, &[]);
    Ok(Listener {
        addr,
        shutdown,
        left,
        acceptor,
    })
}

/// What a connection is answered with.
struct Door<H> {
    config: ListenerConfig,
    handler: H,
}

impl<H: Fn(&Request, &str) -> Response> Door<H> {
    fn count(&self, what: &str) {
        obs::metrics()
            .counter(&format!("{}.http.{what}", self.config.prefix))
            .incr(1);
    }

    fn log_access(&self, method: &str, path: &str, status: u16, latency_us: u64, trace_id: &str) {
        if let Some((log, snapshots)) = &self.config.access_log {
            log.append(&obs::AccessRecord {
                method,
                path,
                status,
                snapshot_version: snapshots.version(),
                latency_us,
                trace_id,
            });
        }
    }

    /// Answers a connection no worker has room for. The request was
    /// never read; the shed still gets a trace ID and an access-log
    /// line so overload is attributable from the client side.
    fn shed(&self, stream: &mut TcpStream) {
        self.count("overload");
        let trace_id = trace::generate_trace_id();
        let _ = Response::error(503, self.config.shed_message)
            .with_header("X-Request-Id", trace_id.clone())
            .write_to(stream);
        self.log_access("-", "-", 503, 0, &trace_id);
    }

    /// Reads one request, hands it to the handler, writes the response
    /// stamped with the request's trace ID, records metrics, and
    /// appends the access-log line.
    fn serve(&self, stream: &mut TcpStream) {
        let started = Instant::now();
        self.count("requests");
        // (method, path) survive for the access log even on routing
        // errors; a request too malformed to parse logs placeholders.
        let (response, trace_id, method, path) = match self.read(stream) {
            Ok(req) => {
                let trace_id = trace::trace_id_for(&req);
                let response = self.handle(&req, &trace_id);
                // Exponential bounds from 250µs to ~0.5s (12 doublings).
                let label = endpoint_label(&req.path);
                let name = format!("{}.http.latency_ms.{label}", self.config.prefix);
                obs::metrics()
                    .histogram_exponential(&name, 0.25, 2.0, 12)
                    .record(started.elapsed().as_secs_f64() * 1e3);
                (response, trace_id, req.method, req.path)
            }
            Err(Some(refusal)) => (refusal, trace::generate_trace_id(), "-".into(), "-".into()),
            // Nothing sensible to answer on a dead transport.
            Err(None) => return,
        };
        if response.status >= 400 {
            self.count("errors");
        }
        let response = response.with_header("X-Request-Id", trace_id.clone());
        let _ = response.write_to(stream);
        let latency_us = started.elapsed().as_micros() as u64;
        self.log_access(&method, &path, response.status, latency_us, &trace_id);
    }

    /// The parsed request, or the 4xx its bytes deserve (`None` when
    /// the transport died first).
    fn read(&self, stream: &mut TcpStream) -> Result<Request, Option<Response>> {
        http::read_request(stream, &self.config.limits).map_err(|e| match &e {
            HttpError::BadRequest(m) => Some(Response::error(400, m.as_str())),
            HttpError::HeadTooLarge(_) => Some(Response::error(431, e.to_string())),
            HttpError::BodyTooLarge(_) => Some(Response::error(413, e.to_string())),
            HttpError::Io(_) | HttpError::ConnectionClosed => None,
        })
    }

    /// The handler's answer. A handler panic must cost one response,
    /// not one worker: after `workers` dead threads the door would
    /// still accept and answer nothing but 503.
    fn handle(&self, req: &Request, trace_id: &str) -> Response {
        catch_unwind(AssertUnwindSafe(|| (self.handler)(req, trace_id))).unwrap_or_else(|_| {
            let what = format!("handler panicked on {} {}", req.method, req.path);
            obs::warn(self.config.prefix, &what, &[("trace_id", trace_id.into())]);
            Response::error(500, "internal error: the request handler panicked")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use std::io::{Read, Write};
    use std::sync::mpsc::channel;
    use std::sync::Mutex;

    fn counter(prefix: &str, what: &str) -> u64 {
        obs::metrics()
            .counter(&format!("{prefix}.http.{what}"))
            .get()
    }

    #[test]
    fn a_handler_panic_costs_one_response_not_the_worker() {
        let config = ListenerConfig {
            workers: 1,
            ..ListenerConfig::new("127.0.0.1:0", "paniclab")
        };
        let listener = listen(config, |req, _| match req.path.as_str() {
            "/boom" => panic!("handler bug"),
            _ => Response::text(200, "alive"),
        })
        .unwrap();
        let addr = listener.local_addr();
        let errors = obs::metrics().counter("paniclab.http.errors");
        let before = errors.get();

        let boom =
            client::request_with_headers(&addr, "GET", "/boom", None, &[("X-Request-Id", "t-1")])
                .unwrap();
        assert_eq!(boom.status, 500, "{}", boom.body);
        assert_eq!(boom.header("x-request-id"), Some("t-1"));
        assert_eq!(errors.get(), before + 1);

        // The only worker survived: the same listener still serves.
        let next = client::request(&addr, "GET", "/fine", None).unwrap();
        assert_eq!(next.status, 200);
        assert_eq!(next.body, "alive");
        listener.shutdown();
    }

    /// A polling acceptor costs every connection to an idle door one poll
    /// interval (10 ms: two seconds for these 200); a parked one costs a
    /// thread wake-up.
    #[test]
    fn an_idle_door_answers_at_once() {
        let config = ListenerConfig {
            workers: 1,
            ..ListenerConfig::new("127.0.0.1:0", "idledoor")
        };
        let listener = listen(config, |_, _| Response::text(200, "ok")).unwrap();
        let addr = listener.local_addr();
        let started = Instant::now();
        for _ in 0..200 {
            assert_eq!(
                client::request(&addr, "GET", "/", None).unwrap().status,
                200
            );
        }
        let took = started.elapsed();
        listener.shutdown();
        assert!(
            took < Duration::from_secs(1),
            "200 sequential requests took {took:?}"
        );
    }

    #[test]
    fn shutdown_wakes_a_door_that_never_saw_a_connection() {
        for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
            let listener = listen(ListenerConfig::new(bind, "quietdoor"), |_, _| {
                Response::text(200, "ok")
            })
            .unwrap();
            let started = Instant::now();
            listener.shutdown();
            let took = started.elapsed();
            assert!(
                took < Duration::from_millis(250),
                "{bind}: shutdown took {took:?}"
            );
        }
    }

    #[test]
    fn the_wake_connection_is_neither_served_nor_counted() {
        let path =
            std::env::temp_dir().join(format!("viralcast-wake-{}.jsonl", std::process::id()));
        let log = Arc::new(obs::AccessLog::create(&path).unwrap());
        let snapshots = Arc::new(SnapshotStore::new(Arc::new(
            viralcast_model::EmbeddingBackend::new(viralcast_embed::Embeddings::from_matrices(
                2,
                1,
                vec![0.1; 2],
                vec![0.1; 2],
            )),
        )));
        let config = ListenerConfig {
            access_log: Some((log, snapshots)),
            ..ListenerConfig::new("127.0.0.1:0", "wakedoor")
        };
        let listener = listen(config, |_, _| Response::text(200, "ok")).unwrap();
        listener.shutdown();
        for what in ["requests", "errors", "overload", "accept_errors"] {
            assert_eq!(counter("wakedoor", what), 0, "wakedoor.http.{what}");
        }
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn connections_queued_before_shutdown_are_still_answered() {
        let (started_tx, started_rx) = channel::<()>();
        let (release_tx, release_rx) = channel::<()>();
        let (started_tx, release_rx) = (Mutex::new(started_tx), Mutex::new(release_rx));
        let config = ListenerConfig {
            workers: 1,
            ..ListenerConfig::new("127.0.0.1:0", "drainlab")
        };
        let listener = listen(config, move |req, _| {
            if req.path == "/park" {
                started_tx.lock().unwrap().send(()).unwrap();
                let _ = release_rx
                    .lock()
                    .unwrap()
                    .recv_timeout(Duration::from_secs(10));
            }
            Response::text(200, "served")
        })
        .unwrap();
        let addr = listener.local_addr();

        // Park the only worker, then fill its queue (1 worker × 4).
        let parked = std::thread::spawn(move || client::request(&addr, "GET", "/park", None));
        started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let mut queued: Vec<TcpStream> = (0..4)
            .map(|_| {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream
                    .write_all(&client::encode_request("GET", "/queued", None, &[]))
                    .unwrap();
                stream
            })
            .collect();
        // Connections are accepted in order, so the acceptor shedding a
        // fifth proves the four before it are accepted and queued.
        // (It sends nothing: a shed closes without reading the request.)
        let mut shed = String::new();
        let mut late = TcpStream::connect(addr).unwrap();
        late.read_to_string(&mut shed).unwrap();
        assert!(shed.starts_with("HTTP/1.1 503 "), "{shed:?}");

        let flag = listener.shutdown_flag();
        let stopping = std::thread::spawn(move || listener.shutdown());
        assert!(flag.wait(Duration::from_secs(5)), "shutdown never raised");
        release_tx.send(()).unwrap();

        assert_eq!(parked.join().unwrap().unwrap().status, 200);
        for stream in &mut queued {
            let mut raw = String::new();
            stream.read_to_string(&mut raw).unwrap();
            assert!(raw.starts_with("HTTP/1.1 200 OK\r\n"), "{raw:?}");
            assert!(raw.ends_with("served"), "{raw:?}");
        }
        stopping.join().unwrap();
        assert_eq!(counter("drainlab", "requests"), 5);
        assert_eq!(counter("drainlab", "overload"), 1);
    }

    #[test]
    fn accept_failures_that_outlast_the_call_back_off_and_the_rest_retry() {
        use io::ErrorKind::{ConnectionAborted, Interrupted, OutOfMemory};
        for burst in [0, 1, 50] {
            assert_eq!(accept_backoff(Interrupted, burst), None);
            assert_eq!(accept_backoff(ConnectionAborted, burst), None);
        }
        // EMFILE and ENFILE have no stable kind: everything unnamed backs off.
        for kind in [io::Error::from_raw_os_error(24).kind(), OutOfMemory] {
            assert_eq!(accept_backoff(kind, 0), Some(ACCEPT_BACKOFF_MIN));
            assert_eq!(accept_backoff(kind, 1), Some(ACCEPT_BACKOFF_MIN * 2));
            assert_eq!(accept_backoff(kind, 8), Some(ACCEPT_BACKOFF_MAX));
            assert_eq!(accept_backoff(kind, u32::MAX), Some(ACCEPT_BACKOFF_MAX));
        }
    }

    #[test]
    fn the_wake_goes_to_the_loopback_of_a_wildcard_bind() {
        for (bound, wake) in [
            ("127.0.0.1:7001", "127.0.0.1:7001"),
            ("0.0.0.0:7002", "127.0.0.1:7002"),
            ("[::]:7003", "[::1]:7003"),
            ("[::1]:7004", "[::1]:7004"),
            ("10.1.2.3:7005", "10.1.2.3:7005"),
        ] {
            assert_eq!(wake_addr(bound.parse().unwrap()), wake.parse().unwrap());
        }
    }
}
