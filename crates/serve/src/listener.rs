//! The one HTTP front door: accept loop, connection workers, lifecycle.
//!
//! The daemon, the cluster router and the tests' canned shards all
//! [`listen`]; they differ in the handler they pass and the prefix they
//! report under. The acceptor polls a non-blocking socket, so it sees
//! shutdown promptly, and queues connections on a [`BoundedPool`]; when
//! the queue is full it answers 503 itself. A worker reads one request
//! per connection, calls the handler, stamps the response with the trace
//! ID, and records `{prefix}.http.*` metrics and the access-log line.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use viralcast_obs as obs;

use crate::http::{self, HttpError, HttpLimits, Request, Response};
use crate::pool::BoundedPool;
use crate::router::endpoint_label;
use crate::snapshot::SnapshotStore;
use crate::trace;

/// How long the acceptor sleeps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

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
    shutdown: Arc<AtomicBool>,
    acceptor: JoinHandle<()>,
}

impl Listener {
    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The flag [`Listener::shutdown`] raises, for threads that must
    /// wind down together with the listener.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Graceful stop: the acceptor exits and drops the pool, which
    /// serves the connections already queued and joins the workers.
    pub fn shutdown(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = self.acceptor.join();
    }
}

/// Binds `config.addr` and serves every request through `handler`,
/// which gets the parsed request and its resolved trace ID.
pub fn listen(
    config: ListenerConfig,
    handler: impl Fn(&Request, &str) -> Response + Send + Sync + 'static,
) -> io::Result<Listener> {
    let socket = TcpListener::bind(&config.addr)?;
    socket.set_nonblocking(true)?;
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
    let shutdown = Arc::new(AtomicBool::new(false));
    let stop = Arc::clone(&shutdown);
    let acceptor = std::thread::Builder::new()
        .name(format!("{prefix}-acceptor"))
        .spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                let stream = match socket.accept() {
                    Ok((stream, _)) => stream,
                    Err(e) => {
                        if e.kind() != io::ErrorKind::WouldBlock {
                            obs::warn(prefix, &format!("accept failed: {e}"), &[]);
                        }
                        std::thread::sleep(ACCEPT_POLL);
                        continue;
                    }
                };
                // The listener is non-blocking; per-connection I/O must
                // not be.
                if stream.set_nonblocking(false).is_err()
                    || stream.set_read_timeout(Some(read_timeout)).is_err()
                    || stream.set_write_timeout(Some(write_timeout)).is_err()
                {
                    continue;
                }
                if let Err(mut stream) = pool.try_submit(stream) {
                    door.shed(&mut stream);
                }
            }
        })?;
    let banner = format!("listening on {addr} with {workers} workers");
    obs::info(prefix, &banner, &[]);
    Ok(Listener {
        addr,
        shutdown,
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
}
