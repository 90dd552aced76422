//! A one-shot HTTP client, just big enough to exercise the daemon.
//!
//! Used by the cluster router's scatter, the replica poller, the
//! integration tests and the chaos harness; not a general HTTP client.
//! One request per connection, mirroring the server's `Connection:
//! close` contract: dial with `TCP_NODELAY`, send the whole request
//! ([`encode_request`]) in one write, read to EOF.
//!
//! [`request_with_retry`] layers transient-failure handling on top:
//! connection resets, mid-response EOFs, and 429/503 responses are
//! retried with capped, jittered exponential backoff instead of
//! surfacing to the caller — during a chaos run one daemon restart must
//! not poison a whole worker's statistics.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed response: status code, headers, and body text.
#[derive(Clone, Debug)]
pub struct ClientResponse {
    /// HTTP status code from the status line.
    pub status: u16,
    /// Response header `(name, value)` pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Response body, decoded as UTF-8 (lossily).
    pub body: String,
}

impl ClientResponse {
    /// First header with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A response whose body is kept as raw bytes — the replication path
/// fetches binary checkpoint payloads that a lossy UTF-8 decode would
/// corrupt.
#[derive(Clone, Debug)]
pub struct RawResponse {
    /// HTTP status code from the status line.
    pub status: u16,
    /// Response header `(name, value)` pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Response body bytes, verbatim.
    pub body: Vec<u8>,
}

impl RawResponse {
    /// First header with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Sends one request and reads the full response.
///
/// `body` is sent with a `Content-Length` header when present. The
/// connection closes after the exchange.
pub fn request(
    addr: &SocketAddr,
    method: &str,
    target: &str,
    body: Option<&str>,
) -> io::Result<ClientResponse> {
    request_with_headers(addr, method, target, body, &[])
}

/// Like [`request`], with extra request headers (e.g. `X-Request-Id`).
pub fn request_with_headers(
    addr: &SocketAddr,
    method: &str,
    target: &str,
    body: Option<&str>,
    headers: &[(&str, &str)],
) -> io::Result<ClientResponse> {
    request_with_options(addr, method, target, body, headers, Duration::from_secs(10))
}

/// Like [`request_with_headers`], with an explicit per-request timeout
/// covering connect, read, and write — the router's scatter path uses a
/// tight deadline here so one dead shard cannot stall a fan-out.
pub fn request_with_options(
    addr: &SocketAddr,
    method: &str,
    target: &str,
    body: Option<&str>,
    headers: &[(&str, &str)],
    timeout: Duration,
) -> io::Result<ClientResponse> {
    let raw = request_bytes(addr, method, target, body, headers, timeout)?;
    Ok(ClientResponse {
        status: raw.status,
        headers: raw.headers,
        body: String::from_utf8_lossy(&raw.body).into_owned(),
    })
}

/// Like [`request_with_options`], but hands back the body as raw bytes.
/// The replica fetch path uses this: checkpoint payloads are binary and
/// must survive the trip bit-exactly.
pub fn request_bytes(
    addr: &SocketAddr,
    method: &str,
    target: &str,
    body: Option<&str>,
    headers: &[(&str, &str)],
    timeout: Duration,
) -> io::Result<RawResponse> {
    let mut stream = TcpStream::connect_timeout(addr, timeout)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(&encode_request(method, target, body, headers))?;
    stream.flush()?;

    // `Connection: close` framing: the response ends when the peer closes.
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

/// The bytes of one request: request line, `Host`, `Content-Length`
/// (always sent, 0 without a body), `headers` in the order given, blank
/// line, body.
pub(crate) fn encode_request(
    method: &str,
    target: &str,
    body: Option<&str>,
    headers: &[(&str, &str)],
) -> Vec<u8> {
    let payload = body.unwrap_or("");
    let mut message = format!(
        "{method} {target} HTTP/1.1\r\nHost: viralcast\r\nContent-Length: {}\r\n",
        payload.len()
    );
    for (name, value) in headers {
        message.push_str(&format!("{name}: {value}\r\n"));
    }
    message.push_str("\r\n");
    message.push_str(payload);
    message.into_bytes()
}

/// Parses a raw `Connection: close` response, detecting a peer that died
/// mid-body: when `Content-Length` promises more bytes than arrived, the
/// response is truncated and surfaces as `UnexpectedEof` (a transient
/// error [`request_with_retry`] will retry) instead of silently handing
/// the caller a cut-off body.
fn parse_response(raw: &[u8]) -> io::Result<RawResponse> {
    let header_end = raw.windows(4).position(|w| w == b"\r\n\r\n");
    let (head_bytes, body_bytes) = match header_end {
        Some(i) => (&raw[..i], &raw[i + 4..]),
        None => (raw, &raw[raw.len()..]),
    };
    let head = String::from_utf8_lossy(head_bytes);
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed response status line: {:?}", head.lines().next()),
            )
        })?;
    let headers: Vec<(String, String)> = head
        .split("\r\n")
        .skip(1) // the status line
        .filter_map(|line| {
            let (name, value) = line.split_once(':')?;
            Some((name.trim().to_ascii_lowercase(), value.trim().to_string()))
        })
        .collect();
    let promised = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok());
    if header_end.is_none() && promised.is_none() {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "response cut off inside its headers",
        ));
    }
    if let Some(promised) = promised {
        if body_bytes.len() < promised {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "response truncated mid-body: got {} of {promised} byte(s)",
                    body_bytes.len()
                ),
            ));
        }
    }
    Ok(RawResponse {
        status,
        headers,
        body: body_bytes.to_vec(),
    })
}

/// How [`request_with_retry`] paces itself across transient failures:
/// connection errors (refused/reset/EOF mid-response) and 429/503
/// responses back off exponentially from `base_backoff`, capped at
/// `max_backoff`, with deterministic jitter derived from `jitter_seed`
/// so concurrent workers do not retry in lockstep.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts, including the first (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Upper bound any single backoff is capped to.
    pub max_backoff: Duration,
    /// Seed for the jitter; vary it per worker.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(250),
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `retry` (1-based): exponential,
    /// capped, scaled into `[50 %, 100 %]` by deterministic jitter.
    pub fn backoff(&self, retry: u32) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(
                1u32.checked_shl(retry.saturating_sub(1))
                    .unwrap_or(u32::MAX),
            )
            .min(self.max_backoff);
        let jitter = splitmix64(self.jitter_seed ^ u64::from(retry));
        // Map the hash into [0.5, 1.0).
        let scale = 0.5 + (jitter >> 11) as f64 / (1u64 << 53) as f64 / 2.0;
        exp.mul_f64(scale)
    }
}

/// SplitMix64's finalizer: a well-mixed stateless hash. Seeds the retry
/// jitter here, and scores `(key, shard)` pairs in the cluster's
/// rendezvous hashing.
pub fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A response that survived the retry loop, with the attempt count the
/// caller folds into its stats.
#[derive(Clone, Debug)]
pub struct Retried {
    /// The final response (its status may still be 429/503 when the
    /// budget ran out while the server kept shedding).
    pub response: ClientResponse,
    /// Requests actually issued (1 = the first try succeeded).
    pub attempts: u32,
}

impl Retried {
    /// Retries spent on this exchange.
    pub fn retries(&self) -> u32 {
        self.attempts.saturating_sub(1)
    }
}

/// Whether a response status is worth retrying: the server is alive but
/// shedding (429) or momentarily unavailable (503).
pub fn transient_status(status: u16) -> bool {
    status == 429 || status == 503
}

/// [`request_with_headers`] wrapped in capped, jittered retry.
///
/// Transport errors (connect refused while a daemon restarts, connection
/// reset, EOF mid-response) and 429/503 responses are retried up to
/// `policy.max_attempts`. The last transport error is returned only when
/// every attempt failed; a final 429/503 is returned as a normal
/// response so the caller can count it as shed load rather than a
/// transport failure.
pub fn request_with_retry(
    addr: &SocketAddr,
    method: &str,
    target: &str,
    body: Option<&str>,
    headers: &[(&str, &str)],
    policy: &RetryPolicy,
) -> io::Result<Retried> {
    let attempts_budget = policy.max_attempts.max(1);
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let outcome = request_with_headers(addr, method, target, body, headers);
        let last = attempts >= attempts_budget;
        match outcome {
            Ok(response) if transient_status(response.status) && !last => {}
            Ok(response) => return Ok(Retried { response, attempts }),
            Err(e) if last => return Err(e),
            Err(_) => {}
        }
        std::thread::sleep(policy.backoff(attempts));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_detects_a_body_truncated_mid_response() {
        let full = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n0123456789";
        let ok = parse_response(full).unwrap();
        assert_eq!(ok.status, 200);
        assert_eq!(ok.body, b"0123456789");

        let cut = &full[..full.len() - 4];
        let err = parse_response(cut).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        let headless = b"HTTP/1.1 200 OK\r\nContent-Le";
        let err = parse_response(headless).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn request_bytes_are_pinned_header_order_included() {
        assert_eq!(
            encode_request("GET", "/healthz", None, &[]),
            b"GET /healthz HTTP/1.1\r\nHost: viralcast\r\nContent-Length: 0\r\n\r\n"
        );
        assert_eq!(
            encode_request(
                "POST",
                "/v1/predict?top=3",
                Some(r#"{"cascade":[]}"#),
                &[("X-Request-Id", "t-9"), ("X-Shard", "1")],
            ),
            b"POST /v1/predict?top=3 HTTP/1.1\r\nHost: viralcast\r\nContent-Length: 14\r\n\
              X-Request-Id: t-9\r\nX-Shard: 1\r\n\r\n{\"cascade\":[]}"
        );
    }

    #[test]
    fn backoff_is_capped_and_jittered() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            jitter_seed: 7,
        };
        for retry in 1..=8 {
            let b = policy.backoff(retry);
            assert!(b <= Duration::from_millis(100), "retry {retry}: {b:?}");
            assert!(b >= Duration::from_millis(5), "retry {retry}: {b:?}");
        }
        // Deterministic for a seed, different across seeds.
        assert_eq!(policy.backoff(3), policy.backoff(3));
        let other = RetryPolicy {
            jitter_seed: 8,
            ..policy
        };
        assert_ne!(policy.backoff(3), other.backoff(3));
    }

    #[test]
    fn a_transient_status_is_retried_and_counted() {
        // A listener that sheds the first request with a 503, then
        // answers every later one with a 200.
        let served = std::sync::atomic::AtomicU32::new(0);
        let server = crate::listen(
            crate::ListenerConfig::new("127.0.0.1:0", "fake"),
            move |_, _| {
                if served.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 0 {
                    crate::Response::text(503, "busy")
                } else {
                    crate::Response::text(200, "ok")
                }
            },
        )
        .unwrap();
        let policy = RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            jitter_seed: 3,
        };
        let out = request_with_retry(&server.local_addr(), "GET", "/healthz", None, &[], &policy)
            .unwrap();
        assert_eq!(out.response.status, 200);
        assert_eq!(out.response.body, "ok");
        assert_eq!(out.attempts, 2, "the 503 costs one retry");
        server.shutdown();
    }

    #[test]
    fn retry_gives_up_after_the_attempt_budget() {
        // A port with no listener: every attempt fails fast.
        let addr: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let policy = RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            jitter_seed: 1,
        };
        let err = request_with_retry(&addr, "GET", "/healthz", None, &[], &policy);
        assert!(err.is_err());
    }
}
