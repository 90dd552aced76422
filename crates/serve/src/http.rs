//! A minimal, defensive HTTP/1.1 request reader and response writer.
//!
//! Only what the daemon needs: one request per connection (every response
//! carries `Connection: close`), bounded head and body sizes, explicit
//! `Content-Length` bodies (chunked transfer encoding is rejected), and
//! descriptive errors that the worker maps to 4xx responses. A response
//! is assembled whole and handed to the transport in one write. The
//! parser reads from any `Read` and the writer writes to any `Write`, so
//! the unit tests drive both in memory — no sockets required.

use std::io::{self, Read, Write};
use viralcast_obs::JsonValue;

/// Read-size caps enforced while parsing.
#[derive(Clone, Copy, Debug)]
pub struct HttpLimits {
    /// Maximum bytes of request line + headers (terminator included).
    pub max_head_bytes: usize,
    /// Maximum request body bytes (the declared `Content-Length`).
    pub max_body_bytes: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 4 * 1024 * 1024,
        }
    }
}

/// A parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Upper-case method token (`GET`, `POST`, …).
    pub method: String,
    /// Path component of the target, without the query string.
    pub path: String,
    /// Decoded `key=value` query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// First query parameter with the given name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Transport failure (including read timeouts).
    Io(io::Error),
    /// The peer closed the connection before sending any bytes.
    ConnectionClosed,
    /// Malformed request line, header, or body framing.
    BadRequest(String),
    /// Request line + headers exceed [`HttpLimits::max_head_bytes`].
    HeadTooLarge(usize),
    /// Declared body exceeds [`HttpLimits::max_body_bytes`].
    BodyTooLarge(usize),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "I/O error: {e}"),
            HttpError::ConnectionClosed => write!(f, "connection closed before a request"),
            HttpError::BadRequest(m) => write!(f, "bad request: {m}"),
            HttpError::HeadTooLarge(limit) => {
                write!(f, "request head exceeds {limit} bytes")
            }
            HttpError::BodyTooLarge(limit) => {
                write!(f, "request body exceeds {limit} bytes")
            }
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Reads and parses one request from `r`.
pub fn read_request<R: Read>(r: &mut R, limits: &HttpLimits) -> Result<Request, HttpError> {
    // Accumulate until the blank line that ends the head. Reads are
    // chunked, so bytes past the terminator (the body prefix) stay in
    // `buf` and are handed to the body reader below.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let head_end = loop {
        if let Some(i) = find_head_end(&buf) {
            break i;
        }
        if buf.len() > limits.max_head_bytes {
            return Err(HttpError::HeadTooLarge(limits.max_head_bytes));
        }
        let mut chunk = [0u8; 1024];
        let n = r.read(&mut chunk)?;
        if n == 0 {
            if buf.is_empty() {
                return Err(HttpError::ConnectionClosed);
            }
            return Err(HttpError::BadRequest(
                "connection closed mid-head (no blank line)".into(),
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    if head_end > limits.max_head_bytes {
        return Err(HttpError::HeadTooLarge(limits.max_head_bytes));
    }

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::BadRequest("head is not valid UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(HttpError::BadRequest(format!(
                "malformed request line {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!(
            "unsupported protocol {version:?}"
        )));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!("malformed header {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let request_head = Request {
        method: method.to_ascii_uppercase(),
        path: String::new(),
        query: Vec::new(),
        headers,
        body: Vec::new(),
    };
    if request_head
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::BadRequest(
            "chunked transfer encoding is not supported".into(),
        ));
    }

    let content_length = match request_head.header("content-length") {
        None => 0,
        Some(raw) => raw
            .parse::<usize>()
            .map_err(|_| HttpError::BadRequest(format!("invalid content-length {raw:?}")))?,
    };
    if content_length > limits.max_body_bytes {
        return Err(HttpError::BodyTooLarge(limits.max_body_bytes));
    }

    // Body: the bytes already buffered past the head, then the rest of
    // the declared length from the transport.
    let mut body: Vec<u8> = buf[head_end + 4..].to_vec();
    body.truncate(content_length);
    while body.len() < content_length {
        let mut chunk = vec![0u8; (content_length - body.len()).min(16 * 1024)];
        let n = r.read(&mut chunk)?;
        if n == 0 {
            return Err(HttpError::BadRequest(format!(
                "body truncated: content-length {content_length} but only {} bytes sent",
                body.len()
            )));
        }
        body.extend_from_slice(&chunk[..n]);
    }

    let (path, query) = split_target(target);
    Ok(Request {
        path,
        query,
        body,
        ..request_head
    })
}

/// Index of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Splits a request target into path and parsed query pairs.
fn split_target(target: &str) -> (String, Vec<(String, String)>) {
    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = query_str
        .split('&')
        .filter(|part| !part.is_empty())
        .map(|part| match part.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (part.to_string(), String::new()),
        })
        .collect();
    (path.to_string(), query)
}

/// An outgoing response (always `Connection: close`).
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra `(name, value)` headers written after the fixed ones —
    /// the worker attaches `X-Request-Id` here.
    pub extra_headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, value: &JsonValue) -> Response {
        Response {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: value.render().into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// Appends one extra header (builder style).
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Response {
        self.extra_headers.push((name.into(), value.into()));
        self
    }

    /// A JSON error envelope: `{"error": message}`.
    pub fn error(status: u16, message: impl Into<String>) -> Response {
        Response::json(
            status,
            &JsonValue::obj(vec![("error", JsonValue::from(message.into()))]),
        )
    }

    /// Serialises status line, headers, and body onto `w` in a single
    /// `write_all`: on a `TCP_NODELAY` socket every write is a segment
    /// and a syscall, and a response is one message.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let mut message = Vec::with_capacity(256 + self.body.len());
        write!(
            message,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            status_text(self.status),
            self.content_type,
            self.body.len()
        )?;
        for (name, value) in &self.extra_headers {
            write!(message, "{name}: {value}\r\n")?;
        }
        message.extend_from_slice(b"\r\n");
        message.extend_from_slice(&self.body);
        w.write_all(&message)?;
        w.flush()
    }
}

/// Reason phrase for the status codes the daemon emits.
fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        304 => "Not Modified",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse_bytes(raw: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut Cursor::new(raw.to_vec()), &HttpLimits::default())
    }

    #[test]
    fn get_with_query_parses() {
        let req =
            parse_bytes(b"GET /v1/influencers?topic=2&top=5 HTTP/1.1\r\nHost: localhost\r\n\r\n")
                .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/influencers");
        assert_eq!(req.query_param("topic"), Some("2"));
        assert_eq!(req.query_param("top"), Some("5"));
        assert_eq!(req.header("host"), Some("localhost"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn post_body_respects_content_length() {
        let req =
            parse_bytes(b"POST /v1/ingest HTTP/1.1\r\nContent-Length: 9\r\n\r\n{\"a\":[]}\nEXTRA")
                .unwrap();
        assert_eq!(req.body, b"{\"a\":[]}\n");
    }

    #[test]
    fn header_names_are_case_insensitive() {
        let req = parse_bytes(b"POST / HTTP/1.1\r\ncOnTeNt-LeNgTh: 2\r\n\r\nok").unwrap();
        assert_eq!(req.header("Content-Length"), Some("2"));
        assert_eq!(req.body, b"ok");
    }

    #[test]
    fn empty_connection_is_distinguished() {
        assert!(matches!(parse_bytes(b""), Err(HttpError::ConnectionClosed)));
    }

    #[test]
    fn truncated_head_is_rejected() {
        assert!(matches!(
            parse_bytes(b"GET / HTTP/1.1\r\nHost: x"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn oversized_head_is_rejected() {
        let mut raw = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        raw.extend_from_slice(&vec![b'a'; 64 * 1024]);
        raw.extend_from_slice(b"\r\n\r\n");
        assert!(matches!(parse_bytes(&raw), Err(HttpError::HeadTooLarge(_))));
    }

    #[test]
    fn bad_content_length_is_rejected() {
        assert!(matches!(
            parse_bytes(b"POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse_bytes(b"POST / HTTP/1.1\r\nContent-Length: -4\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn oversized_body_is_rejected_before_reading_it() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n";
        assert!(matches!(parse_bytes(raw), Err(HttpError::BodyTooLarge(_))));
    }

    #[test]
    fn truncated_body_is_rejected() {
        assert!(matches!(
            parse_bytes(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn chunked_encoding_is_rejected() {
        assert!(matches!(
            parse_bytes(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn malformed_request_lines_are_rejected() {
        for raw in [
            b"GET\r\n\r\n".to_vec(),
            b"GET /\r\n\r\n".to_vec(),
            b"GET / HTTP/1.1 extra\r\n\r\n".to_vec(),
            b"GET / SPDY/3\r\n\r\n".to_vec(),
            b"nonsense\r\n\r\n".to_vec(),
        ] {
            assert!(
                matches!(parse_bytes(&raw), Err(HttpError::BadRequest(_))),
                "accepted {raw:?}"
            );
        }
    }

    #[test]
    fn malformed_header_is_rejected() {
        assert!(matches!(
            parse_bytes(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn response_serialises_with_framing() {
        let mut out = Vec::new();
        Response::text(200, "hello").write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 5\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nhello"));
    }

    #[test]
    fn extra_headers_are_written_before_the_body() {
        let mut out = Vec::new();
        Response::text(200, "ok")
            .with_header("X-Request-Id", "trace-7")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("X-Request-Id: trace-7\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\nok"), "{text}");
    }

    /// A transport that counts the writes it is handed.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Status line, fixed headers in their fixed order, extra headers in
    /// the order attached, blank line, body — the exact bytes, in one
    /// write however many headers or body bytes there are.
    #[test]
    fn a_response_is_one_write_of_pinned_bytes() {
        let big = "x".repeat(1 << 20);
        let cases: Vec<(Response, String)> = vec![
            (
                Response::text(200, "hello").with_header("X-Request-Id", "trace-7"),
                "HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\n\
                 Content-Length: 5\r\nConnection: close\r\nX-Request-Id: trace-7\r\n\r\nhello"
                    .into(),
            ),
            (
                Response::error(503, "server overloaded; retry later")
                    .with_header("X-Request-Id", "shed-1"),
                "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
                 Content-Length: 42\r\nConnection: close\r\nX-Request-Id: shed-1\r\n\r\n\
                 {\"error\":\"server overloaded; retry later\"}"
                    .into(),
            ),
            (
                Response::text(304, "")
                    .with_header("X-Replica-Version", "9")
                    .with_header("X-Request-Id", "poll-3"),
                "HTTP/1.1 304 Not Modified\r\nContent-Type: text/plain; charset=utf-8\r\n\
                 Content-Length: 0\r\nConnection: close\r\nX-Replica-Version: 9\r\n\
                 X-Request-Id: poll-3\r\n\r\n"
                    .into(),
            ),
            (
                Response::text(200, big.clone()),
                format!(
                    "HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\n\
                     Content-Length: 1048576\r\nConnection: close\r\n\r\n{big}"
                ),
            ),
        ];
        for (response, expected) in cases {
            let mut out = CountingWriter::default();
            response.write_to(&mut out).unwrap();
            assert_eq!(out.writes, 1, "status {}", response.status);
            assert!(
                out.bytes == expected.as_bytes(),
                "status {}: {:?}",
                response.status,
                String::from_utf8_lossy(&out.bytes[..out.bytes.len().min(300)])
            );
        }
    }

    #[test]
    fn error_response_is_json() {
        let resp = Response::error(400, "nope");
        assert_eq!(resp.content_type, "application/json");
        assert_eq!(resp.body, b"{\"error\":\"nope\"}");
    }
}
