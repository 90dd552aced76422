//! Request-scoped trace IDs.
//!
//! Every HTTP request gets exactly one trace ID: the client's
//! `X-Request-Id` header when it is well-formed, a generated one
//! otherwise. The ID rides on the response (`X-Request-Id` header), the
//! access log, and — for ingests — the trainer's publish log line, so a
//! cascade's acked-to-served latency is attributable to one ID across
//! the whole pipeline.

use crate::http::Request;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Longest accepted client-supplied trace ID.
pub const MAX_TRACE_ID_LEN: usize = 128;

/// The trace ID for one request: the client's `X-Request-Id` when
/// acceptable (see [`is_valid_trace_id`]), else a fresh generated ID.
pub fn trace_id_for(req: &Request) -> String {
    match req.header("x-request-id") {
        Some(id) if is_valid_trace_id(id) => id.to_string(),
        _ => generate_trace_id(),
    }
}

/// Whether a client-supplied ID is safe to echo into headers and logs:
/// non-empty, at most [`MAX_TRACE_ID_LEN`] bytes, and made of printable
/// ASCII excluding the characters that would need escaping in an HTTP
/// header or a JSON string (`"`, `\`, and whitespace).
fn is_valid_trace_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= MAX_TRACE_ID_LEN
        && id
            .bytes()
            .all(|b| (0x21..=0x7e).contains(&b) && b != b'"' && b != b'\\')
}

/// A process-unique trace ID: unix microseconds, pid, and a process-wide
/// sequence number, hex-encoded. Not globally unique, but unique enough
/// to join one daemon's access log against its trainer log.
pub fn generate_trace_id() -> String {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let micros = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    format!("{micros:x}-{:x}-{seq:x}", std::process::id())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req_with_header(value: Option<&str>) -> Request {
        Request {
            method: "GET".into(),
            path: "/healthz".into(),
            query: Vec::new(),
            headers: value
                .map(|v| vec![("x-request-id".to_string(), v.to_string())])
                .unwrap_or_default(),
            body: Vec::new(),
        }
    }

    #[test]
    fn accepts_a_well_formed_client_id() {
        let req = req_with_header(Some("load-test.worker-3:42"));
        assert_eq!(trace_id_for(&req), "load-test.worker-3:42");
    }

    #[test]
    fn rejects_ids_that_cannot_be_echoed() {
        for bad in [
            "",
            "has space",
            "quote\"inside",
            "back\\slash",
            "new\nline",
            "non-ascii-é",
            &"x".repeat(MAX_TRACE_ID_LEN + 1),
        ] {
            assert!(!is_valid_trace_id(bad), "accepted {bad:?}");
            let generated = trace_id_for(&req_with_header(Some(bad)));
            assert_ne!(generated, bad);
            assert!(is_valid_trace_id(&generated));
        }
    }

    #[test]
    fn generated_ids_are_distinct_and_valid() {
        let a = generate_trace_id();
        let b = generate_trace_id();
        assert_ne!(a, b);
        assert!(is_valid_trace_id(&a));
        assert!(is_valid_trace_id(&b));
        // No header at all also generates.
        assert!(is_valid_trace_id(&trace_id_for(&req_with_header(None))));
    }
}
