//! The daemon, the router and the tests' canned shards listen through
//! the same front door, so the same hostile bytes must get the same
//! answer from each: status line, headers and body, byte for byte, the
//! trace ID aside.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use viralcast_cluster::serve::{self, HttpLimits};
use viralcast_cluster::{start_router, ClusterManifest, RouterConfig};
use viralcast_embed::Embeddings;

/// Small enough that a test request can exceed either bound.
const LIMITS: HttpLimits = HttpLimits {
    max_head_bytes: 256,
    max_body_bytes: 1024,
};

/// One worker, so the queue behind it holds `1 * 4` connections.
const WORKERS: usize = 1;

fn start_daemon() -> serve::ServerHandle {
    let model = Embeddings::from_matrices(3, 1, vec![1.0, 0.5, 0.0], vec![1.0, 1.0, 1.0]);
    let config = serve::ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        limits: LIMITS,
        ..serve::ServeConfig::default()
    };
    serve::start(
        Arc::new(serve::model::EmbeddingBackend::new(model)),
        Box::new(|current, _| Ok(Arc::clone(current))),
        config,
    )
    .expect("daemon boots")
}

/// Sends `wire` verbatim and returns the whole response, with the value
/// of `X-Request-Id` (which must be there) replaced by `<id>`.
fn exchange(addr: SocketAddr, wire: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(wire).unwrap();
    read_masked(&mut stream)
}

fn read_masked(stream: &mut TcpStream) -> String {
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let start = raw
        .find("X-Request-Id: ")
        .unwrap_or_else(|| panic!("no X-Request-Id in {raw:?}"))
        + "X-Request-Id: ".len();
    let end = start + raw[start..].find("\r\n").unwrap();
    assert!(end > start, "empty X-Request-Id in {raw:?}");
    format!("{}<id>{}", &raw[..start], &raw[end..])
}

/// Opens eight idle connections and returns the first 503 any of them
/// gets. The door holds at most five (its worker waits out the read
/// timeout on one, four queue behind it), so the acceptor sheds at
/// least three — usually the last to connect, but loopback does not
/// promise arrival order, hence the sweep.
fn saturate(addr: SocketAddr) -> String {
    let mut idle: Vec<TcpStream> = (0..8).map(|_| TcpStream::connect(addr).unwrap()).collect();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        for stream in idle.iter_mut().rev() {
            stream
                .set_read_timeout(Some(Duration::from_millis(20)))
                .unwrap();
            if stream.peek(&mut [0u8; 1]).is_ok_and(|n| n > 0) {
                return read_masked(stream);
            }
        }
        assert!(Instant::now() < deadline, "no connection was shed");
    }
}

#[test]
fn daemon_and_router_answer_hostile_input_identically() {
    let daemon = start_daemon();
    let router = start_router(
        ClusterManifest::round_robin(&[daemon.local_addr()]).unwrap(),
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            workers: WORKERS,
            limits: LIMITS,
            ..RouterConfig::default()
        },
    )
    .expect("router boots");
    // What the tests' fake shards are made of: the listener with no
    // handler table behind it.
    let canned = serve::listen(
        serve::ListenerConfig {
            workers: WORKERS,
            limits: LIMITS,
            ..serve::ListenerConfig::new("127.0.0.1:0", "canned")
        },
        |_, _| serve::Response::text(200, "canned"),
    )
    .expect("canned door boots");
    let (daemon_addr, router_addr) = (daemon.local_addr(), router.local_addr());

    let long_header = format!(
        "GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "a".repeat(2 * LIMITS.max_head_bytes)
    );
    // (name, request bytes, status line, refused by the listener itself)
    let cases: [(&str, &[u8], &str, bool); 5] = [
        ("garbage line", b"BOGUS\r\n\r\n", "HTTP/1.1 400 ", true),
        ("long head", long_header.as_bytes(), "HTTP/1.1 431 ", true),
        (
            "body over the limit",
            b"POST /v1/predict HTTP/1.1\r\nContent-Length: 4096\r\n\r\n",
            "HTTP/1.1 413 ",
            true,
        ),
        (
            "no such path",
            b"GET /nope HTTP/1.1\r\n\r\n",
            "HTTP/1.1 404 ",
            false,
        ),
        (
            "wrong method",
            b"DELETE /healthz HTTP/1.1\r\n\r\n",
            "HTTP/1.1 405 ",
            false,
        ),
    ];
    for (name, wire, status_line, by_listener) in cases {
        let from_daemon = exchange(daemon_addr, wire);
        assert!(
            from_daemon.starts_with(status_line),
            "{name}: {from_daemon}"
        );
        assert_eq!(from_daemon, exchange(router_addr, wire), "{name}");
        // What the listener refuses before any handler runs, it refuses
        // the same way whatever handler is behind it.
        if by_listener {
            assert_eq!(from_daemon, exchange(canned.local_addr(), wire), "{name}");
        }
    }

    let from_daemon = saturate(daemon_addr);
    assert!(from_daemon.starts_with("HTTP/1.1 503 "), "{from_daemon}");
    assert!(from_daemon.contains("server overloaded"), "{from_daemon}");
    assert_eq!(from_daemon, saturate(canned.local_addr()));
    // The shed names the door that shed it; nothing else differs.
    assert_eq!(
        from_daemon,
        saturate(router_addr).replace("router overloaded", "server overloaded")
    );

    canned.shutdown();
    router.shutdown();
    daemon.shutdown();
}
