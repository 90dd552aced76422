//! End-to-end cluster test against real serve daemons: a 3-shard
//! cluster behind the router must produce byte-identical `/v1/predict`
//! and `/v1/influencers` rankings to a single-box daemon serving the
//! same model, and must degrade to `"partial": true` — never a 5xx —
//! when one shard stops.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use viralcast_cluster::serve::{self, client};
use viralcast_cluster::{start_router, ClusterManifest, RouterConfig, RouterHandle};
use viralcast_embed::Embeddings;

const NODES: usize = 60;
const TOPICS: usize = 4;
const SHARDS: usize = 3;

/// A deterministic, irregular model so rankings have no accidental ties
/// beyond what the comparator must already break.
fn model() -> Embeddings {
    let mut a = Vec::with_capacity(NODES * TOPICS);
    let mut b = Vec::with_capacity(NODES * TOPICS);
    for v in 0..NODES {
        for t in 0..TOPICS {
            a.push(((v * 31 + t * 17) % 23) as f64 * 0.05 + 0.01);
            b.push(((v * 13 + t * 7) % 19) as f64 * 0.04 + 0.01);
        }
    }
    Embeddings::from_matrices(NODES, TOPICS, a, b)
}

fn start_daemon(shard: Option<serve::RowBlock>) -> serve::ServerHandle {
    let retrain: serve::RetrainFn = Box::new(|current, _| Ok(std::sync::Arc::clone(current)));
    let config = serve::ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        shard,
        ..serve::ServeConfig::default()
    };
    let backend = viralcast_cluster::serve::model::EmbeddingBackend::new(model());
    serve::start(std::sync::Arc::new(backend), retrain, config).expect("daemon boots")
}

/// One daemon per round-robin row block of the model.
fn start_shards() -> Vec<serve::ServerHandle> {
    (0..SHARDS)
        .map(|i| {
            let block = serve::RowBlock::round_robin(NODES, i, SHARDS).expect("row block");
            start_daemon(Some(block))
        })
        .collect()
}

fn start_cluster_router(addrs: &[SocketAddr]) -> RouterHandle {
    let manifest = ClusterManifest::round_robin(addrs).expect("manifest");
    let config = RouterConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        fanout_workers: 4,
        probe_interval: Duration::from_millis(100),
        shard_timeout: Duration::from_secs(2),
        retry: client::RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_millis(5),
            ..client::RetryPolicy::default()
        },
        ..RouterConfig::default()
    };
    start_router(manifest, config).expect("router boots")
}

/// The exact byte span of `"key":[…]` in a JSON body.
fn json_array<'a>(body: &'a str, key: &str) -> &'a str {
    let needle = format!("\"{key}\":[");
    let start = body
        .find(&needle)
        .unwrap_or_else(|| panic!("no {key:?} array in {body}"))
        + needle.len();
    let mut depth = 1usize;
    for (i, ch) in body[start..].char_indices() {
        match ch {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return &body[start..start + i];
                }
            }
            _ => {}
        }
    }
    panic!("unterminated {key:?} array in {body}");
}

#[test]
fn three_shards_match_single_box_and_degrade_partially() {
    let mut shards = start_shards();
    let addrs: Vec<SocketAddr> = shards.iter().map(|h| h.local_addr()).collect();
    let single = start_daemon(None);
    let router = start_cluster_router(&addrs);
    let router_addr = router.local_addr();

    // Scatter-gathered rankings must be byte-identical to the
    // single-box answer: disjoint row blocks plus the shared
    // (score desc, node asc) comparator make the merge exact.
    let predict_body = r#"{"cascade":[{"node":3,"time":0.0},{"node":7,"time":0.4}],"top":10}"#;
    let merged = client::request(&router_addr, "POST", "/v1/predict", Some(predict_body))
        .expect("router predict");
    let solo = client::request(
        &single.local_addr(),
        "POST",
        "/v1/predict",
        Some(predict_body),
    )
    .expect("single-box predict");
    assert_eq!(merged.status, 200, "{}", merged.body);
    assert_eq!(solo.status, 200, "{}", solo.body);
    assert_eq!(
        json_array(&merged.body, "candidates"),
        json_array(&solo.body, "candidates"),
        "merged ranking diverges from the single box\nrouter: {}\nsolo:   {}",
        merged.body,
        solo.body
    );
    assert!(!json_array(&merged.body, "candidates").is_empty());
    assert!(
        merged.body.contains(r#""partial":false"#),
        "{}",
        merged.body
    );
    assert!(
        merged
            .body
            .contains(r#""shards_responding":3,"shards_total":3"#),
        "{}",
        merged.body
    );

    let infl_merged = client::request(&router_addr, "GET", "/v1/influencers?top=7", None)
        .expect("router influencers");
    let infl_solo = client::request(&single.local_addr(), "GET", "/v1/influencers?top=7", None)
        .expect("single-box influencers");
    assert_eq!(infl_merged.status, 200, "{}", infl_merged.body);
    assert_eq!(
        json_array(&infl_merged.body, "influencers"),
        json_array(&infl_solo.body, "influencers"),
        "router: {}\nsolo:   {}",
        infl_merged.body,
        infl_solo.body
    );

    // Ingest routes to the seed site's owner and acks through.
    let ingest = client::request(
        &router_addr,
        "POST",
        "/v1/ingest",
        Some(r#"{"cascades":[[{"node":1,"time":0.0},{"node":2,"time":1.0}]]}"#),
    )
    .expect("router ingest");
    assert_eq!(ingest.status, 200, "{}", ingest.body);

    // Stop one shard: the scatter must degrade to a partial 200, and
    // the surviving rows must still come back in order.
    shards.pop().expect("three shards").shutdown();
    let degraded = client::request(&router_addr, "POST", "/v1/predict", Some(predict_body))
        .expect("degraded predict");
    assert_eq!(degraded.status, 200, "{}", degraded.body);
    assert!(
        degraded.body.contains(r#""partial":true"#),
        "{}",
        degraded.body
    );
    assert!(
        degraded
            .body
            .contains(r#""shards_responding":2,"shards_total":3"#),
        "{}",
        degraded.body
    );
    let survivors = json_array(&degraded.body, "candidates").to_string();
    // With a shard's rows gone, deeper rows may enter the top-10, so
    // compare against the single box's unabridged ranking.
    let full_body = r#"{"cascade":[{"node":3,"time":0.0},{"node":7,"time":0.4}],"top":60}"#;
    let solo_full = client::request(&single.local_addr(), "POST", "/v1/predict", Some(full_body))
        .expect("full single-box predict");
    let full = json_array(&solo_full.body, "candidates");
    // Every survivor entry is one the full ranking also contains.
    for entry in survivors.split("},{").map(|e| e.trim_matches(['{', '}'])) {
        assert!(full.contains(entry), "{entry} not in {full}");
    }

    router.shutdown();
    for shard in shards {
        shard.shutdown();
    }
    single.shutdown();
}

/// A routed predict is two hops (client → router, router → each shard),
/// so a front door that polls for connections costs it at least one
/// 10 ms poll per hop; a door that parks in `accept()` answers in well
/// under a millisecond on loopback.
#[test]
fn a_routed_predict_does_not_wait_out_an_accept_poll() {
    let shards = start_shards();
    let addrs: Vec<SocketAddr> = shards.iter().map(|h| h.local_addr()).collect();
    let router = start_cluster_router(&addrs);
    let router_addr = router.local_addr();

    let body = r#"{"cascade":[{"node":3,"time":0.0},{"node":7,"time":0.4}],"top":10}"#;
    let mut latencies: Vec<Duration> = (0..50)
        .map(|_| {
            let started = Instant::now();
            let reply = client::request(&router_addr, "POST", "/v1/predict", Some(body))
                .expect("router predict");
            let took = started.elapsed();
            assert_eq!(reply.status, 200, "{}", reply.body);
            assert!(reply.body.contains(r#""partial":false"#), "{}", reply.body);
            took
        })
        .collect();
    latencies.sort();
    let median = latencies[latencies.len() / 2];
    assert!(
        median < Duration::from_millis(5),
        "median routed predict took {median:?} (fastest {:?}, slowest {:?})",
        latencies[0],
        latencies[latencies.len() - 1]
    );

    router.shutdown();
    for shard in shards {
        shard.shutdown();
    }
}
