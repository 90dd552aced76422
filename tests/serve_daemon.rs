//! End-to-end daemon test: boot `viralcast-serve` on an ephemeral port
//! with a real inferred model and the real incremental-update pipeline
//! as its trainer, then drive the full serving loop over HTTP —
//! health, hazard, predict, ingest, hot swap, metrics, shutdown — plus
//! the request-tracing contract: every response carries an
//! `X-Request-Id`, and each request lands as one line in the JSONL
//! access log under that same ID.

use std::time::{Duration, Instant};
use viralnews::viralcast::prelude::*;
use viralnews::viralcast::serve::{self, client};

/// A small world plus embeddings inferred from its training half.
fn trained_world(seed: u64) -> (SbmExperiment, Embeddings) {
    let experiment = SbmExperiment::build(
        &SbmExperimentConfig {
            sbm: SbmConfig {
                nodes: 60,
                community_size: 20,
                intra_prob: 0.4,
                inter_prob: 0.003,
            },
            cascades: 120,
            planted: PlantedConfig::local(),
            ..SbmExperimentConfig::default()
        },
        seed,
    );
    let outcome = infer_embeddings(
        experiment.train(),
        &InferOptions {
            topics: 4,
            ..InferOptions::default()
        },
    );
    (experiment, outcome.embeddings)
}

/// The backend's own incremental update as the daemon's trainer.
fn pipeline_retrain() -> serve::RetrainFn {
    Box::new(|current, fresh| current.update(fresh))
}

/// Renders cascades as a `/v1/ingest` request body.
fn ingest_body(cascades: &[viralnews::viralcast::propagation::Cascade]) -> String {
    let lists: Vec<String> = cascades
        .iter()
        .map(|c| {
            let events: Vec<String> = c
                .infections()
                .iter()
                .map(|i| format!(r#"{{"node":{},"time":{}}}"#, i.node.0, i.time))
                .collect();
            format!("[{}]", events.join(","))
        })
        .collect();
    format!(r#"{{"cascades":[{}]}}"#, lists.join(","))
}

/// Value of a bare `name value` line in Prometheus text output.
fn metric_value(metrics: &str, name: &str) -> Option<f64> {
    metrics
        .lines()
        .find(|line| line.starts_with(&format!("{name} ")))
        .and_then(|line| line.split(' ').nth(1))
        .and_then(|v| v.parse().ok())
}

#[test]
fn daemon_serves_hot_swaps_and_shuts_down() {
    let (experiment, embeddings) = trained_world(11);
    let handle = serve::start(
        std::sync::Arc::new(EmbeddingBackend::new(embeddings)),
        pipeline_retrain(),
        serve::ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            trainer: serve::TrainerConfig {
                interval: Duration::from_millis(50),
                min_batch: 1,
            },
            ..serve::ServeConfig::default()
        },
    )
    .expect("daemon boots on an ephemeral port");
    let addr = handle.local_addr();

    // Health: the boot snapshot is version 1.
    let health = client::request(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"status\":\"ok\""), "{}", health.body);
    assert!(
        health.body.contains("\"snapshot_version\":1"),
        "{}",
        health.body
    );
    assert!(health.body.contains("\"nodes\":60"), "{}", health.body);

    // Hazard: pairwise rates plus survival for a given Δt.
    let hazard = client::request(
        &addr,
        "POST",
        "/v1/hazard",
        Some(r#"{"pairs":[[0,1],[5,40]],"dt":0.5}"#),
    )
    .unwrap();
    assert_eq!(hazard.status, 200, "{}", hazard.body);
    assert!(hazard.body.contains("\"rate\":"), "{}", hazard.body);
    assert!(hazard.body.contains("\"survival\":"), "{}", hazard.body);

    // Predict: next-adopter ranking against snapshot 1.
    let predict_body = r#"{"cascade":[{"node":0,"time":0.0},{"node":1,"time":0.3}],"top":5}"#;
    let predict = client::request(&addr, "POST", "/v1/predict", Some(predict_body)).unwrap();
    assert_eq!(predict.status, 200, "{}", predict.body);
    assert!(
        predict.body.contains("\"snapshot_version\":1"),
        "{}",
        predict.body
    );
    assert!(predict.body.contains("\"candidates\":"), "{}", predict.body);

    // Metrics baseline (for the monotonicity check below).
    let before = client::request(&addr, "GET", "/metrics", None).unwrap();
    assert_eq!(before.status, 200);
    let requests_before =
        metric_value(&before.body, "serve_http_requests").expect("request counter exposed");
    assert_eq!(
        metric_value(&before.body, "serve_snapshot_version"),
        Some(1.0)
    );

    // Ingest two held-out cascades; the trainer must retrain and
    // publish snapshot 2 while predicts keep flowing.
    let ingest = client::request(
        &addr,
        "POST",
        "/v1/ingest",
        Some(&ingest_body(&experiment.test().cascades()[..2])),
    )
    .unwrap();
    assert_eq!(ingest.status, 200, "{}", ingest.body);
    assert!(ingest.body.contains("\"accepted\":2"), "{}", ingest.body);

    let snapshots = handle.snapshots();
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut swapped_version = None;
    while Instant::now() < deadline {
        // Concurrent reads never block on the retrain and never see a
        // torn model: every response is well-formed and carries the
        // version it was computed from.
        let p = client::request(&addr, "POST", "/v1/predict", Some(predict_body)).unwrap();
        assert_eq!(p.status, 200, "{}", p.body);
        assert!(p.body.contains("\"snapshot_version\":"), "{}", p.body);
        if snapshots.version() >= 2 {
            swapped_version = Some(snapshots.version());
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let swapped_version = swapped_version.expect("trainer never published a new snapshot");

    // New requests observe the published version.
    let p = client::request(&addr, "POST", "/v1/predict", Some(predict_body)).unwrap();
    assert!(
        p.body
            .contains(&format!("\"snapshot_version\":{swapped_version}")),
        "{}",
        p.body
    );

    // Influencers come from the swapped model too.
    let inf = client::request(&addr, "GET", "/v1/influencers?top=3", None).unwrap();
    assert_eq!(inf.status, 200, "{}", inf.body);
    assert!(inf.body.contains("\"influencers\":"), "{}", inf.body);

    // Metrics moved monotonically and track the swap.
    let after = client::request(&addr, "GET", "/metrics", None).unwrap();
    let requests_after =
        metric_value(&after.body, "serve_http_requests").expect("request counter exposed");
    assert!(
        requests_after > requests_before,
        "request counter did not advance ({requests_before} → {requests_after})"
    );
    assert_eq!(
        metric_value(&after.body, "serve_snapshot_version"),
        Some(swapped_version as f64)
    );
    assert!(
        metric_value(&after.body, "serve_retrain_runs").unwrap_or(0.0) >= 1.0,
        "{}",
        after.body
    );
    // Latency histograms are exposed per endpoint.
    assert!(
        after
            .body
            .contains("serve_http_latency_ms_v1_predict_bucket{le=\"+Inf\"}"),
        "{}",
        after.body
    );

    // Bad requests surface as HTTP errors, not hangs.
    let bad = client::request(&addr, "POST", "/v1/hazard", Some("{broken")).unwrap();
    assert_eq!(bad.status, 400);
    let missing = client::request(&addr, "GET", "/no-such-endpoint", None).unwrap();
    assert_eq!(missing.status, 404);

    handle.shutdown();
    // The port is released after a clean shutdown.
    assert!(std::net::TcpListener::bind(addr).is_ok());
}

#[test]
fn requests_carry_trace_ids_into_the_access_log() {
    let dir = std::env::temp_dir().join(format!("viralcast-access-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let log_path = dir.join("access.jsonl");

    let embeddings = Embeddings::from_matrices(3, 1, vec![0.5, 0.4, 0.3], vec![0.5, 0.5, 0.5]);
    let handle = serve::start(
        std::sync::Arc::new(EmbeddingBackend::new(embeddings)),
        pipeline_retrain(),
        serve::ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            access_log: Some(log_path.clone()),
            ..serve::ServeConfig::default()
        },
    )
    .expect("daemon boots with an access log");
    let addr = handle.local_addr();

    // A caller-supplied X-Request-Id is echoed verbatim…
    let resp = client::request_with_headers(
        &addr,
        "GET",
        "/healthz",
        None,
        &[("X-Request-Id", "trace-e2e-1")],
    )
    .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-request-id"), Some("trace-e2e-1"));
    // …and the widened health body reports build info, uptime, lag and
    // per-endpoint quantiles.
    for needle in [
        "\"build_info\":{\"version\":",
        "\"uptime_seconds\":",
        "\"wal_pending_records\":null",
        "\"ingest_to_publish_ms\":",
        "\"endpoints\":",
    ] {
        assert!(
            resp.body.contains(needle),
            "{needle} missing: {}",
            resp.body
        );
    }

    // Requests without an ID get a generated one.
    let generated = client::request(&addr, "POST", "/v1/hazard", Some(r#"{"pairs":[[0,1]]}"#))
        .unwrap()
        .header("x-request-id")
        .expect("generated trace id")
        .to_string();
    assert!(!generated.is_empty());
    assert_ne!(generated, "trace-e2e-1");

    handle.shutdown();

    // Both requests landed in the access log under their trace IDs.
    let log = std::fs::read_to_string(&log_path).expect("access log written");
    assert!(log.lines().count() >= 2, "{log}");
    for needle in [
        "viralcast-access-log/v1",
        "\"trace_id\":\"trace-e2e-1\"",
        "\"path\":\"/healthz\"",
        "\"path\":\"/v1/hazard\"",
        "\"latency_us\":",
        "\"snapshot_version\":",
    ] {
        assert!(log.contains(needle), "{needle} missing from {log}");
    }
    assert!(
        log.contains(&format!("\"trace_id\":\"{generated}\"")),
        "generated id {generated} missing from {log}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
