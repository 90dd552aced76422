//! Endpoint dispatch: parsed request → response, no sockets involved.

use std::sync::{Arc, Mutex};
use std::time::Instant;
use viralcast_obs::{self as obs, JsonValue};
use viralcast_store::EventStore;

use crate::api;
use crate::http::{Request, Response};
use crate::ingest::IngestBuffer;
use crate::json;
use crate::replica::ReplicaRole;
use crate::snapshot::SnapshotStore;
use viralcast_model::RowBlock;

/// When `/healthz` flips from `ok` to `degraded`: the daemon is still
/// serving (the endpoint stays 200), but it is falling behind in a way
/// an operator or load balancer should see before it becomes an outage.
#[derive(Clone, Copy, Debug)]
pub struct DegradeThresholds {
    /// Degraded once more than this many durable records await training
    /// (`wal_pending_records`). 0 disables the check.
    pub max_wal_pending: u64,
    /// Degraded once the last publish's worst acked-to-served lag
    /// (`ingest_to_publish_ms`) exceeds this. 0 disables the check.
    pub max_ingest_to_publish_ms: f64,
}

impl Default for DegradeThresholds {
    fn default() -> Self {
        DegradeThresholds {
            max_wal_pending: 10_000,
            max_ingest_to_publish_ms: 60_000.0,
        }
    }
}

/// Everything a request handler can touch.
pub struct AppState {
    /// The hot-swappable model.
    pub snapshots: Arc<SnapshotStore>,
    /// The trainer's input buffer.
    pub ingest: Arc<IngestBuffer>,
    /// The durable write-ahead log, when the daemon runs with a data
    /// directory. Ingests append here (and commit under the fsync
    /// policy) **before** acking, so a crash after the response cannot
    /// lose the batch.
    pub store: Option<Arc<Mutex<EventStore>>>,
    /// `retry_after_ms` hint returned with load-shed (429) responses.
    pub shed_retry_after_ms: u64,
    /// Daemon start time (for `/healthz` and `/metrics` uptime).
    pub started: Instant,
    /// When `/healthz` reports `degraded` instead of `ok`.
    pub degrade: DegradeThresholds,
    /// Candidate rows this daemon owns when serving as one shard of a
    /// cluster; `None` serves the whole row space (single-box mode).
    pub shard: Option<Arc<RowBlock>>,
    /// Set when this daemon is a read-only follower replicating from a
    /// leader: ingest is refused with a 409 redirect, and `/healthz`
    /// and `/metrics` report replication lag.
    pub replica: Option<ReplicaRole>,
}

/// Crate version reported as `build_info.version`.
pub const BUILD_VERSION: &str = env!("CARGO_PKG_VERSION");

/// Git-less build tag reported as `build_info.build`: set
/// `VIRALCAST_BUILD_TAG` at compile time (CI does), `dev` otherwise.
pub const BUILD_TAG: &str = match option_env!("VIRALCAST_BUILD_TAG") {
    Some(tag) => tag,
    None => "dev",
};

/// A short label for per-endpoint metrics (`other` for unmatched paths).
pub fn endpoint_label(path: &str) -> &'static str {
    match path {
        "/healthz" => "healthz",
        "/metrics" => "metrics",
        "/v1/hazard" => "v1_hazard",
        "/v1/predict" => "v1_predict",
        "/v1/influencers" => "v1_influencers",
        "/v1/ingest" => "v1_ingest",
        "/v1/replica/snapshot" => "v1_replica_snapshot",
        _ => "other",
    }
}

/// Dispatches one request. `trace_id` is the request's resolved trace
/// ID (accepted or generated by the worker); the ingest path carries it
/// into the trainer's queue.
pub fn route(req: &Request, state: &AppState, trace_id: &str) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => healthz(state),
        ("GET", "/metrics") => metrics(state),
        ("POST", "/v1/hazard") => with_body(req, |body| {
            let parsed = api::parse_hazard(body).map_err(bad_request)?;
            api::hazard_json(&state.snapshots.current(), &parsed).map_err(unprocessable)
        }),
        ("POST", "/v1/predict") => with_body(req, |body| {
            let parsed = api::parse_predict(body).map_err(bad_request)?;
            api::predict_json(&state.snapshots.current(), &parsed, state.shard.as_deref())
                .map_err(unprocessable)
        }),
        ("GET", "/v1/influencers") => influencers(req, state),
        ("POST", "/v1/ingest") => with_body(req, |body| ingest(body, state, trace_id)),
        ("GET", "/v1/replica/snapshot") => replica_snapshot(req, state),
        (
            _,
            "/healthz"
            | "/metrics"
            | "/v1/hazard"
            | "/v1/predict"
            | "/v1/influencers"
            | "/v1/ingest"
            | "/v1/replica/snapshot",
        ) => Response::error(405, format!("method {} not allowed", req.method)),
        _ => Response::error(404, format!("no such endpoint {}", req.path)),
    }
}

fn healthz(state: &AppState) -> Response {
    let snap = state.snapshots.current();
    let wal_pending = state.store.as_ref().map(|store| {
        store
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pending_records()
    });
    let lag_ms = obs::metrics().gauge("serve.lag.ingest_to_publish_ms").get();
    // Degradation is a report, not an outage: the endpoint stays 200 so
    // liveness probes keep passing while readiness dashboards see the
    // reasons.
    let mut reasons: Vec<String> = Vec::new();
    if state.degrade.max_wal_pending > 0 {
        if let Some(pending) = wal_pending {
            if pending > state.degrade.max_wal_pending {
                reasons.push(format!(
                    "wal_pending_records {pending} > {}",
                    state.degrade.max_wal_pending
                ));
            }
        }
    }
    if state.degrade.max_ingest_to_publish_ms > 0.0
        && lag_ms > state.degrade.max_ingest_to_publish_ms
    {
        reasons.push(format!(
            "ingest_to_publish_ms {lag_ms:.0} > {:.0}",
            state.degrade.max_ingest_to_publish_ms
        ));
    }
    let status = if reasons.is_empty() { "ok" } else { "degraded" };
    Response::json(
        200,
        &JsonValue::obj(vec![
            ("status", JsonValue::from(status)),
            (
                "degraded_reasons",
                JsonValue::Arr(reasons.into_iter().map(JsonValue::from).collect()),
            ),
            (
                "build_info",
                JsonValue::obj(vec![
                    ("version", JsonValue::from(BUILD_VERSION)),
                    ("build", JsonValue::from(BUILD_TAG)),
                ]),
            ),
            ("backend", JsonValue::from(snap.model.backend_id())),
            ("snapshot_version", JsonValue::from(snap.version)),
            (
                "snapshot_published_unix",
                JsonValue::from(snap.published_unix),
            ),
            ("nodes", JsonValue::from(snap.model.node_count())),
            ("topics", JsonValue::from(snap.model.topic_count())),
            (
                "uptime_seconds",
                JsonValue::from(state.started.elapsed().as_secs_f64()),
            ),
            ("ingest_buffered", JsonValue::from(state.ingest.len())),
            (
                "wal_pending_records",
                wal_pending.map_or(JsonValue::Null, JsonValue::from),
            ),
            ("ingest_to_publish_ms", JsonValue::from(lag_ms)),
            (
                "shard",
                match &state.shard {
                    Some(block) => JsonValue::obj(vec![
                        ("index", JsonValue::from(block.shard())),
                        ("total", JsonValue::from(block.total())),
                        ("owned_nodes", JsonValue::from(block.owned_count())),
                    ]),
                    None => JsonValue::Null,
                },
            ),
            (
                "replica",
                match &state.replica {
                    Some(role) => JsonValue::obj(vec![
                        ("leader", JsonValue::from(role.leader.to_string())),
                        (
                            "replica_lag_versions",
                            JsonValue::from(role.status.lag_versions()),
                        ),
                        ("replica_lag_ms", JsonValue::from(role.status.lag_ms())),
                    ]),
                    None => JsonValue::Null,
                },
            ),
            ("endpoints", endpoint_quantiles()),
        ]),
    )
}

/// Per-endpoint request counts and interpolated latency quantiles, from
/// the `serve.http.latency_ms.*` histograms registered so far.
fn endpoint_quantiles() -> JsonValue {
    obs::metrics()
        .snapshot()
        .quantile_table("serve.http.latency_ms.")
}

fn metrics(state: &AppState) -> Response {
    obs::metrics()
        .gauge("serve.uptime_seconds")
        .set(state.started.elapsed().as_secs_f64());
    obs::process::record_memory();
    if let Some(role) = &state.replica {
        obs::metrics()
            .gauge("serve.replica_lag_versions")
            .set(role.status.lag_versions() as f64);
        obs::metrics()
            .gauge("serve.replica_lag_ms")
            .set(role.status.lag_ms());
    }
    let mut text = format!(
        "# TYPE viralcast_build_info gauge\nviralcast_build_info{{version=\"{}\",build=\"{}\"}} 1\n",
        obs::prometheus_label_value(BUILD_VERSION),
        obs::prometheus_label_value(BUILD_TAG),
    );
    text.push_str(&format!(
        "# TYPE viralcast_backend_info gauge\nviralcast_backend_info{{backend=\"{}\"}} 1\n",
        obs::prometheus_label_value(state.snapshots.current().model.backend_id()),
    ));
    text.push_str(&obs::metrics().snapshot().render_prometheus());
    Response::text(200, text)
}

fn influencers(req: &Request, state: &AppState) -> Response {
    let top = match parse_query_usize(req, "top", 10) {
        Ok(v) => v,
        Err(resp) => return *resp,
    };
    let topic = match req.query_param("topic") {
        None => None,
        Some(raw) => match raw.parse::<usize>() {
            Ok(t) => Some(t),
            Err(_) => return Response::error(400, format!("malformed topic {raw:?}")),
        },
    };
    match api::influencers_json(
        &state.snapshots.current(),
        topic,
        top,
        state.shard.as_deref(),
    ) {
        Ok(body) => Response::json(200, &body),
        Err(message) => Response::error(422, message),
    }
}

/// Version header on `/v1/replica/snapshot` responses (200 and 304).
pub const REPLICA_VERSION_HEADER: &str = "X-Replica-Version";
/// Backend-id header on `/v1/replica/snapshot` responses.
pub const REPLICA_BACKEND_HEADER: &str = "X-Replica-Backend";

/// The leader-side replication endpoint: streams the current snapshot
/// in the VCCKPT01 checkpoint framing, tagged with its version and
/// backend id. `?have=N` makes the poll cheap — a follower already at
/// the current version gets an empty 304 instead of the payload.
fn replica_snapshot(req: &Request, state: &AppState) -> Response {
    let snap = state.snapshots.current();
    let have = match req.query_param("have") {
        None => None,
        Some(raw) => match raw.parse::<u64>() {
            Ok(v) => Some(v),
            Err(_) => return Response::error(400, format!("malformed have {raw:?}")),
        },
    };
    if have == Some(snap.version) {
        return Response::text(304, "")
            .with_header(REPLICA_VERSION_HEADER, snap.version.to_string());
    }
    let body = viralcast_store::encode_model(snap.model.as_ref());
    obs::metrics()
        .counter("serve.replica.snapshots_served")
        .incr(1);
    Response {
        status: 200,
        content_type: "application/octet-stream",
        extra_headers: vec![
            (REPLICA_VERSION_HEADER.to_string(), snap.version.to_string()),
            (
                REPLICA_BACKEND_HEADER.to_string(),
                snap.model.backend_id().to_string(),
            ),
        ],
        body,
    }
}

fn ingest(body: &JsonValue, state: &AppState, trace_id: &str) -> Result<JsonValue, Response> {
    // A follower owns no write path: point the producer at the leader
    // instead of accepting a cascade the local (never-training) daemon
    // would silently drop on the floor.
    if let Some(role) = &state.replica {
        obs::metrics()
            .counter("serve.replica.writes_refused")
            .incr(1);
        return Err(Response::json(
            409,
            &JsonValue::obj(vec![
                (
                    "error",
                    JsonValue::from("this daemon is a read-only follower; ingest at the leader"),
                ),
                ("leader", JsonValue::from(role.leader.to_string())),
            ]),
        )
        .with_header("Location", format!("http://{}/v1/ingest", role.leader)));
    }
    let node_count = state.snapshots.current().model.node_count();
    let batch = api::parse_ingest(body, node_count).map_err(bad_request)?;
    let receipt = match &state.store {
        // Durable path: WAL append + buffer push happen atomically
        // under the store lock (the trainer drains under the same
        // lock), so a checkpoint offset can never cover an event that
        // is neither trained nor buffered. Only the cascades the
        // bounded buffer will admit are logged — shed events are
        // refused, not silently persisted.
        Some(store) => {
            let mut guard = store.lock().unwrap_or_else(|e| e.into_inner());
            let room = state
                .ingest
                .capacity()
                .saturating_sub(state.ingest.len())
                .min(batch.cascades.len());
            if room > 0 {
                let next = guard.append_batch(&batch.cascades[..room]).map_err(|e| {
                    obs::metrics().counter("store.wal.errors").incr(1);
                    Response::error(500, format!("write-ahead log append failed: {e}"))
                })?;
                obs::debug(
                    "serve.ingest",
                    &format!(
                        "trace {trace_id}: {room} cascade(s) durable through WAL index {next}"
                    ),
                    &[
                        ("trace_id", JsonValue::from(trace_id)),
                        ("wal_next_index", JsonValue::from(next)),
                    ],
                );
            }
            state.ingest.push_batch(batch.cascades, Some(trace_id))
        }
        None => state.ingest.push_batch(batch.cascades, Some(trace_id)),
    };
    if receipt.dropped > 0 {
        return Err(shed_response(state, &receipt, batch.rejected));
    }
    Ok(JsonValue::obj(vec![
        (
            "snapshot_version",
            JsonValue::from(state.snapshots.version()),
        ),
        ("accepted", JsonValue::from(receipt.accepted)),
        ("rejected", JsonValue::from(batch.rejected)),
        ("dropped", JsonValue::from(receipt.dropped)),
        ("buffered", JsonValue::from(receipt.buffered)),
        (
            "errors",
            JsonValue::Arr(batch.errors.into_iter().map(JsonValue::from).collect()),
        ),
    ]))
}

/// The structured 429 a load-shed ingest gets: what was still admitted,
/// what was shed, and when retrying is worthwhile (after the trainer's
/// next drain, roughly one retrain interval away).
fn shed_response(
    state: &AppState,
    receipt: &crate::ingest::IngestReceipt,
    rejected: usize,
) -> Response {
    obs::metrics()
        .counter("serve.ingest.shed_total")
        .incr(receipt.dropped as u64);
    Response::json(
        429,
        &JsonValue::obj(vec![
            (
                "error",
                JsonValue::from(format!(
                    "ingest buffer full: shed {} of {} cascades",
                    receipt.dropped,
                    receipt.accepted + receipt.dropped
                )),
            ),
            ("retry_after_ms", JsonValue::from(state.shed_retry_after_ms)),
            ("accepted", JsonValue::from(receipt.accepted)),
            ("rejected", JsonValue::from(rejected)),
            ("dropped", JsonValue::from(receipt.dropped)),
            ("buffered", JsonValue::from(receipt.buffered)),
            (
                "snapshot_version",
                JsonValue::from(state.snapshots.version()),
            ),
        ]),
    )
}

/// Decodes a JSON body and runs `handler`, mapping the three failure
/// layers (UTF-8, JSON syntax, handler) onto status codes.
fn with_body(
    req: &Request,
    handler: impl FnOnce(&JsonValue) -> Result<JsonValue, Response>,
) -> Response {
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return Response::error(400, "request body is not valid UTF-8"),
    };
    let body = match json::parse(text) {
        Ok(v) => v,
        Err(e) => return Response::error(400, format!("malformed JSON body: {e}")),
    };
    match handler(&body) {
        Ok(out) => Response::json(200, &out),
        Err(resp) => resp,
    }
}

fn bad_request(message: String) -> Response {
    Response::error(400, message)
}

fn unprocessable(message: String) -> Response {
    Response::error(422, message)
}

fn parse_query_usize(req: &Request, name: &str, default: usize) -> Result<usize, Box<Response>> {
    match req.query_param(name) {
        None => Ok(default),
        Some(raw) => raw.parse::<usize>().map_err(|_| {
            Box::new(Response::error(
                400,
                format!("malformed {name} {raw:?} (expected a non-negative integer)"),
            ))
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viralcast_embed::Embeddings;

    fn state() -> AppState {
        state_with_capacity(4)
    }

    fn state_with_capacity(capacity: usize) -> AppState {
        AppState {
            snapshots: Arc::new(SnapshotStore::new(Arc::new(
                viralcast_model::EmbeddingBackend::new(Embeddings::from_matrices(
                    3,
                    1,
                    vec![1.0, 0.5, 0.0],
                    vec![1.0, 1.0, 1.0],
                )),
            ))),
            ingest: Arc::new(IngestBuffer::new(capacity)),
            store: None,
            shed_retry_after_ms: 1234,
            started: Instant::now(),
            degrade: DegradeThresholds::default(),
            shard: None,
            replica: None,
        }
    }

    fn request(method: &str, path: &str, body: &str) -> Request {
        let (path, query) = match path.split_once('?') {
            Some((p, q)) => (
                p.to_string(),
                q.split('&')
                    .map(|kv| {
                        let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
                        (k.to_string(), v.to_string())
                    })
                    .collect(),
            ),
            None => (path.to_string(), Vec::new()),
        };
        Request {
            method: method.to_string(),
            path,
            query,
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn body_text(resp: &Response) -> String {
        String::from_utf8(resp.body.clone()).unwrap()
    }

    #[test]
    fn healthz_reports_the_model() {
        let resp = route(&request("GET", "/healthz", ""), &state(), "t-test");
        assert_eq!(resp.status, 200);
        let text = body_text(&resp);
        for needle in [
            "\"status\":\"ok\"",
            "\"backend\":\"embed\"",
            "\"snapshot_version\":1",
            "\"nodes\":3",
            "\"topics\":1",
            "\"build_info\":{\"version\":",
            "\"build\":",
            "\"uptime_seconds\":",
            // In-memory daemon: there is no WAL to lag behind.
            "\"wal_pending_records\":null",
            "\"ingest_to_publish_ms\":",
            // Single-box mode: no row block.
            "\"shard\":null",
            "\"endpoints\":",
        ] {
            assert!(text.contains(needle), "{needle} missing from {text}");
        }
    }

    #[test]
    fn healthz_reports_the_shard_block() {
        let mut s = state();
        s.shard = Some(Arc::new(RowBlock::round_robin(3, 0, 2).unwrap()));
        let text = body_text(&route(&request("GET", "/healthz", ""), &s, "t-test"));
        assert!(
            text.contains("\"shard\":{\"index\":0,\"total\":2,\"owned_nodes\":2}"),
            "{text}"
        );
        // And the predict path only scores the owned rows 0 and 2.
        let resp = route(
            &request(
                "POST",
                "/v1/predict",
                r#"{"cascade":[{"node":0,"time":0.0}],"top":5}"#,
            ),
            &s,
            "t-test",
        );
        assert_eq!(resp.status, 200);
        let text = body_text(&resp);
        assert!(text.contains("\"node\":2"), "{text}");
        assert!(!text.contains("\"node\":1"), "{text}");
    }

    #[test]
    fn healthz_surfaces_endpoint_quantiles() {
        // The latency histograms live in the global registry; register
        // one for a label no other test touches.
        let h = obs::metrics().histogram_exponential("serve.http.latency_ms.qtest", 0.25, 2.0, 12);
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.record(v);
        }
        let resp = route(&request("GET", "/healthz", ""), &state(), "t-test");
        let text = body_text(&resp);
        assert!(text.contains("\"qtest\":{\"requests\":"), "{text}");
        for needle in ["\"p50_ms\":", "\"p90_ms\":", "\"p99_ms\":", "\"max_ms\":"] {
            assert!(text.contains(needle), "{needle} missing from {text}");
        }
    }

    #[test]
    fn healthz_degrades_when_wal_pending_crosses_the_threshold() {
        let dir =
            std::env::temp_dir().join(format!("viralcast-router-degrade-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut es, _) = EventStore::open(&dir, viralcast_store::WalOptions::default()).unwrap();
        for i in 0..3u32 {
            es.append_batch(&[viralcast_propagation::Cascade::new(vec![
                viralcast_propagation::Infection::new(i, 0.0),
                viralcast_propagation::Infection::new(i + 10, 1.0),
            ])
            .unwrap()])
                .unwrap();
        }
        let mut s = state();
        s.store = Some(Arc::new(Mutex::new(es)));
        s.degrade = DegradeThresholds {
            max_wal_pending: 2,
            // Disabled: the lag gauge is global and other tests write it.
            max_ingest_to_publish_ms: 0.0,
        };
        let resp = route(&request("GET", "/healthz", ""), &s, "t-test");
        // Degraded is a report, not an outage: still 200.
        assert_eq!(resp.status, 200);
        let text = body_text(&resp);
        assert!(text.contains("\"status\":\"degraded\""), "{text}");
        assert!(text.contains("wal_pending_records 3 > 2"), "{text}");

        // Raising the threshold clears the flag.
        s.degrade.max_wal_pending = 100;
        let text = body_text(&route(&request("GET", "/healthz", ""), &s, "t-test"));
        assert!(text.contains("\"status\":\"ok\""), "{text}");
        assert!(text.contains("\"degraded_reasons\":[]"), "{text}");
        drop(s);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn healthz_degrades_on_publish_lag() {
        // The lag gauge is process-global; use a plausible small value
        // with a tiny threshold so concurrent tests (which assert lag
        // < 60s against the default thresholds) stay unaffected.
        obs::metrics()
            .gauge("serve.lag.ingest_to_publish_ms")
            .set(5.0);
        let mut s = state();
        s.degrade = DegradeThresholds {
            max_wal_pending: 0,
            max_ingest_to_publish_ms: 1.0,
        };
        let text = body_text(&route(&request("GET", "/healthz", ""), &s, "t-test"));
        assert!(text.contains("\"status\":\"degraded\""), "{text}");
        assert!(text.contains("ingest_to_publish_ms 5 > 1"), "{text}");
        obs::metrics()
            .gauge("serve.lag.ingest_to_publish_ms")
            .set(0.0);
    }

    #[test]
    fn metrics_expose_build_info_and_uptime() {
        let resp = route(&request("GET", "/metrics", ""), &state(), "t-test");
        assert_eq!(resp.status, 200);
        let text = body_text(&resp);
        assert!(text.contains("viralcast_build_info{version=\""), "{text}");
        assert!(
            text.contains("viralcast_backend_info{backend=\"embed\"} 1"),
            "{text}"
        );
        assert!(text.contains("serve_uptime_seconds"), "{text}");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn metrics_report_the_process_resident_set() {
        let text = body_text(&route(&request("GET", "/metrics", ""), &state(), "t-test"));
        let gauge = |name: &str| -> f64 {
            text.lines()
                .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("no {name} sample in {text}"))
        };
        let resident = gauge("process_resident_bytes");
        let peak = gauge("process_peak_resident_bytes");
        assert!(resident > 0.0, "{text}");
        assert!(peak >= resident, "peak {peak} below resident {resident}");
    }

    #[test]
    fn replica_snapshot_streams_a_decodable_checkpoint() {
        let s = state();
        let resp = route(&request("GET", "/v1/replica/snapshot", ""), &s, "t-test");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_type, "application/octet-stream");
        let version = resp
            .extra_headers
            .iter()
            .find(|(name, _)| name == REPLICA_VERSION_HEADER)
            .map(|(_, value)| value.clone())
            .expect("version header");
        assert_eq!(version, "1");
        let backend = resp
            .extra_headers
            .iter()
            .find(|(name, _)| name == REPLICA_BACKEND_HEADER)
            .map(|(_, value)| value.clone())
            .expect("backend header");
        assert_eq!(backend, "embed");
        let model = viralcast_store::decode_checkpoint(&resp.body, &backend).unwrap();
        assert_eq!(model.node_count(), 3);
        assert_eq!(model.topic_count(), 1);

        // A caught-up poll is a cheap 304, not a payload.
        let resp = route(
            &request("GET", "/v1/replica/snapshot?have=1", ""),
            &s,
            "t-test",
        );
        assert_eq!(resp.status, 304);
        assert!(resp.body.is_empty());
        // A stale poll still gets the full snapshot.
        let resp = route(
            &request("GET", "/v1/replica/snapshot?have=0", ""),
            &s,
            "t-test",
        );
        assert_eq!(resp.status, 200);
        assert!(!resp.body.is_empty());
        // Garbage versions are refused, not misread.
        let resp = route(
            &request("GET", "/v1/replica/snapshot?have=x", ""),
            &s,
            "t-test",
        );
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn follower_refuses_ingest_with_a_leader_redirect() {
        let mut s = state();
        let leader: std::net::SocketAddr = "127.0.0.1:7001".parse().unwrap();
        s.replica = Some(ReplicaRole::new(leader, 1));
        let resp = route(
            &request(
                "POST",
                "/v1/ingest",
                r#"{"cascades":[[{"node":0,"time":0.0},{"node":1,"time":1.0}]]}"#,
            ),
            &s,
            "t-test",
        );
        assert_eq!(resp.status, 409);
        let text = body_text(&resp);
        assert!(text.contains("read-only follower"), "{text}");
        assert!(text.contains("\"leader\":\"127.0.0.1:7001\""), "{text}");
        assert!(
            resp.extra_headers
                .iter()
                .any(|(name, value)| name == "Location"
                    && value == "http://127.0.0.1:7001/v1/ingest"),
            "missing Location header"
        );
        assert_eq!(s.ingest.len(), 0, "follower must not buffer the cascade");

        // Reads still work, and /healthz reports the follower's lag.
        s.replica.as_ref().unwrap().status.observe_leader(3);
        let health = body_text(&route(&request("GET", "/healthz", ""), &s, "t-test"));
        for needle in [
            "\"replica\":{\"leader\":\"127.0.0.1:7001\"",
            "\"replica_lag_versions\":2",
            "\"replica_lag_ms\":",
        ] {
            assert!(health.contains(needle), "{needle} missing from {health}");
        }
        let metrics = body_text(&route(&request("GET", "/metrics", ""), &s, "t-test"));
        assert!(
            metrics.contains("serve_replica_lag_versions 2"),
            "{metrics}"
        );
        assert!(metrics.contains("serve_replica_lag_ms"), "{metrics}");
    }

    #[test]
    fn unknown_paths_404_known_paths_405() {
        assert_eq!(
            route(&request("GET", "/nope", ""), &state(), "t-test").status,
            404
        );
        assert_eq!(
            route(&request("DELETE", "/healthz", ""), &state(), "t-test").status,
            405
        );
        assert_eq!(
            route(&request("GET", "/v1/hazard", ""), &state(), "t-test").status,
            405
        );
    }

    #[test]
    fn malformed_json_bodies_400() {
        let resp = route(
            &request("POST", "/v1/hazard", "{not json"),
            &state(),
            "t-test",
        );
        assert_eq!(resp.status, 400);
        assert!(body_text(&resp).contains("malformed JSON body"));
    }

    #[test]
    fn out_of_range_nodes_422() {
        let resp = route(
            &request("POST", "/v1/hazard", r#"{"pairs":[[0,77]]}"#),
            &state(),
            "t-test",
        );
        assert_eq!(resp.status, 422);
    }

    #[test]
    fn ingest_reports_receipt_fields() {
        let s = state();
        let resp = route(
            &request(
                "POST",
                "/v1/ingest",
                r#"{"cascades":[[{"node":0,"time":0.0},{"node":1,"time":1.0}],[{"node":8,"time":0.0}]]}"#,
            ),
            &s,
            "t-test",
        );
        assert_eq!(resp.status, 200);
        let text = body_text(&resp);
        for needle in ["\"accepted\":1", "\"rejected\":1", "\"buffered\":1"] {
            assert!(text.contains(needle), "{needle} missing from {text}");
        }
        assert_eq!(s.ingest.len(), 1);
    }

    #[test]
    fn overflowing_ingest_sheds_with_a_structured_429() {
        let s = state_with_capacity(1);
        let body = r#"{"cascades":[
            [{"node":0,"time":0.0},{"node":1,"time":1.0}],
            [{"node":1,"time":0.0},{"node":2,"time":1.0}]
        ]}"#;
        let resp = route(&request("POST", "/v1/ingest", body), &s, "t-test");
        assert_eq!(resp.status, 429);
        let text = body_text(&resp);
        for needle in [
            "\"error\":\"ingest buffer full: shed 1 of 2 cascades\"",
            "\"retry_after_ms\":1234",
            "\"accepted\":1",
            "\"dropped\":1",
        ] {
            assert!(text.contains(needle), "{needle} missing from {text}");
        }
        // The admitted cascade stays buffered; the shed counter is
        // exported through the Prometheus rendering of /metrics.
        assert_eq!(s.ingest.len(), 1);
        let metrics = obs::metrics().snapshot().render_prometheus();
        assert!(
            metrics.contains("serve_ingest_shed_total"),
            "shed counter missing from {metrics}"
        );
    }

    #[test]
    fn durable_ingest_appends_to_the_wal_before_acking() {
        let dir = std::env::temp_dir().join(format!("viralcast-router-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (es, _) = EventStore::open(&dir, viralcast_store::WalOptions::default()).unwrap();
        let mut s = state_with_capacity(1);
        s.store = Some(Arc::new(Mutex::new(es)));
        // Two cascades, room for one: the admitted one is logged, the
        // shed one is neither acked nor persisted.
        let body = r#"{"cascades":[
            [{"node":0,"time":0.0},{"node":1,"time":1.0}],
            [{"node":1,"time":0.0},{"node":2,"time":1.0}]
        ]}"#;
        let resp = route(&request("POST", "/v1/ingest", body), &s, "t-test");
        assert_eq!(resp.status, 429);
        let next = s.store.as_ref().unwrap().lock().unwrap().next_index();
        assert_eq!(next, 1, "exactly the admitted cascade reaches the WAL");
        drop(s);
        let (_, recovery) = EventStore::open(&dir, viralcast_store::WalOptions::default()).unwrap();
        assert_eq!(recovery.pending.len(), 1);
        assert_eq!(recovery.pending[0].seed().node.0, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn influencers_query_params_are_validated() {
        let ok = route(
            &request("GET", "/v1/influencers?top=2", ""),
            &state(),
            "t-test",
        );
        assert_eq!(ok.status, 200);
        assert!(body_text(&ok).contains("\"influencers\":"));
        let bad = route(
            &request("GET", "/v1/influencers?top=x", ""),
            &state(),
            "t-test",
        );
        assert_eq!(bad.status, 400);
        let oob = route(
            &request("GET", "/v1/influencers?topic=9", ""),
            &state(),
            "t-test",
        );
        assert_eq!(oob.status, 422);
    }

    #[test]
    fn predict_responds_with_version() {
        let resp = route(
            &request(
                "POST",
                "/v1/predict",
                r#"{"cascade":[{"node":0,"time":0.0}],"top":2}"#,
            ),
            &state(),
            "t-test",
        );
        assert_eq!(resp.status, 200);
        assert!(body_text(&resp).contains("\"snapshot_version\":1"));
    }
}
