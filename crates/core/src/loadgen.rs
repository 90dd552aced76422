//! Closed-loop HTTP load generation against a running daemon.
//!
//! `viralcast loadgen` drives a live `viralcast serve` instance with a
//! configurable mix of endpoint traffic and records the first
//! performance trajectory of the project: per-endpoint latency
//! percentiles, sustained throughput, and the shed rate under the
//! daemon's own load-shedding policy. The harness is *closed-loop* —
//! each worker issues its next request only after the previous response
//! lands — so measured latency is service latency, not queueing debris
//! from an open-loop arrival process the daemon never promised to absorb.
//!
//! The run has two phases: a **warmup** whose samples are discarded
//! (connection churn, cold caches, the trainer's first publish) and a
//! **measurement** window that feeds the report. Every request carries a
//! deterministic `X-Request-Id` (`lg-<worker>-<seq>`), so a slow sample
//! in `BENCH_http.json` can be joined against the daemon's access log
//! and trace events by ID.
//!
//! The harness reuses [`viralcast_serve::client`] — the same
//! std-only one-connection-per-request client the integration tests use
//! — and needs nothing outside the workspace. Each exchange goes through
//! [`client::request_with_retry_on`] over an *endpoint list*, so a run
//! can target a single daemon or a router-plus-shards cluster; retries
//! rotate away from a dead endpoint, and connection resets, mid-response
//! EOFs, and 429/503 responses are absorbed with capped, jittered
//! backoff. The retries spent are reported separately so a run against a
//! flapping daemon is visibly different from a clean one.
//!
//! Besides the closed-loop mix, `--scenario flash-crowd` replays a
//! [`ScenarioTimeline`]'s burst arrivals *open-loop* through
//! `/v1/ingest`: event arrival times from a hostile-world timeline (a
//! flash crowd an order of magnitude over baseline) are mapped onto the
//! measurement window and fired on schedule whether or not the previous
//! response has landed — the regime the paper's viral events actually
//! produce, and the one closed-loop load can never create.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, Instant};
use viralcast_gdelt::generator::{GdeltConfig, GdeltWorld};
use viralcast_gdelt::scenario::{FlashCrowd, ScenarioConfig, ScenarioTimeline};
use viralcast_obs::JsonValue;
use viralcast_serve::{client, json};

/// The endpoints the generator knows how to exercise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/predict` — rank next adopters of a partial cascade.
    Predict,
    /// `POST /v1/hazard` — pairwise rate queries.
    Hazard,
    /// `GET /v1/influencers` — global influencer ranking.
    Influencers,
    /// `POST /v1/ingest` — append cascades (exercises WAL + trainer).
    Ingest,
}

/// All endpoints, in report order.
pub const ENDPOINTS: [Endpoint; 4] = [
    Endpoint::Predict,
    Endpoint::Hazard,
    Endpoint::Influencers,
    Endpoint::Ingest,
];

impl Endpoint {
    /// The mix-string / report key for this endpoint.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Predict => "predict",
            Endpoint::Hazard => "hazard",
            Endpoint::Influencers => "influencers",
            Endpoint::Ingest => "ingest",
        }
    }

    fn index(self) -> usize {
        match self {
            Endpoint::Predict => 0,
            Endpoint::Hazard => 1,
            Endpoint::Influencers => 2,
            Endpoint::Ingest => 3,
        }
    }
}

/// Parses a traffic-mix string like `predict=4,hazard=2,influencers=1,ingest=1`
/// into `(endpoint, weight)` pairs. Endpoints absent from the string get
/// weight 0; at least one weight must be positive.
pub fn parse_mix(raw: &str) -> Result<[u32; 4], String> {
    let mut weights = [0u32; 4];
    for part in raw.split(',').filter(|p| !p.trim().is_empty()) {
        let (name, weight) = part
            .split_once('=')
            .ok_or_else(|| format!("malformed mix component {part:?} (expected name=weight)"))?;
        let endpoint = ENDPOINTS
            .iter()
            .find(|e| e.label() == name.trim())
            .ok_or_else(|| {
                format!("unknown endpoint {name:?} (expected predict|hazard|influencers|ingest)")
            })?;
        let weight: u32 = weight
            .trim()
            .parse()
            .map_err(|_| format!("malformed weight {weight:?} for {name}"))?;
        weights[endpoint.index()] = weight;
    }
    if weights.iter().all(|&w| w == 0) {
        return Err("traffic mix has no positive weights".into());
    }
    Ok(weights)
}

/// The arrival regimes `--scenario` can replay instead of the
/// closed-loop mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadScenario {
    /// A hostile-world flash crowd: ingest arrivals from a
    /// [`ScenarioTimeline`] whose middle hours burst an order of
    /// magnitude over baseline, mapped onto the measurement window and
    /// fired open-loop.
    FlashCrowd,
}

impl LoadScenario {
    /// Parses a `--scenario` value.
    pub fn parse(raw: &str) -> Result<LoadScenario, String> {
        match raw.trim() {
            "flash-crowd" => Ok(LoadScenario::FlashCrowd),
            other => Err(format!("unknown scenario {other:?} (expected flash-crowd)")),
        }
    }

    /// The scenario's report key.
    pub fn label(self) -> &'static str {
        match self {
            LoadScenario::FlashCrowd => "flash-crowd",
        }
    }
}

/// One loadgen run's knobs.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// The daemon(s) to drive — one address, or a list the retry layer
    /// rotates across.
    pub endpoints: client::Endpoints,
    /// Concurrent closed-loop workers.
    pub workers: usize,
    /// Measurement-window length.
    pub duration: Duration,
    /// Warmup length (samples discarded; ignored by scenario runs,
    /// which measure their whole schedule).
    pub warmup: Duration,
    /// Per-endpoint weights, indexed by [`Endpoint::index`].
    pub mix: [u32; 4],
    /// PRNG seed; the request stream is a pure function of it.
    pub seed: u64,
    /// `None` runs the closed-loop mix; `Some` replays a scenario's
    /// arrival process open-loop instead.
    pub scenario: Option<LoadScenario>,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            endpoints: client::Endpoints::single(SocketAddr::from(([127, 0, 0, 1], 8080))),
            workers: 4,
            duration: Duration::from_secs(10),
            warmup: Duration::from_secs(2),
            mix: [4, 2, 1, 1],
            seed: 1,
            scenario: None,
        }
    }
}

/// Measured latency quantiles for one endpoint.
#[derive(Clone, Debug)]
pub struct EndpointStats {
    /// The endpoint's mix label.
    pub label: &'static str,
    /// Requests completed during the measurement window.
    pub requests: u64,
    /// Median latency in milliseconds (None when no samples).
    pub p50_ms: Option<f64>,
    /// 99th-percentile latency in milliseconds.
    pub p99_ms: Option<f64>,
    /// Worst observed latency in milliseconds.
    pub max_ms: Option<f64>,
}

/// What a scenario replay scheduled, beyond the request tallies.
#[derive(Clone, Debug)]
pub struct ScenarioStats {
    /// The scenario's label (`flash-crowd`).
    pub name: &'static str,
    /// Ingest arrivals the timeline scheduled into the window.
    pub arrivals: u64,
    /// Burst window start, seconds into the schedule.
    pub burst_start_s: f64,
    /// Burst window end, seconds into the schedule.
    pub burst_end_s: f64,
    /// Scheduled arrival rate outside the burst window.
    pub baseline_rps: f64,
    /// Scheduled arrival rate inside the burst window.
    pub burst_rps: f64,
}

impl ScenarioStats {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("name", JsonValue::from(self.name)),
            ("arrivals", JsonValue::from(self.arrivals)),
            ("burst_start_s", JsonValue::from(self.burst_start_s)),
            ("burst_end_s", JsonValue::from(self.burst_end_s)),
            ("baseline_rps", JsonValue::from(self.baseline_rps)),
            ("burst_rps", JsonValue::from(self.burst_rps)),
        ])
    }
}

/// What one run measured.
#[derive(Clone, Debug)]
pub struct LoadgenSummary {
    /// Actual measurement-window length.
    pub measured_seconds: f64,
    /// Requests completed in the window (all endpoints).
    pub total_requests: u64,
    /// `total_requests / measured_seconds`.
    pub throughput_rps: f64,
    /// 2xx responses.
    pub http_2xx: u64,
    /// 4xx responses other than 429.
    pub http_4xx: u64,
    /// Load-shed (429) responses.
    pub http_429: u64,
    /// 5xx responses.
    pub http_5xx: u64,
    /// Requests that failed below HTTP (connect/read/write errors)
    /// even after the retry budget was spent.
    pub io_errors: u64,
    /// Extra attempts the retry layer issued on top of first tries.
    pub retries: u64,
    /// `http_429 / total_requests` (0 when no requests).
    pub shed_rate: f64,
    /// Per-endpoint latency quantiles, in [`ENDPOINTS`] order.
    pub endpoints: Vec<EndpointStats>,
    /// Scenario schedule detail; `None` for closed-loop runs.
    pub scenario: Option<ScenarioStats>,
    /// What the run was pointed at, probed from `/healthz` — so
    /// perf-trajectory entries stay comparable across topologies.
    pub topology: Topology,
}

/// The serving topology behind the driven address, as `/healthz`
/// reports it: a single daemon names its backend; a router reports its
/// shard and follower counts.
#[derive(Clone, Debug, PartialEq)]
pub struct Topology {
    /// Backend id (`"embed"`, `"netinf"`); `None` when the target is a
    /// router (the manifest, not /healthz, names the cluster backend).
    pub backend: Option<String>,
    /// Shards behind the target (1 for a single daemon).
    pub cluster_shards: u64,
    /// Followers behind the target (0 without replication).
    pub followers: u64,
}

impl Default for Topology {
    fn default() -> Self {
        Topology {
            backend: None,
            cluster_shards: 1,
            followers: 0,
        }
    }
}

/// Probes `GET /healthz` on the first answering endpoint and reads the
/// topology fields. Unanswerable probes fall back to the single-box
/// default — the bench still records *something* comparable.
pub fn probe_topology(endpoints: &client::Endpoints) -> Topology {
    for addr in endpoints.addrs() {
        let Ok(resp) = client::request(addr, "GET", "/healthz", None) else {
            continue;
        };
        if resp.status != 200 {
            continue;
        }
        let Ok(body) = json::parse(&resp.body) else {
            continue;
        };
        return Topology {
            backend: match json::get(&body, "backend") {
                Some(JsonValue::Str(b)) => Some(b.clone()),
                _ => None,
            },
            cluster_shards: json::get(&body, "shards_total")
                .and_then(json::as_u64)
                .unwrap_or(1),
            followers: json::get(&body, "followers_total")
                .and_then(json::as_u64)
                .unwrap_or(0),
        };
    }
    Topology::default()
}

impl LoadgenSummary {
    /// The summary as run-report attributes (the `BENCH_http.json`
    /// payload beyond the standard report envelope).
    pub fn attrs(&self) -> Vec<(String, JsonValue)> {
        let endpoints = JsonValue::Obj(
            self.endpoints
                .iter()
                .map(|e| {
                    (
                        e.label.to_string(),
                        JsonValue::obj(vec![
                            ("requests", JsonValue::from(e.requests)),
                            ("p50_ms", e.p50_ms.map_or(JsonValue::Null, JsonValue::from)),
                            ("p99_ms", e.p99_ms.map_or(JsonValue::Null, JsonValue::from)),
                            ("max_ms", e.max_ms.map_or(JsonValue::Null, JsonValue::from)),
                        ]),
                    )
                })
                .collect(),
        );
        let mut attrs = vec![
            ("measured_seconds".into(), self.measured_seconds.into()),
            ("total_requests".into(), self.total_requests.into()),
            ("throughput_rps".into(), self.throughput_rps.into()),
            ("http_2xx".into(), self.http_2xx.into()),
            ("http_4xx".into(), self.http_4xx.into()),
            ("http_429".into(), self.http_429.into()),
            ("http_5xx".into(), self.http_5xx.into()),
            ("io_errors".into(), self.io_errors.into()),
            ("retries".into(), self.retries.into()),
            ("shed_rate".into(), self.shed_rate.into()),
            (
                "backend".into(),
                self.topology
                    .backend
                    .as_deref()
                    .map_or(JsonValue::Null, JsonValue::from),
            ),
            ("cluster_shards".into(), self.topology.cluster_shards.into()),
            ("followers".into(), self.topology.followers.into()),
            ("endpoints".into(), endpoints),
        ];
        if let Some(scenario) = &self.scenario {
            attrs.push(("scenario".into(), scenario.to_json()));
        }
        attrs
    }
}

/// Run phases, shared through an `AtomicU8`.
const PHASE_WARMUP: u8 = 0;
const PHASE_MEASURE: u8 = 1;
const PHASE_STOP: u8 = 2;

/// Per-worker tallies, merged after the run.
#[derive(Default)]
struct WorkerResult {
    latencies_us: [Vec<u64>; 4],
    http_2xx: u64,
    http_4xx: u64,
    http_429: u64,
    http_5xx: u64,
    io_errors: u64,
    retries: u64,
}

impl WorkerResult {
    /// Tallies one finished exchange that began at `started`: latency
    /// and status class when HTTP answered, the spent retry budget and
    /// an I/O error when the exchange failed below it.
    fn record(
        &mut self,
        endpoint: Endpoint,
        started: Instant,
        outcome: std::io::Result<client::Retried>,
        policy: &client::RetryPolicy,
    ) {
        match outcome {
            Ok(retried) => {
                self.retries += u64::from(retried.retries());
                self.latencies_us[endpoint.index()]
                    .push(started.elapsed().as_micros().min(u64::MAX as u128) as u64);
                match retried.response.status {
                    200..=299 => self.http_2xx += 1,
                    429 => self.http_429 += 1,
                    400..=499 => self.http_4xx += 1,
                    500..=599 => self.http_5xx += 1,
                    _ => self.http_4xx += 1,
                }
            }
            Err(_) => {
                self.retries += u64::from(policy.max_attempts.saturating_sub(1));
                self.io_errors += 1;
            }
        }
    }
}

/// Probes `GET /healthz` and returns the served model's node count —
/// the generator samples query nodes from `0..nodes`.
pub fn probe_node_count(addr: &SocketAddr) -> Result<usize, String> {
    let resp = client::request(addr, "GET", "/healthz", None)
        .map_err(|e| format!("cannot reach {addr}: {e}"))?;
    if resp.status != 200 {
        return Err(format!("/healthz returned {}", resp.status));
    }
    let body = json::parse(&resp.body).map_err(|e| format!("malformed /healthz body: {e}"))?;
    let nodes = json::get(&body, "nodes")
        .and_then(json::as_u64)
        .ok_or("/healthz body lacks a numeric \"nodes\" field")?;
    if nodes == 0 {
        return Err("daemon serves an empty model (0 nodes)".into());
    }
    Ok(nodes as usize)
}

/// [`probe_node_count`] over an endpoint list: the first endpoint that
/// answers wins, so a run against a degraded cluster still starts.
pub fn probe_node_count_any(endpoints: &client::Endpoints) -> Result<usize, String> {
    let mut last = String::new();
    for addr in endpoints.addrs() {
        match probe_node_count(addr) {
            Ok(nodes) => return Ok(nodes),
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// Runs the configured workload — closed-loop mix or an open-loop
/// scenario replay — and returns the measured summary.
pub fn run(config: &LoadgenConfig) -> Result<LoadgenSummary, String> {
    if config.workers == 0 {
        return Err("--workers must be positive".into());
    }
    if let Some(scenario) = config.scenario {
        return run_scenario(config, scenario);
    }
    if config.mix.iter().all(|&w| w == 0) {
        return Err("traffic mix has no positive weights".into());
    }
    let nodes = probe_node_count_any(&config.endpoints)?;
    let phase = AtomicU8::new(PHASE_WARMUP);

    let mut results: Vec<WorkerResult> = Vec::new();
    let mut measured_seconds = 0.0f64;
    std::thread::scope(|scope| {
        let phase = &phase;
        let handles: Vec<_> = (0..config.workers)
            .map(|w| {
                let endpoints = &config.endpoints;
                let mix = config.mix;
                // Distinct odd-spaced seeds per worker keep streams
                // decorrelated while the whole run stays reproducible.
                let seed = config
                    .seed
                    .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(w as u64 + 1));
                scope.spawn(move || worker_loop(w, endpoints, nodes, mix, seed, phase))
            })
            .collect();

        std::thread::sleep(config.warmup);
        phase.store(PHASE_MEASURE, Ordering::SeqCst);
        let measure_start = Instant::now();
        std::thread::sleep(config.duration);
        phase.store(PHASE_STOP, Ordering::SeqCst);
        measured_seconds = measure_start.elapsed().as_secs_f64();

        for handle in handles {
            results.push(handle.join().unwrap_or_default());
        }
    });

    let mut summary = summarise(&results, measured_seconds);
    summary.topology = probe_topology(&config.endpoints);
    Ok(summary)
}

/// One scheduled scenario arrival: when to fire (relative to the run
/// start) and the ingest body to send.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduledIngest {
    /// Offset into the schedule.
    pub fire_at: Duration,
    /// The `/v1/ingest` request body.
    pub body: String,
}

/// The flash-crowd timeline the scenario replays: a 24-hour hostile
/// world with one global burst an order of magnitude over baseline in
/// hours 10–14.
const SCENARIO_HORIZON_HOURS: f64 = 24.0;
const SCENARIO_BASE_EVENTS_PER_HOUR: f64 = 40.0;
const SCENARIO_BURST_START_HOUR: f64 = 10.0;
const SCENARIO_BURST_HOURS: f64 = 4.0;
const SCENARIO_BURST_MAGNITUDE: f64 = 10.0;

/// Generates the flash-crowd ingest schedule: a [`ScenarioTimeline`]
/// over a small synthetic world, its event arrival hours mapped linearly
/// onto `window`, each event's cascade re-homed onto the served model's
/// `0..nodes` universe. Deterministic given `seed`.
pub fn flash_crowd_schedule(seed: u64, nodes: usize, window: Duration) -> Vec<ScheduledIngest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let world = GdeltWorld::generate(GdeltConfig::small(), &mut rng);
    let timeline = ScenarioTimeline::generate(
        &world,
        &ScenarioConfig {
            horizon_hours: SCENARIO_HORIZON_HOURS,
            base_events_per_hour: SCENARIO_BASE_EVENTS_PER_HOUR,
            flash_crowds: vec![FlashCrowd {
                start_hour: SCENARIO_BURST_START_HOUR,
                duration_hours: SCENARIO_BURST_HOURS,
                magnitude: SCENARIO_BURST_MAGNITUDE,
                region: None,
            }],
            ..ScenarioConfig::default()
        },
        &mut rng,
    );
    let scale = window.as_secs_f64() / SCENARIO_HORIZON_HOURS;
    let mut schedule: Vec<ScheduledIngest> = timeline
        .events()
        .iter()
        .filter_map(|event| {
            let body = ingest_body_for(event.cascade.infections(), nodes)?;
            Some(ScheduledIngest {
                fire_at: Duration::from_secs_f64(event.start_hour * scale),
                body,
            })
        })
        .collect();
    schedule.sort_by_key(|s| s.fire_at);
    schedule
}

/// Re-homes a timeline cascade onto the served model: node ids wrap
/// modulo `nodes`, duplicates after the wrap are dropped (keeping the
/// earliest adoption), and a cascade left empty yields `None`.
fn ingest_body_for(
    infections: &[viralcast_propagation::Infection],
    nodes: usize,
) -> Option<String> {
    let n = nodes.max(1) as u64;
    let mut seen = std::collections::BTreeSet::new();
    let mut parts = Vec::new();
    for inf in infections {
        let node = inf.node.index() as u64 % n;
        if seen.insert(node) {
            parts.push(format!(r#"{{"node":{node},"time":{}}}"#, inf.time));
        }
    }
    if parts.is_empty() {
        return None;
    }
    Some(format!(r#"{{"cascades":[[{}]]}}"#, parts.join(",")))
}

/// Replays a scenario schedule open-loop: arrivals are partitioned
/// round-robin across the workers and each fires at its scheduled
/// offset whether or not the previous response has landed (a worker
/// that falls behind sends back-to-back — exactly how a real flash
/// crowd outruns a server). All traffic is `/v1/ingest`; the whole
/// schedule is measured (no warmup discard).
fn run_scenario(config: &LoadgenConfig, scenario: LoadScenario) -> Result<LoadgenSummary, String> {
    let nodes = probe_node_count_any(&config.endpoints)?;
    let schedule = match scenario {
        LoadScenario::FlashCrowd => flash_crowd_schedule(config.seed, nodes, config.duration),
    };
    if schedule.is_empty() {
        return Err("scenario produced an empty arrival schedule".into());
    }

    let mut results: Vec<WorkerResult> = Vec::new();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.workers)
            .map(|w| {
                let endpoints = &config.endpoints;
                let mine: Vec<&ScheduledIngest> =
                    schedule.iter().skip(w).step_by(config.workers).collect();
                let seed = config
                    .seed
                    .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(w as u64 + 1));
                scope.spawn(move || scenario_worker(w, endpoints, &mine, start, seed))
            })
            .collect();
        for handle in handles {
            results.push(handle.join().unwrap_or_default());
        }
    });
    let measured_seconds = start.elapsed().as_secs_f64();

    let scale = config.duration.as_secs_f64() / SCENARIO_HORIZON_HOURS;
    let burst_start_s = SCENARIO_BURST_START_HOUR * scale;
    let burst_end_s = (SCENARIO_BURST_START_HOUR + SCENARIO_BURST_HOURS) * scale;
    let in_burst = schedule
        .iter()
        .filter(|s| {
            let t = s.fire_at.as_secs_f64();
            t >= burst_start_s && t < burst_end_s
        })
        .count() as u64;
    let arrivals = schedule.len() as u64;
    let burst_len = (burst_end_s - burst_start_s).max(f64::MIN_POSITIVE);
    let outside_len = (config.duration.as_secs_f64() - burst_len).max(f64::MIN_POSITIVE);
    let mut summary = summarise(&results, measured_seconds);
    summary.topology = probe_topology(&config.endpoints);
    summary.scenario = Some(ScenarioStats {
        name: scenario.label(),
        arrivals,
        burst_start_s,
        burst_end_s,
        baseline_rps: (arrivals - in_burst) as f64 / outside_len,
        burst_rps: in_burst as f64 / burst_len,
    });
    Ok(summary)
}

/// One open-loop scenario worker over its slice of the schedule.
fn scenario_worker(
    worker: usize,
    endpoints: &client::Endpoints,
    schedule: &[&ScheduledIngest],
    start: Instant,
    seed: u64,
) -> WorkerResult {
    let mut result = WorkerResult::default();
    let policy = client::RetryPolicy {
        jitter_seed: seed,
        ..client::RetryPolicy::default()
    };
    for (seq, item) in schedule.iter().enumerate() {
        if let Some(wait) = item.fire_at.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        let trace_id = format!("fc-{worker}-{seq:x}");
        let started = Instant::now();
        let outcome = client::request_with_retry_on(
            endpoints,
            "POST",
            "/v1/ingest",
            Some(&item.body),
            &[("X-Request-Id", &trace_id)],
            &policy,
        );
        result.record(Endpoint::Ingest, started, outcome, &policy);
    }
    result
}

fn worker_loop(
    worker: usize,
    endpoints: &client::Endpoints,
    nodes: usize,
    mix: [u32; 4],
    seed: u64,
    phase: &AtomicU8,
) -> WorkerResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let total_weight: u64 = mix.iter().map(|&w| w as u64).sum();
    let mut result = WorkerResult::default();
    let mut seq = 0u64;
    let policy = client::RetryPolicy {
        jitter_seed: seed,
        ..client::RetryPolicy::default()
    };
    loop {
        match phase.load(Ordering::SeqCst) {
            PHASE_STOP => break,
            p => p,
        };
        let endpoint = pick_endpoint(&mut rng, &mix, total_weight);
        let (method, target, body) = build_request(endpoint, &mut rng, nodes);
        let trace_id = format!("lg-{worker}-{seq:x}");
        seq += 1;
        let started = Instant::now();
        let outcome = client::request_with_retry_on(
            endpoints,
            method,
            &target,
            body.as_deref(),
            &[("X-Request-Id", &trace_id)],
            &policy,
        );
        // Samples count only when the whole exchange fit inside the
        // measurement window.
        if phase.load(Ordering::SeqCst) != PHASE_MEASURE {
            continue;
        }
        result.record(endpoint, started, outcome, &policy);
    }
    result
}

fn pick_endpoint(rng: &mut StdRng, mix: &[u32; 4], total_weight: u64) -> Endpoint {
    let mut roll = rng.gen_range(0..total_weight);
    for endpoint in ENDPOINTS {
        let w = mix[endpoint.index()] as u64;
        if roll < w {
            return endpoint;
        }
        roll -= w;
    }
    Endpoint::Predict // unreachable: total_weight covers the full mix
}

/// The next request for `endpoint`: `(method, target, body)`.
fn build_request(
    endpoint: Endpoint,
    rng: &mut StdRng,
    nodes: usize,
) -> (&'static str, String, Option<String>) {
    let n = nodes as u64;
    match endpoint {
        Endpoint::Predict => {
            let node = rng.gen_range(0..n);
            (
                "POST",
                "/v1/predict".into(),
                Some(format!(
                    r#"{{"cascade":[{{"node":{node},"time":0.0}}],"top":5}}"#
                )),
            )
        }
        Endpoint::Hazard => {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            (
                "POST",
                "/v1/hazard".into(),
                Some(format!(r#"{{"pairs":[[{u},{v}]],"dt":1.0}}"#)),
            )
        }
        Endpoint::Influencers => ("GET", "/v1/influencers?top=5".into(), None),
        Endpoint::Ingest => {
            // Two distinct nodes so the cascade passes validation; the
            // modulo wrap keeps both in range for any model ≥ 2 nodes.
            let a = rng.gen_range(0..n);
            let b = (a + 1) % n;
            let body = if b == a {
                format!(r#"{{"cascades":[[{{"node":{a},"time":0.0}}]]}}"#)
            } else {
                format!(r#"{{"cascades":[[{{"node":{a},"time":0.0}},{{"node":{b},"time":1.0}}]]}}"#)
            };
            ("POST", "/v1/ingest".into(), Some(body))
        }
    }
}

fn summarise(results: &[WorkerResult], measured_seconds: f64) -> LoadgenSummary {
    let mut endpoints = Vec::with_capacity(ENDPOINTS.len());
    let mut total_requests = 0u64;
    for endpoint in ENDPOINTS {
        let mut samples: Vec<u64> = results
            .iter()
            .flat_map(|r| r.latencies_us[endpoint.index()].iter().copied())
            .collect();
        samples.sort_unstable();
        total_requests += samples.len() as u64;
        endpoints.push(EndpointStats {
            label: endpoint.label(),
            requests: samples.len() as u64,
            p50_ms: percentile_ms(&samples, 0.50),
            p99_ms: percentile_ms(&samples, 0.99),
            max_ms: samples.last().map(|&us| us as f64 / 1000.0),
        });
    }
    let sum = |f: fn(&WorkerResult) -> u64| results.iter().map(f).sum::<u64>();
    let http_429 = sum(|r| r.http_429);
    LoadgenSummary {
        measured_seconds,
        total_requests,
        throughput_rps: if measured_seconds > 0.0 {
            total_requests as f64 / measured_seconds
        } else {
            0.0
        },
        http_2xx: sum(|r| r.http_2xx),
        http_4xx: sum(|r| r.http_4xx),
        http_429,
        http_5xx: sum(|r| r.http_5xx),
        io_errors: sum(|r| r.io_errors),
        retries: sum(|r| r.retries),
        shed_rate: if total_requests > 0 {
            http_429 as f64 / total_requests as f64
        } else {
            0.0
        },
        endpoints,
        scenario: None,
        topology: Topology::default(),
    }
}

/// Nearest-rank percentile over sorted latency samples, in milliseconds.
/// Shared with the chaos harness.
pub(crate) fn percentile_ms(sorted_us: &[u64], q: f64) -> Option<f64> {
    if sorted_us.is_empty() {
        return None;
    }
    let rank = (q * (sorted_us.len() as f64 - 1.0)).round() as usize;
    Some(sorted_us[rank.min(sorted_us.len() - 1)] as f64 / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_strings_parse_by_name() {
        let mix = parse_mix("predict=4,hazard=2,influencers=1,ingest=1").unwrap();
        assert_eq!(mix, [4, 2, 1, 1]);
        let partial = parse_mix("hazard=9").unwrap();
        assert_eq!(partial, [0, 9, 0, 0]);
        assert!(parse_mix("warp=1").is_err());
        assert!(parse_mix("predict=x").is_err());
        assert!(parse_mix("predict=0").is_err());
    }

    #[test]
    fn weighted_pick_respects_zero_weights() {
        let mix = [0, 5, 0, 0];
        let total: u64 = mix.iter().map(|&w| w as u64).sum();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..64 {
            assert_eq!(pick_endpoint(&mut rng, &mix, total), Endpoint::Hazard);
        }
    }

    #[test]
    fn request_bodies_stay_in_node_range() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..32 {
            for endpoint in ENDPOINTS {
                let (_, _, body) = build_request(endpoint, &mut rng, 3);
                if let Some(body) = body {
                    // All node literals must be 0..3.
                    for bad in ["\"node\":3", "\"node\":4", "[3,", ",3]"] {
                        assert!(!body.contains(bad), "{body}");
                    }
                }
            }
        }
    }

    #[test]
    fn single_node_models_get_single_infection_ingests() {
        let mut rng = StdRng::seed_from_u64(5);
        let (_, _, body) = build_request(Endpoint::Ingest, &mut rng, 1);
        let body = body.unwrap();
        assert!(body.contains(r#"{"node":0,"time":0.0}"#), "{body}");
        assert!(!body.contains("\"time\":1.0"), "{body}");
    }

    #[test]
    fn percentiles_are_nearest_rank_in_ms() {
        let sorted: Vec<u64> = (1..=100).map(|i| i * 1000).collect();
        assert_eq!(percentile_ms(&sorted, 0.50), Some(51.0));
        assert_eq!(percentile_ms(&sorted, 0.99), Some(99.0));
        assert_eq!(percentile_ms(&sorted, 1.0), Some(100.0));
        assert_eq!(percentile_ms(&[], 0.5), None);
    }

    #[test]
    fn scenario_names_parse() {
        assert_eq!(
            LoadScenario::parse("flash-crowd").unwrap(),
            LoadScenario::FlashCrowd
        );
        assert_eq!(LoadScenario::FlashCrowd.label(), "flash-crowd");
        assert!(LoadScenario::parse("tsunami").is_err());
    }

    #[test]
    fn flash_crowd_schedule_is_deterministic_and_bursty() {
        let window = Duration::from_secs(12);
        let a = flash_crowd_schedule(7, 50, window);
        let b = flash_crowd_schedule(7, 50, window);
        assert_eq!(a, b, "same seed must yield the identical schedule");
        assert!(!a.is_empty());
        // Every arrival fits the window and every body is a valid
        // single-cascade ingest over the served universe.
        let scale = window.as_secs_f64() / SCENARIO_HORIZON_HOURS;
        let burst = (
            SCENARIO_BURST_START_HOUR * scale,
            (SCENARIO_BURST_START_HOUR + SCENARIO_BURST_HOURS) * scale,
        );
        let mut in_burst = 0usize;
        for item in &a {
            let t = item.fire_at.as_secs_f64();
            assert!(t < window.as_secs_f64() + 1e-9, "arrival at {t}s");
            if t >= burst.0 && t < burst.1 {
                in_burst += 1;
            }
            assert!(item.body.starts_with(r#"{"cascades":[["#), "{}", item.body);
            assert!(!item.body.contains("\"node\":50"), "{}", item.body);
        }
        // The burst window is 1/6 of the schedule but must hold well
        // over 1/6 of the arrivals (magnitude 10 over baseline).
        let outside = a.len() - in_burst;
        assert!(
            in_burst * 2 > outside,
            "burst holds {in_burst} of {} arrivals — no flash crowd",
            a.len()
        );
        // A different seed actually changes the stream.
        assert_ne!(flash_crowd_schedule(8, 50, window), a);
    }

    #[test]
    fn ingest_bodies_dedup_wrapped_nodes() {
        use viralcast_propagation::Infection;
        // Nodes 0 and 5 collide modulo 5: the earlier adoption wins.
        let infections = vec![
            Infection::new(0u32, 0.0),
            Infection::new(5u32, 1.5),
            Infection::new(2u32, 2.0),
        ];
        let body = ingest_body_for(&infections, 5).unwrap();
        assert_eq!(
            body,
            r#"{"cascades":[[{"node":0,"time":0},{"node":2,"time":2}]]}"#
        );
        assert!(ingest_body_for(&[], 5).is_none());
    }

    #[test]
    fn summary_attrs_cover_the_bench_schema() {
        let results = vec![WorkerResult {
            latencies_us: [vec![1000, 2000], vec![3000], vec![], vec![]],
            http_2xx: 2,
            http_4xx: 0,
            http_429: 1,
            http_5xx: 0,
            io_errors: 0,
            retries: 2,
        }];
        let summary = summarise(&results, 2.0);
        assert_eq!(summary.total_requests, 3);
        assert_eq!(summary.retries, 2);
        assert!((summary.throughput_rps - 1.5).abs() < 1e-9);
        assert!((summary.shed_rate - 1.0 / 3.0).abs() < 1e-9);
        let json = JsonValue::Obj(summary.attrs()).render();
        for needle in [
            "\"throughput_rps\":",
            "\"http_429\":1",
            "\"retries\":2",
            "\"shed_rate\":",
            "\"endpoints\":{\"predict\":{\"requests\":2",
            "\"influencers\":{\"requests\":0,\"p50_ms\":null",
            "\"backend\":null",
            "\"cluster_shards\":1",
            "\"followers\":0",
        ] {
            assert!(json.contains(needle), "{needle} missing from {json}");
        }
        assert!(
            !json.contains("\"scenario\""),
            "closed-loop run grew a scenario"
        );

        // A probed topology (router over 2 shards + 2 followers,
        // single-box backend) lands in the payload verbatim.
        let mut clustered = summary.clone();
        clustered.topology = Topology {
            backend: Some("netinf".into()),
            cluster_shards: 2,
            followers: 2,
        };
        let json = JsonValue::Obj(clustered.attrs()).render();
        for needle in [
            "\"backend\":\"netinf\"",
            "\"cluster_shards\":2",
            "\"followers\":2",
        ] {
            assert!(json.contains(needle), "{needle} missing from {json}");
        }

        let mut with_scenario = summary;
        with_scenario.scenario = Some(ScenarioStats {
            name: "flash-crowd",
            arrivals: 120,
            burst_start_s: 5.0,
            burst_end_s: 7.0,
            baseline_rps: 4.0,
            burst_rps: 40.0,
        });
        let json = JsonValue::Obj(with_scenario.attrs()).render();
        for needle in [
            "\"scenario\":{\"name\":\"flash-crowd\"",
            "\"arrivals\":120",
            "\"burst_rps\":40",
        ] {
            assert!(json.contains(needle), "{needle} missing from {json}");
        }
    }
}
