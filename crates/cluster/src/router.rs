//! The scatter-gather router: the cluster's single HTTP front door.
//!
//! Clients talk to the router exactly as they would to a single-box
//! daemon. Behind it, `/v1/ingest` is routed to the leader of shard
//! `v mod N`, where `v` is the cascade's seed site — the same rule that
//! decides the rows each shard scans — walking on to shards
//! `(v + 1) mod N, …` when that leader is down; `/v1/hazard` is
//! forwarded to any healthy shard (every shard holds the full
//! embeddings); and `/v1/predict` + `/v1/influencers` scatter to all
//! healthy shards on a bounded fan-out pool with a per-shard deadline,
//! then merge the shard-local rankings with the streaming top-k merge.
//!
//! The router degrades instead of failing: a shard that misses its
//! deadline or refuses the connection is marked unhealthy on the spot
//! (the background prober re-admits it), and the gathered response is
//! served with `"partial": true` plus `shards_responding` /
//! `shards_total` — a cluster with every shard down still answers
//! HTTP 200 with an empty, clearly-partial ranking, never a 5xx.
//!
//! With a manifest naming followers, each shard becomes a replica
//! set of dialable *sites* (leader first). Reads spread across a
//! shard's healthy sites round-robin and fail over site-by-site inside
//! one scatter task, so a dead leader degrades that shard's reads to
//! its follower instead of going partial. Ingest stays leaders-only:
//! followers refuse writes with a 409 redirect.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use viralcast_obs::{self as obs, JsonValue};
use viralcast_serve::client::{self, RetryPolicy};
use viralcast_serve::http::{HttpLimits, Request, Response};
use viralcast_serve::json;
use viralcast_serve::listener::{listen, Listener, ListenerConfig};
use viralcast_serve::pool::BoundedPool;

use crate::health::{HealthBoard, Prober};
use crate::manifest::ClusterManifest;
use crate::merge::{merge_topk, Ranked};

/// One shard's share of a scatter, run on the fan-out pool.
type ScatterJob = Box<dyn FnOnce() + Send>;

/// Router configuration.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Bind address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker threads terminating client connections (≥ 1).
    pub workers: usize,
    /// Threads in the scatter fan-out pool (≥ 1).
    pub fanout_workers: usize,
    /// Cadence of the background `/healthz` probe of every shard.
    pub probe_interval: Duration,
    /// Per-shard deadline on the scatter path; a shard that has not
    /// answered by then is counted as not responding.
    pub shard_timeout: Duration,
    /// Retry pacing for the single-shard forwarding paths (ingest,
    /// hazard) — the same policy the serve-crate client uses.
    pub retry: RetryPolicy,
    /// HTTP parsing limits for client connections.
    pub limits: HttpLimits,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:8090".into(),
            workers: 4,
            fanout_workers: 8,
            probe_interval: Duration::from_millis(500),
            shard_timeout: Duration::from_secs(2),
            retry: RetryPolicy::default(),
            limits: HttpLimits::default(),
        }
    }
}

/// One dialable daemon: a shard's leader or one of its followers. The
/// health board tracks one slot per site.
#[derive(Clone, Copy)]
struct Site {
    shard: usize,
    addr: SocketAddr,
}

/// Everything a router worker touches.
struct RouterState {
    manifest: ClusterManifest,
    board: Arc<HealthBoard>,
    /// Flat site list; `board` slot `i` tracks `sites[i]`.
    sites: Vec<Site>,
    /// Per-shard site slots, leader first.
    shard_slots: Vec<Vec<usize>>,
    /// Bounds the scatter: a flood of reads degrades into queueing
    /// (and per-shard deadline misses, i.e. partial responses), never
    /// into thread exhaustion.
    pool: BoundedPool<ScatterJob>,
    shard_timeout: Duration,
    retry: RetryPolicy,
    started: Instant,
    /// Round-robin cursor for the forward-to-any paths.
    cursor: AtomicU64,
}

impl RouterState {
    /// The board slot of shard `shard`'s leader.
    fn leader_slot(&self, shard: usize) -> usize {
        self.shard_slots[shard][0]
    }

    /// Shard `shard`'s site slots in read-preference order: healthy
    /// sites first, rotated by `spread` so consecutive reads land on
    /// different replicas, then believed-down sites as a last resort
    /// (the belief may be stale in either direction).
    fn read_order(&self, shard: usize, spread: usize) -> Vec<usize> {
        let (mut order, down): (Vec<usize>, Vec<usize>) = self.shard_slots[shard]
            .iter()
            .partition(|&&s| self.board.is_healthy(s));
        if !order.is_empty() {
            let start = spread % order.len();
            order.rotate_left(start);
        }
        order.extend(down);
        order
    }
}

/// A running router. Call [`RouterHandle::shutdown`] to stop it;
/// dropping the handle does not.
pub struct RouterHandle {
    listener: Listener,
    prober: Prober,
}

impl RouterHandle {
    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Graceful stop: the listener first, then the probe loop.
    pub fn shutdown(self) {
        self.listener.shutdown();
        drop(self.prober); // stops and joins the probe loop
    }
}

/// Builds the site table, starts the health prober and the fan-out
/// pool, and listens with [`route`] as the handler.
pub fn start_router(manifest: ClusterManifest, config: RouterConfig) -> io::Result<RouterHandle> {
    let shard_count = manifest.shard_count();
    let mut sites = Vec::new();
    let mut shard_slots = vec![Vec::new(); shard_count];
    for (shard, slots) in shard_slots.iter_mut().enumerate() {
        let leader = manifest.addr_of(shard);
        for &addr in std::iter::once(&leader).chain(manifest.followers_of(shard)) {
            slots.push(sites.len());
            sites.push(Site { shard, addr });
        }
    }
    let board = HealthBoard::new(sites.len());
    let prober = Prober::start(
        Arc::clone(&board),
        sites.iter().map(|s| s.addr).collect(),
        config.probe_interval,
        config.shard_timeout,
    );

    let state = RouterState {
        manifest,
        board,
        sites,
        shard_slots,
        pool: BoundedPool::new("fanout", config.fanout_workers, |job: ScatterJob| job())?,
        shard_timeout: config.shard_timeout,
        retry: config.retry,
        started: Instant::now(),
        cursor: AtomicU64::new(0),
    };
    let listener = listen(
        ListenerConfig {
            workers: config.workers,
            limits: config.limits,
            shed_message: "router overloaded; retry later",
            ..ListenerConfig::new(config.addr, "router")
        },
        move |req, trace_id| route(req, &state, trace_id),
    )?;
    Ok(RouterHandle { listener, prober })
}

/// Dispatches one client request.
fn route(req: &Request, state: &RouterState, trace_id: &str) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => healthz(state),
        ("GET", "/metrics") => metrics(),
        ("POST", "/v1/ingest") => ingest(req, state, trace_id),
        ("POST", "/v1/hazard") => forward_any(req, state, trace_id),
        ("POST", "/v1/predict") => predict(req, state, trace_id),
        ("GET", "/v1/influencers") => influencers(req, state, trace_id),
        (
            _,
            "/healthz" | "/metrics" | "/v1/hazard" | "/v1/predict" | "/v1/influencers"
            | "/v1/ingest",
        ) => Response::error(405, format!("method {} not allowed", req.method)),
        _ => Response::error(404, format!("no such endpoint {}", req.path)),
    }
}

/// Cluster health: always 200; `status` is `ok` only with every shard
/// reachable. `nodes` reports the node universe (the max any shard
/// reported) so single-box health probes keep working against a router.
fn healthz(state: &RouterState) -> Response {
    let board = &state.board;
    let total = state.manifest.shard_count();
    // A shard counts as healthy when every one of its sites (leader
    // plus followers) answers probes; anything less is `degraded`.
    let healthy = (0..total)
        .filter(|&shard| {
            state.shard_slots[shard]
                .iter()
                .all(|&slot| board.is_healthy(slot))
        })
        .count();
    let followers_total = state.sites.len() - total;
    let shards: Vec<JsonValue> = state
        .manifest
        .shards
        .iter()
        .map(|s| {
            let leader = state.leader_slot(s.id);
            let mut fields = vec![
                ("id", JsonValue::from(s.id)),
                ("addr", JsonValue::from(s.addr.to_string())),
                ("healthy", JsonValue::Bool(board.is_healthy(leader))),
                ("nodes", JsonValue::from(board.nodes(leader))),
            ];
            if !s.followers.is_empty() {
                fields.push((
                    "followers",
                    JsonValue::Arr(
                        s.followers
                            .iter()
                            .zip(state.shard_slots[s.id][1..].iter())
                            .map(|(addr, &slot)| {
                                JsonValue::obj(vec![
                                    ("addr", JsonValue::from(addr.to_string())),
                                    ("healthy", JsonValue::Bool(board.is_healthy(slot))),
                                ])
                            })
                            .collect(),
                    ),
                ));
            }
            JsonValue::obj(fields)
        })
        .collect();
    Response::json(
        200,
        &JsonValue::obj(vec![
            (
                "status",
                JsonValue::from(if healthy == total { "ok" } else { "degraded" }),
            ),
            ("role", JsonValue::from("router")),
            ("shards_total", JsonValue::from(total)),
            ("shards_healthy", JsonValue::from(healthy)),
            ("followers_total", JsonValue::from(followers_total)),
            ("nodes", JsonValue::from(board.max_nodes())),
            ("snapshot_version", JsonValue::from(board.max_version())),
            (
                "uptime_seconds",
                JsonValue::from(state.started.elapsed().as_secs_f64()),
            ),
            ("shards", JsonValue::Arr(shards)),
        ]),
    )
}

fn metrics() -> Response {
    obs::process::record_memory();
    let mut text = String::from("# TYPE viralcast_router_info gauge\nviralcast_router_info 1\n");
    text.push_str(&obs::metrics().snapshot().render_prometheus());
    Response::text(200, text)
}

/// The seed site of an ingest body: the node of the earliest infection
/// in the first cascade. `None` when the body has no usable cascade —
/// the shard the request is forwarded to will produce the proper error.
fn seed_site(body: &JsonValue) -> Option<u64> {
    let first = json::as_arr(json::get(body, "cascades")?)?.first()?;
    json::as_arr(first)?
        .iter()
        .filter_map(|event| {
            let node = json::as_u64(json::get(event, "node")?)?;
            let time = json::as_f64(json::get(event, "time")?)?;
            Some((node, time))
        })
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(node, _)| node)
}

/// Routes an ingest to the leader of shard `seed mod N`, the shard owning
/// its seed site, then on to the leaders of `(seed + 1) mod N, …`
/// (healthy ones first) when that one is unreachable. A body with no
/// seed site takes the round-robin cursor instead.
fn ingest(req: &Request, state: &RouterState, trace_id: &str) -> Response {
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return Response::error(400, "request body is not valid UTF-8");
    };
    let body = match json::parse(text) {
        Ok(v) => v,
        Err(e) => return Response::error(400, format!("malformed JSON body: {e}")),
    };
    let key = seed_site(&body).unwrap_or_else(|| state.cursor.fetch_add(1, Ordering::Relaxed));
    // Writes go to leaders only — followers answer ingest with a 409
    // redirect.
    let shards = state.manifest.shard_count();
    let owner = (key % shards as u64) as usize;
    let leaders: Vec<usize> = (0..shards)
        .map(|i| state.leader_slot((owner + i) % shards))
        .collect();
    match forward_first(state, &leaders, "POST", "/v1/ingest", Some(text), trace_id) {
        Some(response) => {
            obs::metrics().counter("router.ingest.routed").incr(1);
            response
        }
        None => Response::error(503, "no shard reachable for ingest"),
    }
}

/// Forwards a request to any healthy site (round-robin over leaders and
/// followers alike), falling back to the full site list — used for
/// `/v1/hazard`, a read any daemon can answer from its full copy of the
/// embeddings.
fn forward_any(req: &Request, state: &RouterState, trace_id: &str) -> Response {
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return Response::error(400, "request body is not valid UTF-8");
    };
    let total = state.sites.len();
    let start = state.cursor.fetch_add(1, Ordering::Relaxed) as usize;
    let order: Vec<usize> = (0..total).map(|i| (start + i) % total).collect();
    let body = if text.is_empty() { None } else { Some(text) };
    forward_first(state, &order, &req.method, &req.path, body, trace_id)
        .unwrap_or_else(|| Response::error(503, "no shard reachable"))
}

/// Forwards, with retry, to the first of `slots` that can be reached at
/// all: two passes over the given order, believed-healthy sites first,
/// then the rest (the belief may be stale in either direction).
fn forward_first(
    state: &RouterState,
    slots: &[usize],
    method: &str,
    target: &str,
    body: Option<&str>,
    trace_id: &str,
) -> Option<Response> {
    let healthy = |slot: &&usize| state.board.is_healthy(**slot);
    let headers = [("X-Request-Id", trace_id)];
    slots
        .iter()
        .filter(healthy)
        .chain(slots.iter().filter(|slot| !healthy(slot)))
        .find_map(|&slot| {
            let site = state.sites[slot];
            let sent = client::request_with_retry(
                &site.addr,
                method,
                target,
                body,
                &headers,
                &state.retry,
            );
            let out = settle(&state.board, slot, site.shard, sent).ok()?;
            Some(forward(&out.response))
        })
}

/// Records one exchange with site `slot` of `shard` on the board: up on
/// success; down, plus a `router.shard.errors.{shard}` count, on error.
fn settle<T>(board: &HealthBoard, slot: usize, shard: usize, sent: io::Result<T>) -> io::Result<T> {
    match &sent {
        Ok(_) => board.mark_up(slot),
        Err(_) => {
            board.mark_down(slot);
            obs::metrics()
                .counter(&format!("router.shard.errors.{shard}"))
                .incr(1);
        }
    }
    sent
}

/// Re-frames a shard's response for the client. Shard bodies are the
/// compact output of the same JSON writer, so parse-and-re-render is
/// byte-preserving; a body that does not parse is passed through as
/// text.
fn forward(response: &client::ClientResponse) -> Response {
    match json::parse(&response.body) {
        Ok(v) => Response::json(response.status, &v),
        Err(_) => Response::text(response.status, response.body.clone()),
    }
}

/// Scatters one request to every shard on the fan-out pool and gathers
/// the responses that arrive within the per-shard deadline. Each
/// shard's task walks the shard's sites (leader + followers) in
/// read-preference order and fails over inside the task, so one dead
/// replica never makes the merged response partial while a sibling
/// still answers. Sites that error are marked down on the spot.
fn scatter(
    state: &RouterState,
    method: &str,
    target: &str,
    body: Option<&str>,
    trace_id: &str,
) -> Vec<client::ClientResponse> {
    let (tx, rx) = mpsc::channel();
    let mut dispatched = 0usize;
    let spread = state.cursor.fetch_add(1, Ordering::Relaxed) as usize;
    for shard in 0..state.manifest.shard_count() {
        let order = state.read_order(shard, spread);
        let addrs: Vec<(usize, SocketAddr)> =
            order.iter().map(|&s| (s, state.sites[s].addr)).collect();
        let board = Arc::clone(&state.board);
        let tx = tx.clone();
        let method = method.to_string();
        let target = target.to_string();
        let body = body.map(str::to_string);
        let trace_id = trace_id.to_string();
        let timeout = state.shard_timeout;
        let job: ScatterJob = Box::new(move || {
            let started = Instant::now();
            let mut last = Err(io::Error::new(io::ErrorKind::NotConnected, "no sites"));
            for (slot, addr) in addrs {
                let sent = client::request_with_options(
                    &addr,
                    &method,
                    &target,
                    body.as_deref(),
                    &[("X-Request-Id", &trace_id)],
                    timeout,
                );
                last = settle(&board, slot, shard, sent);
                if last.is_ok() {
                    break;
                }
            }
            let _ = tx.send((shard, started.elapsed(), last));
        });
        if state.pool.try_submit(job).is_ok() {
            dispatched += 1;
        } else {
            // Pool saturated: the shard is simply not responding to
            // this request; the response will say so via `partial`.
            obs::metrics().counter("router.fanout.rejected").incr(1);
        }
    }
    drop(tx);

    let deadline = Instant::now() + state.shard_timeout + Duration::from_millis(250);
    let mut replies = Vec::with_capacity(dispatched);
    for _ in 0..dispatched {
        let remaining = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(remaining) {
            Ok((shard, elapsed, Ok(response))) => {
                let name = format!("router.shard.latency_ms.{shard}");
                obs::metrics()
                    .histogram_exponential(&name, 0.25, 2.0, 12)
                    .record(elapsed.as_secs_f64() * 1e3);
                replies.push(response);
            }
            Ok((_, _, Err(_))) => {} // every site down; counted already
            Err(_) => break,         // gather deadline: stragglers count as down
        }
    }
    replies
}

/// Extracts a ranking array (`candidates` / `influencers`) from one
/// shard's response body, keeping each entry's original JSON.
fn ranked_list(body: &JsonValue, key: &str, score_field: &str) -> Vec<Ranked> {
    json::get(body, key)
        .and_then(json::as_arr)
        .map(|entries| {
            entries
                .iter()
                .filter_map(|entry| {
                    Some(Ranked {
                        node: json::as_u64(json::get(entry, "node")?)?,
                        score: json::as_f64(json::get(entry, score_field)?)?,
                        body: entry.clone(),
                    })
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Merges `key` rankings from the gathered 200-bodies into one
/// partial-aware envelope. Extra fields (e.g. `topic`) named in `carry`
/// are copied from the first body that has them.
fn merged_response(
    state: &RouterState,
    replies: Vec<client::ClientResponse>,
    key: &'static str,
    score_field: &str,
    k: usize,
    carry: &[&'static str],
) -> Response {
    let mut bodies = Vec::with_capacity(replies.len());
    for response in replies {
        if response.status == 200 {
            if let Ok(v) = json::parse(&response.body) {
                bodies.push(v);
            }
        } else if (400..500).contains(&response.status) {
            // Every shard validates against the same full universe, so
            // one shard's 4xx is the whole cluster's verdict.
            return forward(&response);
        }
    }
    let total = state.manifest.shard_count();
    let responding = bodies.len();
    let version = bodies
        .iter()
        .filter_map(|b| json::get(b, "snapshot_version").and_then(json::as_u64))
        .max()
        .unwrap_or(0);
    let lists: Vec<Vec<Ranked>> = bodies
        .iter()
        .map(|b| ranked_list(b, key, score_field))
        .collect();
    let merged = merge_topk(&lists, k);
    let partial = responding < total;
    if partial {
        obs::metrics().counter("router.partial_responses").incr(1);
    }
    let mut fields = vec![("snapshot_version", JsonValue::from(version))];
    for &name in carry {
        if let Some(value) = bodies.iter().find_map(|b| json::get(b, name)) {
            fields.push((name, value.clone()));
        }
    }
    fields.push((
        key,
        JsonValue::Arr(merged.into_iter().map(|r| r.body).collect()),
    ));
    fields.push(("partial", JsonValue::Bool(partial)));
    fields.push(("shards_responding", JsonValue::from(responding)));
    fields.push(("shards_total", JsonValue::from(total)));
    Response::json(200, &JsonValue::obj(fields))
}

fn predict(req: &Request, state: &RouterState, trace_id: &str) -> Response {
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return Response::error(400, "request body is not valid UTF-8");
    };
    let body = match json::parse(text) {
        Ok(v) => v,
        Err(e) => return Response::error(400, format!("malformed JSON body: {e}")),
    };
    let k = json::get(&body, "top").and_then(json::as_u64).unwrap_or(10) as usize;
    let replies = scatter(state, "POST", "/v1/predict", Some(text), trace_id);
    merged_response(state, replies, "candidates", "rate", k, &["observed"])
}

fn influencers(req: &Request, state: &RouterState, trace_id: &str) -> Response {
    // Malformed values still scatter: the shards produce the 400.
    let top = req.query_param("top").and_then(|raw| raw.parse().ok());
    let k = top.unwrap_or(10);
    let replies = scatter(state, "GET", &target_of(req), None, trace_id);
    merged_response(state, replies, "influencers", "score", k, &["topic"])
}

/// Rebuilds the request target (path + query string) for forwarding.
fn target_of(req: &Request) -> String {
    if req.query.is_empty() {
        return req.path.clone();
    }
    let query: Vec<String> = req
        .query
        .iter()
        .map(|(key, value)| {
            if value.is_empty() {
                key.clone()
            } else {
                format!("{key}={value}")
            }
        })
        .collect();
    format!("{}?{}", req.path, query.join("&"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_os = "linux")]
    #[test]
    fn metrics_report_the_process_resident_set() {
        let text = String::from_utf8(metrics().body).unwrap();
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
    fn target_rebuilds_the_query_string() {
        let req = Request {
            method: "GET".into(),
            path: "/v1/influencers".into(),
            query: vec![
                ("top".into(), "3".into()),
                ("topic".into(), "1".into()),
                ("flag".into(), String::new()),
            ],
            headers: Vec::new(),
            body: Vec::new(),
        };
        assert_eq!(target_of(&req), "/v1/influencers?top=3&topic=1&flag");
        let bare = Request {
            query: Vec::new(),
            ..req
        };
        assert_eq!(target_of(&bare), "/v1/influencers");
    }

    #[test]
    fn ranked_lists_parse_and_skip_malformed_entries() {
        let body = json::parse(
            r#"{"candidates":[{"node":3,"rate":2.5},{"rate":1.0},{"node":1,"rate":0.5}]}"#,
        )
        .unwrap();
        let list = ranked_list(&body, "candidates", "rate");
        assert_eq!(list.len(), 2);
        assert_eq!(list[0].node, 3);
        assert_eq!(list[0].score, 2.5);
        assert_eq!(list[0].body.render(), r#"{"node":3,"rate":2.5}"#);
        assert!(ranked_list(&body, "influencers", "score").is_empty());
    }

    #[test]
    fn seed_site_is_the_earliest_infection_of_the_first_cascade() {
        let body = json::parse(
            r#"{"cascades":[[{"node":5,"time":1.0},{"node":9,"time":0.25}],[{"node":1,"time":0.0}]]}"#,
        )
        .unwrap();
        assert_eq!(seed_site(&body), Some(9));
        assert_eq!(seed_site(&json::parse(r#"{"cascades":[]}"#).unwrap()), None);
        assert_eq!(seed_site(&json::parse("{}").unwrap()), None);
    }

    /// A canned shard: the real listener answering every request with
    /// the same 200 body. Runs until the test process exits.
    fn fake_shard(body: &'static str) -> SocketAddr {
        listen(ListenerConfig::new("127.0.0.1:0", "fake"), move |_, _| {
            Response::text(200, body)
        })
        .unwrap()
        .local_addr()
    }

    /// A dead address: a distinct port in the reserved low range, where
    /// nothing listens, so connections are refused instantly. Low ports
    /// can never collide with another test's `127.0.0.1:0` ephemeral
    /// bind, unlike a bind-then-release reservation.
    fn dead_addr() -> SocketAddr {
        use std::sync::atomic::{AtomicU16, Ordering};
        static NEXT: AtomicU16 = AtomicU16::new(9);
        let port = NEXT.fetch_add(1, Ordering::Relaxed);
        SocketAddr::from(([127, 0, 0, 1], port))
    }

    #[test]
    fn scatter_merges_live_shards_and_reports_the_dead_one() {
        let a = fake_shard(
            r#"{"snapshot_version":4,"observed":1,"candidates":[{"node":0,"rate":3},{"node":2,"rate":1}]}"#,
        );
        let b =
            fake_shard(r#"{"snapshot_version":5,"observed":1,"candidates":[{"node":1,"rate":2}]}"#);
        let dead = dead_addr();
        let manifest = ClusterManifest::round_robin(&[a, b, dead]).unwrap();
        let config = RouterConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            fanout_workers: 4,
            probe_interval: Duration::from_millis(100),
            shard_timeout: Duration::from_secs(2),
            retry: RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            },
            ..RouterConfig::default()
        };
        let handle = start_router(manifest, config).unwrap();
        let addr = handle.local_addr();

        let response = client::request(
            &addr,
            "POST",
            "/v1/predict",
            Some(r#"{"cascade":[{"node":7,"time":0.0}],"top":2}"#),
        )
        .unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
        // Top-2 across shards, highest rate first; the dead shard makes
        // the response partial but never an error.
        assert!(
            response
                .body
                .contains(r#""candidates":[{"node":0,"rate":3},{"node":1,"rate":2}]"#),
            "{}",
            response.body
        );
        assert!(
            response.body.contains(r#""snapshot_version":5"#),
            "{}",
            response.body
        );
        assert!(
            response.body.contains(r#""partial":true"#),
            "{}",
            response.body
        );
        assert!(
            response
                .body
                .contains(r#""shards_responding":2,"shards_total":3"#),
            "{}",
            response.body
        );

        // Health reflects the dead shard once a probe cycle has run.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let health = client::request(&addr, "GET", "/healthz", None).unwrap();
            assert_eq!(health.status, 200);
            if health.body.contains(r#""shards_healthy":2"#) {
                assert!(
                    health.body.contains(r#""status":"degraded""#),
                    "{}",
                    health.body
                );
                break;
            }
            assert!(Instant::now() < deadline, "prober never saw the dead shard");
            std::thread::sleep(Duration::from_millis(25));
        }

        // Unknown paths and methods behave like the single-box daemon.
        assert_eq!(
            client::request(&addr, "GET", "/nope", None).unwrap().status,
            404
        );
        assert_eq!(
            client::request(&addr, "DELETE", "/healthz", None)
                .unwrap()
                .status,
            405
        );
        handle.shutdown();
    }

    #[test]
    fn dead_leader_reads_fail_over_to_its_follower_and_stay_non_partial() {
        // Shard 0: dead leader, live follower. Shard 1: live leader.
        let follower =
            fake_shard(r#"{"snapshot_version":7,"observed":1,"candidates":[{"node":0,"rate":3}]}"#);
        let leader1 =
            fake_shard(r#"{"snapshot_version":7,"observed":1,"candidates":[{"node":1,"rate":2}]}"#);
        let manifest = ClusterManifest::round_robin(&[dead_addr(), leader1])
            .unwrap()
            .with_followers(vec![vec![follower], vec![]])
            .unwrap();
        let handle = start_router(
            manifest,
            RouterConfig {
                addr: "127.0.0.1:0".into(),
                workers: 1,
                fanout_workers: 4,
                shard_timeout: Duration::from_secs(2),
                retry: RetryPolicy {
                    max_attempts: 1,
                    ..RetryPolicy::default()
                },
                ..RouterConfig::default()
            },
        )
        .unwrap();
        let addr = handle.local_addr();

        // Reads fail over to the follower inside the scatter task: both
        // shards respond and the merge is complete, never partial.
        for _ in 0..3 {
            let response = client::request(
                &addr,
                "POST",
                "/v1/predict",
                Some(r#"{"cascade":[{"node":7,"time":0.0}],"top":2}"#),
            )
            .unwrap();
            assert_eq!(response.status, 200, "{}", response.body);
            assert!(
                response.body.contains(r#""partial":false"#),
                "{}",
                response.body
            );
            assert!(
                response
                    .body
                    .contains(r#""shards_responding":2,"shards_total":2"#),
                "{}",
                response.body
            );
            assert!(
                response
                    .body
                    .contains(r#""candidates":[{"node":0,"rate":3},{"node":1,"rate":2}]"#),
                "{}",
                response.body
            );
        }

        // Ingest never lands on the follower: with shard 0's leader
        // dead it fails over to shard 1's leader.
        let ingest = client::request(
            &addr,
            "POST",
            "/v1/ingest",
            Some(r#"{"cascades":[[{"node":0,"time":0.0}]]}"#),
        )
        .unwrap();
        assert_eq!(ingest.status, 200, "{}", ingest.body);

        // Health distinguishes the dead leader from its live follower.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let health = client::request(&addr, "GET", "/healthz", None).unwrap();
            assert_eq!(health.status, 200);
            if health.body.contains(r#""healthy":false"#) {
                assert!(
                    health.body.contains(r#""followers_total":1"#),
                    "{}",
                    health.body
                );
                assert!(
                    health.body.contains(&format!(
                        r#""followers":[{{"addr":"{follower}","healthy":true}}]"#
                    )),
                    "{}",
                    health.body
                );
                assert!(
                    health.body.contains(r#""status":"degraded""#),
                    "{}",
                    health.body
                );
                break;
            }
            assert!(
                Instant::now() < deadline,
                "prober never saw the dead leader"
            );
            std::thread::sleep(Duration::from_millis(25));
        }
        handle.shutdown();
    }

    #[test]
    fn full_outage_stays_http_200_and_clearly_partial() {
        let manifest = ClusterManifest::round_robin(&[dead_addr(), dead_addr()]).unwrap();
        let config = RouterConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            fanout_workers: 2,
            shard_timeout: Duration::from_millis(500),
            retry: RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            },
            ..RouterConfig::default()
        };
        let handle = start_router(manifest, config).unwrap();
        let addr = handle.local_addr();
        let response = client::request(
            &addr,
            "POST",
            "/v1/predict",
            Some(r#"{"cascade":[{"node":0,"time":0.0}]}"#),
        )
        .unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
        assert!(
            response.body.contains(r#""candidates":[]"#),
            "{}",
            response.body
        );
        assert!(
            response.body.contains(r#""partial":true"#),
            "{}",
            response.body
        );
        assert!(
            response.body.contains(r#""shards_responding":0"#),
            "{}",
            response.body
        );
        // Ingest has nowhere to go: 503 is the honest answer for a
        // write (the client retries), but reads above never 5xx.
        let ingest = client::request(
            &addr,
            "POST",
            "/v1/ingest",
            Some(r#"{"cascades":[[{"node":0,"time":0.0}]]}"#),
        )
        .unwrap();
        assert_eq!(ingest.status, 503);
        handle.shutdown();
    }

    #[test]
    fn ingest_routes_to_a_live_shard_and_forwards_its_receipt() {
        let body = r#"{"snapshot_version":2,"accepted":1,"rejected":0,"dropped":0,"buffered":1,"errors":[]}"#;
        let a = fake_shard(body);
        let b = fake_shard(body);
        let manifest = ClusterManifest::round_robin(&[a, b]).unwrap();
        let handle = start_router(
            manifest,
            RouterConfig {
                addr: "127.0.0.1:0".into(),
                workers: 1,
                ..RouterConfig::default()
            },
        )
        .unwrap();
        let response = client::request(
            &handle.local_addr(),
            "POST",
            "/v1/ingest",
            Some(r#"{"cascades":[[{"node":3,"time":0.0},{"node":4,"time":1.0}]]}"#),
        )
        .unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
        assert!(
            response.body.contains(r#""accepted":1"#),
            "{}",
            response.body
        );
        handle.shutdown();
    }

    #[test]
    fn ingest_goes_to_the_leader_of_seed_mod_n_then_to_the_next() {
        // Each fake leader answers with a body naming its own index.
        let live = [
            fake_shard(r#"{"shard":0}"#),
            fake_shard(r#"{"shard":1}"#),
            fake_shard(r#"{"shard":2}"#),
        ];
        for dead in [None, Some(0), Some(1), Some(2)] {
            let mut addrs = live;
            if let Some(d) = dead {
                addrs[d] = dead_addr();
            }
            let handle = start_router(
                ClusterManifest::round_robin(&addrs).unwrap(),
                RouterConfig {
                    addr: "127.0.0.1:0".into(),
                    workers: 1,
                    retry: RetryPolicy {
                        max_attempts: 1,
                        ..RetryPolicy::default()
                    },
                    ..RouterConfig::default()
                },
            )
            .unwrap();
            for seed in 0..6usize {
                let owner = seed % 3;
                let expect = if dead == Some(owner) {
                    (owner + 1) % 3
                } else {
                    owner
                };
                let body = format!(r#"{{"cascades":[[{{"node":{seed},"time":0.0}}]]}}"#);
                let response =
                    client::request(&handle.local_addr(), "POST", "/v1/ingest", Some(&body))
                        .unwrap();
                assert_eq!(response.status, 200, "seed {seed}, dead {dead:?}");
                assert_eq!(
                    response.body,
                    format!(r#"{{"shard":{expect}}}"#),
                    "seed {seed}, dead {dead:?}"
                );
            }
            handle.shutdown();
        }
    }
}
