//! The kill-loop resilience harness behind `viralcast chaos`.
//!
//! The harness answers one question the unit tests cannot: does the
//! daemon's durability story hold up when the process is killed — not
//! stopped — while real load is in flight? It spawns `viralcast serve`
//! as a child process over a durable `--data-dir`, drives it with a
//! closed-loop ingest-heavy workload whose every cascade carries its
//! sequence number *inside the payload*, and then repeatedly SIGKILLs
//! and restarts the daemon mid-traffic. After the last cycle it kills
//! the child one final time and replays the data directory in-process:
//! every ingest the daemon ever acknowledged (HTTP 200) must come back
//! out of the log. One missing acked record fails the run.
//!
//! Beyond the loss check, the harness measures the *shape* of each
//! disruption: how long the daemon takes to answer `/healthz` again
//! after a kill (recovery p50/p99), how much worse latency gets while
//! the process is down and restarting (`p99_degradation` =
//! disrupted p99 / steady p99), how much load was shed (429/503), and
//! whether any request failed with a 5xx *after* recovery — the signal
//! that a restart corrupted state rather than losing time. The report
//! lands in `BENCH_chaos.json` with the same envelope as the other
//! bench harnesses.
//!
//! The workload client is [`viralcast_serve::client::request_with_retry`],
//! so workers ride out each restart with capped jittered backoff instead
//! of dying with the daemon; exhausted retry budgets are reported as
//! `io_errors` but only acked-record loss and recovery timeouts fail
//! the run.

use std::collections::BTreeSet;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};
use viralcast_obs::{self as obs, JsonValue};
use viralcast_propagation::Cascade;
use viralcast_serve::client;
use viralcast_store::{EventStore, WalOptions};

/// One chaos run's knobs.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Embeddings file the child daemon serves (embed backend only).
    pub embeddings: PathBuf,
    /// Backend id the child daemons boot with (`"embed"` or `"netinf"`).
    pub backend: String,
    /// Cascade corpus the netinf backend fits at boot (netinf only).
    pub corpus: Option<PathBuf>,
    /// Durable data directory for the child; must be empty or absent so
    /// the final replay verifies exactly this run's traffic.
    pub data_dir: PathBuf,
    /// Concurrent closed-loop workers.
    pub workers: usize,
    /// Kill/restart cycles (the child also dies once more at the end,
    /// before the replay verification).
    pub cycles: u32,
    /// Steady-state load before each kill (and after the last recovery).
    pub steady: Duration,
    /// How long a restarted daemon gets to answer `/healthz` again.
    pub recovery_timeout: Duration,
    /// Seed for the workers' retry jitter.
    pub seed: u64,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            embeddings: PathBuf::new(),
            backend: "embed".to_string(),
            corpus: None,
            data_dir: PathBuf::new(),
            workers: 4,
            cycles: 3,
            steady: Duration::from_secs(2),
            recovery_timeout: Duration::from_secs(30),
            seed: 1,
        }
    }
}

/// What one chaos run measured and verified.
#[derive(Clone, Debug)]
pub struct ChaosSummary {
    /// Kill/restart cycles completed.
    pub kill_cycles: u32,
    /// Ingests the daemon acknowledged with HTTP 200.
    pub acked: u64,
    /// Acked sequence numbers recovered from the final replay.
    pub recovered: u64,
    /// Acked sequence numbers **missing** from the final replay. Must
    /// be empty; anything else is durability loss.
    pub missing: Vec<u64>,
    /// Per-cycle kill-to-healthy times, milliseconds.
    pub recovery_ms: Vec<f64>,
    /// Median recovery time.
    pub recovery_p50_ms: Option<f64>,
    /// 99th-percentile recovery time.
    pub recovery_p99_ms: Option<f64>,
    /// Request p50 while no kill was in progress.
    pub steady_p50_ms: Option<f64>,
    /// Request p99 while no kill was in progress.
    pub steady_p99_ms: Option<f64>,
    /// Request p50 across kill/restart windows.
    pub disrupted_p50_ms: Option<f64>,
    /// Request p99 across kill/restart windows.
    pub disrupted_p99_ms: Option<f64>,
    /// `disrupted_p99_ms / steady_p99_ms` (None without both).
    pub p99_degradation: Option<f64>,
    /// Final 429/503 responses after the retry budget.
    pub shed: u64,
    /// `shed / (acked + shed)` (0 when no requests).
    pub shed_rate: f64,
    /// Exchanges that failed below HTTP even after retries.
    pub io_errors: u64,
    /// Extra attempts the retry layer issued.
    pub retries: u64,
    /// 5xx responses observed while the daemon was supposedly healthy.
    pub post_recovery_5xx: u64,
}

impl ChaosSummary {
    /// The summary as run-report attributes (the `BENCH_chaos.json`
    /// payload beyond the standard report envelope).
    pub fn attrs(&self) -> Vec<(String, JsonValue)> {
        let opt = |v: Option<f64>| v.map_or(JsonValue::Null, JsonValue::from);
        vec![
            ("kill_cycles".into(), u64::from(self.kill_cycles).into()),
            ("acked".into(), self.acked.into()),
            ("recovered".into(), self.recovered.into()),
            ("missing".into(), self.missing.len().into()),
            (
                "recovery_ms".into(),
                JsonValue::obj(vec![
                    ("p50", opt(self.recovery_p50_ms)),
                    ("p99", opt(self.recovery_p99_ms)),
                    (
                        "samples",
                        JsonValue::Arr(self.recovery_ms.iter().map(|&ms| ms.into()).collect()),
                    ),
                ]),
            ),
            ("steady_p50_ms".into(), opt(self.steady_p50_ms)),
            ("steady_p99_ms".into(), opt(self.steady_p99_ms)),
            ("disrupted_p50_ms".into(), opt(self.disrupted_p50_ms)),
            ("disrupted_p99_ms".into(), opt(self.disrupted_p99_ms)),
            ("p99_degradation".into(), opt(self.p99_degradation)),
            ("shed".into(), self.shed.into()),
            ("shed_rate".into(), self.shed_rate.into()),
            ("io_errors".into(), self.io_errors.into()),
            ("retries".into(), self.retries.into()),
            ("post_recovery_5xx".into(), self.post_recovery_5xx.into()),
        ]
    }
}

/// The ingest body for sequence number `seq`: a two-infection cascade
/// whose second infection fires at `t = seq + 1`, so the sequence
/// number survives the trip through HTTP, the WAL, and replay. `nodes`
/// is the served model's node count (must be ≥ 2 for a valid cascade).
fn encode_seq_body(seq: u64, nodes: usize) -> String {
    let n = (nodes as u64).max(2);
    let a = seq % n;
    let mut b = (seq + 1) % n;
    if b == a {
        b = (a + 1) % n;
    }
    format!(
        r#"{{"cascades":[[{{"node":{a},"time":0.0}},{{"node":{b},"time":{}.0}}]]}}"#,
        seq + 1
    )
}

/// Recovers the sequence number [`encode_seq_body`] planted in a
/// replayed cascade; `None` for cascades this harness did not write.
fn decode_seq(cascade: &Cascade) -> Option<u64> {
    let infections = cascade.infections();
    if infections.len() != 2 {
        return None;
    }
    // Cascades sort by time, so the marker is always the later one.
    let t = infections[1].time;
    if !t.is_finite() || t < 1.0 {
        return None;
    }
    let seq = (t as u64).checked_sub(1)?;
    // Round-trip check rejects non-integer times from other workloads.
    if (seq + 1) as f64 == t {
        Some(seq)
    } else {
        None
    }
}

/// What the post-mortem replay of the data directory found.
#[derive(Clone, Debug)]
pub struct VerifyOutcome {
    /// Distinct harness sequence numbers present in the log.
    pub recovered: u64,
    /// Acked sequence numbers absent from the log (sorted).
    pub missing: Vec<u64>,
}

/// Replays `data_dir` in-process (the daemon is dead by now) and checks
/// every acked sequence number against what the log actually holds.
pub fn verify_recovered(data_dir: &Path, acked: &BTreeSet<u64>) -> io::Result<VerifyOutcome> {
    let (store, recovery) = EventStore::open(data_dir, WalOptions::default())?;
    // Read-only pass: skip the close-time sync.
    store.abandon();
    let recovered: BTreeSet<u64> = recovery.pending.iter().filter_map(decode_seq).collect();
    let missing: Vec<u64> = acked.difference(&recovered).copied().collect();
    Ok(VerifyOutcome {
        recovered: recovered.len() as u64,
        missing,
    })
}

/// Extracts the bound address from the daemon's
/// `viralcast-serve listening on http://HOST:PORT (...)` startup line.
fn parse_listen_line(line: &str) -> Option<SocketAddr> {
    let rest = line.split("http://").nth(1)?;
    let addr = rest.split(|c: char| c.is_whitespace() || c == '(').next()?;
    addr.parse().ok()
}

/// Worker phases, shared through an `AtomicU8`.
const PHASE_RUN: u8 = 0;
const PHASE_STOP: u8 = 1;

/// Per-worker tallies, merged after the run.
#[derive(Default)]
struct ChaosWorker {
    acked: Vec<u64>,
    steady_us: Vec<u64>,
    disrupted_us: Vec<u64>,
    shed: u64,
    io_errors: u64,
    retries: u64,
    post_recovery_5xx: u64,
}

/// Everything the workers share with the kill loop.
struct Shared {
    phase: AtomicU8,
    /// Set across each kill → healthy-again window.
    disrupted: AtomicBool,
    /// Global ingest sequence allocator.
    next_seq: AtomicU64,
}

/// Runs the kill loop and returns the measured, verified summary.
///
/// The run itself only errors on harness failures (cannot spawn the
/// daemon, recovery timeout, unreadable data dir); durability loss is
/// reported through [`ChaosSummary::missing`] so the caller can print
/// the evidence before failing.
pub fn run(config: &ChaosConfig) -> Result<ChaosSummary, String> {
    ensure_empty_data_dir(&config.data_dir)?;

    // Every respawn binds the address the first boot was given, so the
    // workers' retries reach the restarted daemon.
    let (mut child, addr) = spawn_daemon(config, "127.0.0.1:0")?;
    let boot_deadline = Instant::now() + config.recovery_timeout;
    await_health(&addr, boot_deadline).map_err(|e| format!("daemon never became healthy: {e}"))?;
    let nodes = probe_node_count(&addr)?;
    let shared = Shared {
        phase: AtomicU8::new(PHASE_RUN),
        disrupted: AtomicBool::new(false),
        next_seq: AtomicU64::new(0),
    };

    let mut results: Vec<ChaosWorker> = Vec::new();
    let mut recovery_ms: Vec<f64> = Vec::new();
    let mut loop_error: Option<String> = None;
    std::thread::scope(|scope| {
        let shared = &shared;
        let handles: Vec<_> = (0..config.workers)
            .map(|w| {
                let seed = config
                    .seed
                    .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(w as u64 + 1));
                scope.spawn(move || worker_loop(shared, addr, nodes, seed))
            })
            .collect();

        for cycle in 1..=config.cycles {
            std::thread::sleep(config.steady);
            shared.disrupted.store(true, Ordering::SeqCst);
            let killed_at = Instant::now();
            child.kill_quietly();
            match spawn_daemon(config, &addr.to_string()) {
                Ok((next_child, _)) => {
                    child = next_child;
                    let deadline = killed_at + config.recovery_timeout;
                    if let Err(e) = await_health(&addr, deadline) {
                        loop_error = Some(format!("cycle {cycle}: {e}"));
                        break;
                    }
                    let elapsed = killed_at.elapsed().as_secs_f64() * 1000.0;
                    recovery_ms.push(elapsed);
                    shared.disrupted.store(false, Ordering::SeqCst);
                    obs::info(
                        "chaos",
                        &format!("cycle {cycle}: recovered in {elapsed:.0} ms"),
                        &[("addr", addr.to_string().into())],
                    );
                }
                Err(e) => {
                    loop_error = Some(format!("cycle {cycle}: respawn failed: {e}"));
                    break;
                }
            }
        }
        if loop_error.is_none() {
            // A final steady window so post-recovery behaviour is observed.
            std::thread::sleep(config.steady);
        }
        shared.phase.store(PHASE_STOP, Ordering::SeqCst);
        for handle in handles {
            results.push(handle.join().unwrap_or_default());
        }
    });
    // The ultimate crash: SIGKILL the survivor, then audit its disk.
    drop(child);
    if let Some(e) = loop_error {
        return Err(e);
    }

    let acked: BTreeSet<u64> = results
        .iter()
        .flat_map(|r| r.acked.iter().copied())
        .collect();
    let verify = verify_recovered(&config.data_dir, &acked)
        .map_err(|e| format!("cannot replay {}: {e}", config.data_dir.display()))?;
    Ok(finish_summary(&results, recovery_ms, &acked, verify))
}

/// Refuses a non-empty data directory (creating it if absent), so the
/// final replay sees exactly this run's traffic.
fn ensure_empty_data_dir(data_dir: &Path) -> Result<(), String> {
    match std::fs::read_dir(data_dir) {
        Ok(mut entries) => {
            if entries.next().is_some() {
                return Err(format!(
                    "data dir {} is not empty; the final replay must see only \
                     this run's traffic (pass a fresh directory)",
                    data_dir.display()
                ));
            }
            Ok(())
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => std::fs::create_dir_all(data_dir)
            .map_err(|e| format!("cannot create {}: {e}", data_dir.display())),
        Err(e) => Err(format!("cannot read {}: {e}", data_dir.display())),
    }
}

/// Folds the per-worker tallies, recovery samples, and replay verdict
/// into the run summary.
fn finish_summary(
    results: &[ChaosWorker],
    recovery_ms: Vec<f64>,
    acked: &BTreeSet<u64>,
    verify: VerifyOutcome,
) -> ChaosSummary {
    let mut steady_us: Vec<u64> = results
        .iter()
        .flat_map(|r| r.steady_us.iter().copied())
        .collect();
    let mut disrupted_us: Vec<u64> = results
        .iter()
        .flat_map(|r| r.disrupted_us.iter().copied())
        .collect();
    steady_us.sort_unstable();
    disrupted_us.sort_unstable();
    let mut recovery_sorted_us: Vec<u64> =
        recovery_ms.iter().map(|&ms| (ms * 1000.0) as u64).collect();
    recovery_sorted_us.sort_unstable();

    let sum = |f: fn(&ChaosWorker) -> u64| results.iter().map(f).sum::<u64>();
    let shed = sum(|r| r.shed);
    let acked_count = acked.len() as u64;
    let steady_p99 = percentile_ms(&steady_us, 0.99);
    let disrupted_p99 = percentile_ms(&disrupted_us, 0.99);
    ChaosSummary {
        kill_cycles: recovery_ms.len() as u32,
        acked: acked_count,
        recovered: verify.recovered,
        missing: verify.missing,
        recovery_p50_ms: percentile_ms(&recovery_sorted_us, 0.50),
        recovery_p99_ms: percentile_ms(&recovery_sorted_us, 0.99),
        recovery_ms,
        steady_p50_ms: percentile_ms(&steady_us, 0.50),
        steady_p99_ms: steady_p99,
        disrupted_p50_ms: percentile_ms(&disrupted_us, 0.50),
        disrupted_p99_ms: disrupted_p99,
        p99_degradation: match (steady_p99, disrupted_p99) {
            (Some(s), Some(d)) if s > 0.0 => Some(d / s),
            _ => None,
        },
        shed,
        shed_rate: if acked_count + shed > 0 {
            shed as f64 / (acked_count + shed) as f64
        } else {
            0.0
        },
        io_errors: sum(|r| r.io_errors),
        retries: sum(|r| r.retries),
        post_recovery_5xx: sum(|r| r.post_recovery_5xx),
    }
}

/// One closed-loop worker: allocate a sequence number, ingest it (every
/// fourth exchange is a predict read instead, so the read path's
/// degradation is measured too), tally the outcome into the steady or
/// disrupted bucket.
fn worker_loop(shared: &Shared, addr: SocketAddr, nodes: usize, seed: u64) -> ChaosWorker {
    let mut result = ChaosWorker::default();
    // Restarts take longer than a shed burst: give chaos workers a
    // deeper retry budget than the client's default.
    let policy = client::RetryPolicy {
        max_attempts: 8,
        max_backoff: Duration::from_millis(500),
        jitter_seed: seed,
        ..client::RetryPolicy::default()
    };
    while shared.phase.load(Ordering::SeqCst) == PHASE_RUN {
        let seq = shared.next_seq.fetch_add(1, Ordering::SeqCst);
        let is_read = seq % 4 == 3;
        let (target, body);
        if is_read {
            target = "/v1/predict";
            body = format!(
                r#"{{"cascade":[{{"node":{},"time":0.0}}],"top":5}}"#,
                seq % nodes.max(1) as u64
            );
        } else {
            target = "/v1/ingest";
            body = encode_seq_body(seq, nodes);
        }
        let trace_id = format!("chaos-{seq:x}");
        let disrupted = shared.disrupted.load(Ordering::SeqCst);
        let started = Instant::now();
        let outcome = client::request_with_retry(
            &addr,
            "POST",
            target,
            Some(&body),
            &[("X-Request-Id", &trace_id)],
            &policy,
        );
        match outcome {
            Ok(retried) => {
                result.retries += u64::from(retried.retries());
                let bucket = if disrupted || retried.retries() > 0 {
                    &mut result.disrupted_us
                } else {
                    &mut result.steady_us
                };
                bucket.push(started.elapsed().as_micros().min(u64::MAX as u128) as u64);
                match retried.response.status {
                    200..=299 if !is_read => result.acked.push(seq),
                    200..=299 => {}
                    429 | 503 => result.shed += 1,
                    500..=599 if !disrupted => result.post_recovery_5xx += 1,
                    _ => {}
                }
            }
            Err(_) => {
                result.retries += u64::from(policy.max_attempts.saturating_sub(1));
                result.io_errors += 1;
            }
        }
    }
    result
}

/// Spawns `viralcast serve` (this same binary) over the chaos data dir,
/// listening on `addr`, and scrapes the bound address from its startup
/// banner (`addr` may ask for an ephemeral port). The trainer
/// is effectively disabled so every acked ingest stays in the WAL for
/// the final replay instead of being folded into a checkpoint.
fn spawn_daemon(config: &ChaosConfig, addr: &str) -> Result<(ChildGuard, SocketAddr), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("serve").arg("--backend").arg(&config.backend);
    match (&config.backend, &config.corpus) {
        (b, Some(corpus)) if b == "netinf" => {
            cmd.arg("--corpus").arg(corpus);
        }
        _ => {
            cmd.arg("--embeddings").arg(&config.embeddings);
        }
    }
    cmd.arg("--data-dir")
        .arg(&config.data_dir)
        .arg("--addr")
        .arg(addr)
        .arg("--fsync")
        .arg("always")
        .arg("--retrain-interval")
        .arg("86400")
        .arg("--min-retrain-batch")
        .arg("1000000000")
        .arg("--ingest-capacity")
        .arg("1000000")
        .arg("--log-level")
        .arg("error")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let mut child = ChildGuard(
        cmd.spawn()
            .map_err(|e| format!("cannot spawn serve child: {e}"))?,
    );
    let stdout = child.0.stdout.take().expect("stdout was piped");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("reading serve child stdout: {e}"))?;
        if n == 0 {
            return Err("serve child exited before announcing its address".into());
        }
        if let Some(addr) = parse_listen_line(&line) {
            // Keep draining in the background so the child never blocks
            // on a full stdout pipe.
            std::thread::spawn(move || {
                let mut sink = String::new();
                while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
                    sink.clear();
                }
            });
            return Ok((child, addr));
        }
    }
}

/// Polls `/healthz` until it answers 200 or the deadline passes.
fn await_health(addr: &SocketAddr, deadline: Instant) -> Result<(), String> {
    loop {
        match client::request(addr, "GET", "/healthz", None) {
            Ok(resp) if resp.status == 200 => return Ok(()),
            _ if Instant::now() > deadline => {
                return Err(format!("daemon at {addr} not healthy before the deadline"));
            }
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Probes `GET /healthz` and returns the served model's node count —
/// the workers sample query nodes from `0..nodes`.
fn probe_node_count(addr: &SocketAddr) -> Result<usize, String> {
    let resp = client::request(addr, "GET", "/healthz", None)
        .map_err(|e| format!("cannot reach {addr}: {e}"))?;
    if resp.status != 200 {
        return Err(format!("/healthz returned {}", resp.status));
    }
    let body = obs::json::parse(&resp.body).map_err(|e| format!("malformed /healthz body: {e}"))?;
    let nodes = obs::json::get(&body, "nodes")
        .and_then(obs::json::as_u64)
        .ok_or("/healthz body lacks a numeric \"nodes\" field")?;
    if nodes == 0 {
        return Err("daemon serves an empty model (0 nodes)".into());
    }
    Ok(nodes as usize)
}

/// Nearest-rank percentile over sorted latency samples, in milliseconds.
fn percentile_ms(sorted_us: &[u64], q: f64) -> Option<f64> {
    if sorted_us.is_empty() {
        return None;
    }
    let rank = (q * (sorted_us.len() as f64 - 1.0)).round() as usize;
    Some(sorted_us[rank.min(sorted_us.len() - 1)] as f64 / 1000.0)
}

/// A spawned child that cannot outlive its owner: dropping the guard
/// kills and reaps it, so no return path — a `?` included — leaves a
/// daemon running over the data directory the audit is about to read.
struct ChildGuard(Child);

impl ChildGuard {
    /// SIGKILL + reap, ignoring an already-dead child.
    fn kill_quietly(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        self.kill_quietly();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viralcast_propagation::Infection;

    #[test]
    fn percentiles_are_nearest_rank_in_ms() {
        let sorted: Vec<u64> = (1..=100).map(|i| i * 1000).collect();
        assert_eq!(percentile_ms(&sorted, 0.50), Some(51.0));
        assert_eq!(percentile_ms(&sorted, 0.99), Some(99.0));
        assert_eq!(percentile_ms(&sorted, 1.0), Some(100.0));
        assert_eq!(percentile_ms(&[], 0.5), None);
    }

    #[test]
    fn seq_survives_the_cascade_round_trip() {
        for seq in [0u64, 1, 7, 4095, 1 << 40] {
            let body = encode_seq_body(seq, 50);
            // The body must be a two-infection cascade with distinct nodes.
            assert!(body.contains("\"cascades\":[["), "{body}");
            let cascade = Cascade::new(vec![
                Infection::new((seq % 50) as u32, 0.0),
                Infection::new(((seq + 1) % 50) as u32, (seq + 1) as f64),
            ])
            .unwrap();
            assert_eq!(decode_seq(&cascade), Some(seq));
        }
    }

    #[test]
    fn encode_keeps_the_two_nodes_distinct() {
        // seq % n == (seq + 1) % n never happens for n ≥ 2, but the
        // guard must also hold for degenerate node counts.
        for nodes in [0usize, 1, 2, 3] {
            for seq in 0..16u64 {
                let body = encode_seq_body(seq, nodes);
                let nodes_in_body: Vec<&str> = body.matches("\"node\":").collect();
                assert_eq!(nodes_in_body.len(), 2, "{body}");
            }
        }
    }

    #[test]
    fn decode_rejects_foreign_cascades() {
        let single = Cascade::new(vec![Infection::new(0u32, 0.0)]).unwrap();
        assert_eq!(decode_seq(&single), None);
        let fractional =
            Cascade::new(vec![Infection::new(0u32, 0.0), Infection::new(1u32, 2.5)]).unwrap();
        assert_eq!(decode_seq(&fractional), None);
        let triple = Cascade::new(vec![
            Infection::new(0u32, 0.0),
            Infection::new(1u32, 1.0),
            Infection::new(2u32, 2.0),
        ])
        .unwrap();
        assert_eq!(decode_seq(&triple), None);
    }

    #[test]
    fn dropping_the_guard_kills_and_reaps_the_child() {
        let guard = ChildGuard(Command::new("sleep").arg("60").spawn().unwrap());
        let alive = |pid: u32| {
            Command::new("sh")
                .arg("-c")
                .arg(format!("kill -0 {pid} 2>/dev/null"))
                .status()
                .unwrap()
                .success()
        };
        let pid = guard.0.id();
        assert!(alive(pid), "the child never started");
        drop(guard);
        assert!(!alive(pid), "pid {pid} survived its guard");
    }

    #[test]
    fn listen_lines_parse_to_addresses() {
        let line = "viralcast-serve listening on http://127.0.0.1:41523 (200 nodes × 4 topics)";
        assert_eq!(
            parse_listen_line(line),
            Some("127.0.0.1:41523".parse().unwrap())
        );
        assert_eq!(parse_listen_line("press ctrl-c to stop"), None);
        assert_eq!(parse_listen_line("listening on http://not-an-addr"), None);
    }

    #[test]
    fn summary_attrs_cover_the_bench_chaos_schema() {
        let summary = ChaosSummary {
            kill_cycles: 3,
            acked: 100,
            recovered: 100,
            missing: vec![],
            recovery_ms: vec![120.0, 140.0, 90.0],
            recovery_p50_ms: Some(120.0),
            recovery_p99_ms: Some(140.0),
            steady_p50_ms: Some(1.0),
            steady_p99_ms: Some(4.0),
            disrupted_p50_ms: Some(10.0),
            disrupted_p99_ms: Some(40.0),
            p99_degradation: Some(10.0),
            shed: 5,
            shed_rate: 5.0 / 105.0,
            io_errors: 2,
            retries: 9,
            post_recovery_5xx: 0,
        };
        let json = JsonValue::Obj(summary.attrs()).render();
        for needle in [
            "\"kill_cycles\":3",
            "\"acked\":100",
            "\"recovered\":100",
            "\"missing\":0",
            "\"recovery_ms\":{\"p50\":120",
            "\"p99_degradation\":10",
            "\"shed_rate\":",
            "\"post_recovery_5xx\":0",
        ] {
            assert!(json.contains(needle), "{needle} missing from {json}");
        }
    }
}
