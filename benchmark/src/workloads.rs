//! The four workloads. Names, shapes and sizes are fixed: later issues
//! cite them. Each `run_*` does its whole set-up from the seed (timed
//! from process start as `setup_s`), measures one window, checks the
//! outputs, and — in a traced run — adds the per-layer probes and writes
//! the trace file.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use viralcast::embed::Embeddings;
use viralcast::graph::NodeId;
use viralcast::model::CascadeModel;
use viralcast::obs::{HistogramSnapshot, MetricsSnapshot};
use viralcast::predict::pipeline::{extract_dataset, threshold_sweep, PredictionTask};
use viralcast::propagation::Cascade;
use viralcast::serve::{client, ModelSnapshot, ServeConfig, ServerHandle, TrainerConfig};
use viralcast::store::{EventStore, FsyncPolicy, WalOptions};
use viralcast::SbmExperiment;

use crate::fixture::{self, Cluster, Running, TempDir, OUT_DIR};
use crate::gen::{self, Ask, Op};
use crate::load::{self, Client, LoadOutcome};
use crate::oracle;
use crate::probes::{self, Layers, ProbeInputs};
use crate::report::RunReport;
use crate::stats;
use crate::sys;
use crate::trace::Trace;
use crate::window::{Tally, Window};

/// Pre-generated operations each HTTP client cycles through.
const OPS: usize = 1024;

/// What `viralbench run` was asked for.
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Window length (fixed-work job count for `train_sbm`).
    pub seconds: u64,
    /// Traced (per-layer) run.
    pub traced: bool,
    /// As early in `main` as possible.
    pub process_start: Instant,
}

/// Dispatches on the workload name. The HTTP workloads leave the cores
/// idle between requests, so they run beside [`sys::keep_awake`]'s
/// spinners; `train_sbm` keeps both cores busy by itself.
pub fn run(args: &RunArgs) -> Result<RunReport, String> {
    let http = match args.workload.as_str() {
        "train_sbm" => return run_train_sbm(args),
        "read_scan" => run_read_scan,
        "cluster_read" => run_cluster_read,
        "ingest_mixed" => run_ingest_mixed,
        other => {
            return Err(format!(
                "unknown workload `{other}` (train_sbm, read_scan, cluster_read, ingest_mixed)"
            ))
        }
    };
    if !sys::keep_awake() {
        eprintln!("viralbench: the kernel refused SCHED_IDLE; idle cores will halt");
    }
    http(args)
}

/// Names the phases of a set-up and how long each took, for the notes:
/// where boot-to-ready time goes.
struct Phases {
    last: Instant,
    parts: Vec<String>,
}

impl Phases {
    /// Closes the phase that began when the previous one closed.
    fn lap(&mut self, name: &str) {
        let now = Instant::now();
        self.parts.push(format!(
            "{name} {:.2} s",
            now.duration_since(self.last).as_secs_f64()
        ));
        self.last = now;
    }
}

/// Builds the workload's fixture once and times it from process start:
/// `setup_s` is boot-to-ready, first correct answer included.
fn set_up<F>(
    args: &RunArgs,
    build: impl FnOnce(&mut Phases) -> Result<F, String>,
) -> Result<(F, f64, String), String> {
    let mut phases = Phases {
        last: args.process_start,
        parts: Vec::new(),
    };
    let fixture = build(&mut phases)?;
    let setup_s = args.process_start.elapsed().as_secs_f64();
    Ok((
        fixture,
        setup_s,
        format!("set-up {setup_s:.2} s: {}", phases.parts.join(", ")),
    ))
}

fn counter_delta(registry: &(MetricsSnapshot, MetricsSnapshot), name: &str) -> f64 {
    let at = |snapshot: &MetricsSnapshot| snapshot.counters.get(name).copied().unwrap_or(0);
    at(&registry.1).saturating_sub(at(&registry.0)) as f64
}

/// The observations a histogram gained inside the window.
fn histogram_delta(
    registry: &(MetricsSnapshot, MetricsSnapshot),
    name: &str,
) -> Option<HistogramSnapshot> {
    let after = registry.1.histograms.get(name)?;
    let Some(before) = registry.0.histograms.get(name) else {
        return Some(after.clone());
    };
    Some(HistogramSnapshot {
        bounds: after.bounds.clone(),
        buckets: after
            .buckets
            .iter()
            .zip(&before.buckets)
            .map(|(a, b)| a - b)
            .collect(),
        count: after.count - before.count,
        sum: after.sum - before.sum,
        min: after.min,
        max: after.max,
    })
}

/// The five end-to-end metrics, in table order.
fn end_to_end(
    setup_s: f64,
    throughput_rps: f64,
    latency_p50_ms: f64,
    cpu_ms_per_op: f64,
) -> Vec<(String, f64)> {
    vec![
        ("setup_s".into(), setup_s),
        ("throughput_rps".into(), throughput_rps),
        ("latency_p50_ms".into(), latency_p50_ms),
        ("cpu_ms_per_op".into(), cpu_ms_per_op),
        ("peak_rss_mb".into(), sys::peak_rss_mib()),
    ]
}

/// Checks every kept response with `check`, marks wrong answers as
/// failed operations, and returns the complaints.
fn verify_kept(
    outcome: &mut LoadOutcome,
    clients: &[Client<'_>],
    check: impl Fn(&Op, &str) -> Result<(), String>,
) -> Vec<String> {
    let mut errors = Vec::new();
    for kept in &outcome.kept {
        let sample = &mut outcome.samples[kept.client][kept.sample];
        let op = &clients[kept.client].ops[sample.op as usize];
        if let Err(e) = check(op, &kept.body) {
            sample.ok = false;
            if errors.len() < 5 {
                errors.push(format!("{} {}: {e}", op.method, op.target));
            }
        }
    }
    errors
}

/// What every HTTP workload reports once its window is tallied: counts
/// and latencies of the primary operation and of everything, and the
/// process CPU time the window cost.
struct HttpSummary {
    primary: Tally,
    everything: Tally,
    window: Window,
    cpu_ms: f64,
}

impl HttpSummary {
    fn of(outcome: &LoadOutcome) -> HttpSummary {
        HttpSummary {
            primary: Tally::of(outcome.all_samples(), &outcome.window, |s| s.primary),
            everything: Tally::of(outcome.all_samples(), &outcome.window, |_| true),
            window: outcome.window,
            cpu_ms: outcome.cpu_ms,
        }
    }

    fn throughput(&self) -> f64 {
        self.primary.throughput(&self.window)
    }

    fn p50(&self) -> f64 {
        self.primary.latency_ms(0.5).unwrap_or(0.0)
    }

    fn cpu_ms_per_op(&self) -> f64 {
        self.cpu_ms / self.primary.succeeded().max(1) as f64
    }

    fn end_to_end(&self, setup_s: f64) -> Vec<(String, f64)> {
        end_to_end(setup_s, self.throughput(), self.p50(), self.cpu_ms_per_op())
    }

    /// A complaint when any operation in the window failed.
    fn failures(&self) -> Option<String> {
        let failed = self.everything.failed;
        (failed > 0).then(|| format!("{failed} operation(s) failed in the window"))
    }

    /// The sample count behind the latency quantiles, and how many
    /// observations lie beyond each reported tail percentile (a
    /// percentile with fewer than ten beyond it is a single-digit
    /// handful of requests, not a distribution).
    fn support(&self) -> String {
        let n = self.primary.latencies_ms.len();
        format!(
            "latency quantiles over {n} samples; {} beyond p95, {} beyond p99",
            stats::samples_beyond(n, 0.95),
            stats::samples_beyond(n, 0.99)
        )
    }
}

/// The per-layer numbers every HTTP workload derives from its own
/// window: tail latency, sample count, transport errors, the serve
/// counters, and the traced run's end-to-end pair.
fn window_layers(layers: &mut Layers, outcome: &LoadOutcome, summary: &HttpSummary) {
    let seconds = summary.window.length().as_secs_f64();
    layers.set(
        "bench.latency_p95_ms",
        summary.primary.latency_ms(0.95).unwrap_or(0.0),
    );
    layers.set(
        "bench.latency_p99_ms",
        summary.primary.latency_ms(0.99).unwrap_or(0.0),
    );
    layers.set("bench.samples", summary.primary.succeeded() as f64);
    layers.set("bench.connect_errors", outcome.transport_errors as f64);
    layers.set(
        "serve.requests",
        counter_delta(&outcome.registry, "serve.http.requests"),
    );
    layers.set(
        "serve.overload",
        counter_delta(&outcome.registry, "serve.http.overload"),
    );
    layers.set(
        "serve.errors",
        counter_delta(&outcome.registry, "serve.http.errors"),
    );
    layers.set(
        "serve.ingest_shed",
        counter_delta(&outcome.registry, "serve.ingest.shed_total"),
    );
    let runs = counter_delta(&outcome.registry, "serve.retrain.runs");
    layers.set("serve.retrain_runs", runs);
    layers.set(
        "serve.retrain_cascades",
        counter_delta(&outcome.registry, "serve.retrain.cascades"),
    );
    if let Some(retrain) = histogram_delta(&outcome.registry, "serve.retrain.seconds") {
        layers.set(
            "serve.retrain_mean_ms",
            if retrain.count > 0 {
                retrain.sum / retrain.count as f64 * 1e3
            } else {
                0.0
            },
        );
        layers.set("serve.trainer_busy_share", retrain.sum / seconds);
    }
    if let Some(lag) = histogram_delta(&outcome.registry, "serve.ingest_to_publish_ms") {
        layers.set("serve.publish_lag_p50_ms", lag.p50().unwrap_or(0.0));
    }
    layers.set("traced.throughput_rps", summary.throughput());
    layers.set("traced.latency_p50_ms", summary.p50());
}

/// Turns the load loop's operation records into spans, one request id
/// per operation.
fn loop_spans(trace: &mut Trace, outcome: &LoadOutcome) {
    for (id, sample) in outcome.all_samples().enumerate() {
        trace.record(
            "bench.loop_request",
            sample.start,
            sample.end,
            None,
            id as u64,
        );
    }
}

fn write_trace(trace: &Trace, args: &RunArgs, notes: &mut Vec<String>) -> Result<(), String> {
    let path = std::path::Path::new(OUT_DIR).join(format!("{}.trace.json", args.workload));
    trace
        .write(&path, &args.workload, args.seed)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let layers: Vec<String> = trace
        .self_ms_by_layer()
        .iter()
        .map(|(layer, ms)| format!("{layer} {ms:.1} ms"))
        .collect();
    notes.push(format!(
        "{} spans written to {}",
        trace.spans().len(),
        path.display()
    ));
    notes.push(format!("self time by layer: {}", layers.join(", ")));
    Ok(())
}

/// Operations in the window: attempted, failed, and correct primary
/// ones (the samples behind the quantiles).
struct Counts {
    attempted: u64,
    failed: u64,
    samples: u64,
}

impl Counts {
    fn of(summary: &HttpSummary) -> Counts {
        Counts {
            attempted: summary.everything.attempted,
            failed: summary.everything.failed,
            samples: summary.primary.succeeded(),
        }
    }
}

/// The run's report: per-layer metrics when the run was traced,
/// end-to-end metrics otherwise; correct when nothing was complained of.
fn finish(
    args: &RunArgs,
    counts: Counts,
    e2e: Vec<(String, f64)>,
    layers: Option<Layers>,
    notes: Vec<String>,
    errors: Vec<String>,
) -> RunReport {
    RunReport {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        correct: errors.is_empty(),
        attempted: counts.attempted,
        failed: counts.failed,
        samples: counts.samples,
        metrics: match layers {
            Some(layers) => layers
                .in_table_order()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            None => e2e,
        },
        notes,
        errors,
    }
}

/// A scan-sized (64 seeds, top 100) and a small (4 seeds, top 10)
/// predict over `world`'s held-out cascades, shifted into tile `tile`.
fn predict_ops(world: &SbmExperiment, index: usize, tile: usize) -> (Op, Op) {
    let offset = (tile * world.train().node_count()) as u32;
    let scan = gen::predict_op(
        &gen::early_adopters(world.test(), index, SCAN_SEEDS, offset),
        SCAN_TOP,
    );
    let small = gen::predict_op(
        &gen::early_adopters(world.test(), index, SMALL_SEEDS, offset),
        SMALL_TOP,
    );
    (scan, small)
}

const SCAN_SEEDS: usize = 64;
const SCAN_TOP: usize = 100;
const SMALL_SEEDS: usize = 4;
const SMALL_TOP: usize = 10;

// ---------------------------------------------------------------- train_sbm

/// Corpus shape of one training job. The issue sized jobs at 2000 nodes
/// and 1000 cascades expecting ≈ 0.85 s each; measured here that fit
/// takes 3.9 s, so the job is cut to the shape that does take ≈ 0.5 s
/// and the run holds more of them.
const TRAIN_NODES: usize = 1000;
const TRAIN_CASCADES: usize = 400;
const TRAIN_HELD_OUT: usize = 400;
const TRAIN_TOPICS: usize = 8;

/// Jobs per second of requested window: fixed work, not fixed time.
const JOBS_PER_SECOND: f64 = 2.0;

struct JobResult {
    embeddings: Embeddings,
    f1: f64,
    fit_error: Option<String>,
}

/// One job: the paper's offline pipeline end to end on one corpus.
fn train_job(world: &SbmExperiment, trace: Option<(&mut Trace, u64)>) -> JobResult {
    let task = PredictionTask::default();
    let start = Instant::now();
    let outcome = gen::fit(world.train(), TRAIN_TOPICS);
    let fitted = Instant::now();
    let dataset = extract_dataset(&outcome.embeddings, world.test(), &task);
    let extracted = Instant::now();
    let threshold = dataset.top_fraction_threshold(0.2);
    let f1 = threshold_sweep(&dataset, &[threshold], &task)
        .first()
        .map_or(f64::NAN, |p| p.f1);
    let end = Instant::now();
    if let Some((trace, job)) = trace {
        let parent = trace.record("bench.job", start, end, None, job);
        trace.record("core.infer_embeddings", start, fitted, Some(parent), job);
        trace.record(
            "predict.extract_dataset",
            fitted,
            extracted,
            Some(parent),
            job,
        );
        trace.record("predict.threshold_sweep", extracted, end, Some(parent), job);
    }
    JobResult {
        fit_error: oracle::check_fit(&outcome.embeddings, &outcome.report).err(),
        embeddings: outcome.embeddings,
        f1,
    }
}

struct TrainFixture {
    worlds: Vec<SbmExperiment>,
    warm: JobResult,
}

fn run_train_sbm(args: &RunArgs) -> Result<RunReport, String> {
    let jobs = ((args.seconds as f64 * JOBS_PER_SECOND).round() as usize).max(3);
    let (fixture, setup_s, setup_note) = set_up(args, |phases| {
        // One corpus per job, all simulated here; then one unmeasured
        // job whose answer is checked — the batch analogue of "first
        // correct answer".
        let worlds: Vec<SbmExperiment> = (0..jobs)
            .map(|job| {
                gen::sbm_local_world(
                    TRAIN_NODES,
                    TRAIN_CASCADES,
                    TRAIN_HELD_OUT,
                    gen::sub_seed(args.seed, job as u64),
                )
            })
            .collect();
        phases.lap("corpora");
        let warm = train_job(&worlds[0], None);
        if let Some(e) = &warm.fit_error {
            return Err(format!("warm-up job: {e}"));
        }
        phases.lap("first job");
        Ok(TrainFixture { worlds, warm })
    })?;

    let mut trace = args.traced.then(|| Trace::new(args.process_start));
    let mut errors = Vec::new();
    let mut job_seconds = Vec::with_capacity(jobs);
    let mut job_cpu_ms = Vec::with_capacity(jobs);
    let mut job_f1 = Vec::with_capacity(jobs);
    let mut failed = 0u64;
    for (job, world) in fixture.worlds.iter().enumerate() {
        let (start, cpu_start) = (Instant::now(), sys::process_cpu_ns());
        let result = train_job(world, trace.as_mut().map(|t| (t, job as u64)));
        job_seconds.push(start.elapsed().as_secs_f64());
        job_cpu_ms.push((sys::process_cpu_ns() - cpu_start) as f64 / 1e6);
        job_f1.push(result.f1);
        if let Some(e) = result.fit_error {
            failed += 1;
            if errors.len() < 5 {
                errors.push(format!("job {job}: {e}"));
            }
        }
    }
    errors.extend(oracle::check_f1(&job_f1).err());

    // Fixed work: jobs per second of total job time, so a slow tail or
    // a failed job lowers it; the median job for latency and for CPU —
    // a job is this workload's slice.
    let total: f64 = job_seconds.iter().sum();
    let succeeded = jobs as u64 - failed;
    let job_ms: Vec<f64> = job_seconds.iter().map(|s| s * 1e3).collect();
    let p50_ms = stats::median(&job_ms).unwrap_or(0.0);
    let throughput = succeeded as f64 / total;
    let cpu_ms_per_op = stats::median(&job_cpu_ms).unwrap_or(0.0);
    let mut notes = vec![
        format!(
            "{jobs} jobs of {TRAIN_NODES} nodes / {TRAIN_CASCADES} train + {TRAIN_HELD_OUT} held-out cascades / K = {TRAIN_TOPICS}; total job time {total:.2} s"
        ),
        setup_note,
        format!(
            "all jobs: mean {:.1} ms, mean {:.1} CPU ms/job",
            total * 1e3 / jobs as f64,
            job_cpu_ms.iter().sum::<f64>() / jobs as f64
        ),
        format!(
            "job F1 at the top-20% threshold: median {:.3} (floor {})",
            stats::median(&job_f1).unwrap_or(f64::NAN),
            oracle::F1_FLOOR
        ),
    ];
    let e2e = end_to_end(setup_s, throughput, p50_ms, cpu_ms_per_op);

    let layers = match trace.as_mut() {
        None => None,
        Some(trace) => {
            let mut layers = Layers::zeroed();
            let model = gen::backend(fixture.warm.embeddings.clone());
            let (scan, small) = predict_ops(&fixture.worlds[0], 0, 0);
            probes::offline(
                &ProbeInputs {
                    model: &model,
                    fitted: &model,
                    world: &fixture.worlds[0],
                    topics: TRAIN_TOPICS,
                    scan: &scan,
                    small: &small,
                },
                trace,
                &mut layers,
            )?;
            let sorted = stats::sorted(&job_seconds);
            layers.set(
                "bench.latency_p95_ms",
                stats::quantile_sorted(&sorted, 0.95).unwrap_or(0.0) * 1e3,
            );
            layers.set(
                "bench.latency_p99_ms",
                stats::quantile_sorted(&sorted, 0.99).unwrap_or(0.0) * 1e3,
            );
            layers.set("bench.samples", succeeded as f64);
            layers.set("traced.throughput_rps", throughput);
            layers.set("traced.latency_p50_ms", p50_ms);
            write_trace(trace, args, &mut notes)?;
            Some(layers)
        }
    };
    let counts = Counts {
        attempted: jobs as u64,
        failed,
        samples: succeeded,
    };
    Ok(finish(args, counts, e2e, layers, notes, errors))
}

// ---------------------------------------------------------------- read_scan

/// The world every served model is fitted on.
const SERVE_NODES: usize = 2000;
/// Training cascades of every served fit. 800 of them give the
/// co-occurrence stage 2.3 to 2.5 million ordered pairs on every seed
/// tried, well inside the 1.84 to 3.67 million between which its hash
/// table keeps one size. The growth into that size is the process's
/// memory peak, so `peak_rss_mb` reads the same on every seed (with 200
/// to 300 cascades it followed the pair count and moved by a quarter
/// between seeds), and the fit is 3 to 3.5 s of work.
const SERVE_TRAIN: usize = 800;
const SERVE_HELD_OUT: usize = 100;

/// `read_scan` serves that fit at K = 16, tiled until the scan
/// dominates. The issue's starting point, 20 000 rows, scans in 10 ms —
/// only as long as one `ACCEPT_POLL` sleep, so half of p50;
/// 30 × 2000 = 60 000 rows scan in ≈ 30 ms, which puts `model.rank_us`
/// above 60 % of p50 and the transport floor near 25 %.
const SCAN_TOPICS: usize = 16;
const SCAN_TILES: usize = 30;

/// Asks `op` once and checks the answer: the last step of every HTTP
/// set-up ("first correct answer").
fn first_answer(
    addr: &SocketAddr,
    op: &Op,
    check: impl Fn(&str) -> Result<(), String>,
) -> Result<(), String> {
    let response =
        client::request_with_headers(addr, op.method, &op.target, op.body.as_deref(), &[])
            .map_err(|e| format!("first request failed: {e}"))?;
    if response.status != 200 {
        return Err(format!(
            "first request answered {}: {}",
            response.status, response.body
        ));
    }
    check(&response.body).map_err(|e| format!("first answer is wrong: {e}"))
}

struct ScanFixture {
    daemon: Running<ServerHandle>,
    /// The served, tiled model.
    model: Arc<dyn CascadeModel>,
    /// The fit it was tiled from.
    fitted: Arc<dyn CascadeModel>,
    snapshot: ModelSnapshot,
    world: SbmExperiment,
    ops: Vec<Op>,
    pauses: Vec<Duration>,
}

fn run_read_scan(args: &RunArgs) -> Result<RunReport, String> {
    let (fixture, setup_s, setup_note) = set_up(args, |phases| {
        let world = gen::sbm_local_world(SERVE_NODES, SERVE_TRAIN, SERVE_HELD_OUT, args.seed);
        phases.lap("corpus");
        let fitted = gen::fit(world.train(), SCAN_TOPICS);
        oracle::check_fit(&fitted.embeddings, &fitted.report)?;
        phases.lap("fit");
        let model = gen::backend(gen::tile(
            &fitted.embeddings,
            SCAN_TILES,
            gen::sub_seed(args.seed, 1),
        ));
        let ops: Vec<Op> = (0..OPS)
            .map(|i| predict_ops(&world, i, i % SCAN_TILES).0)
            .collect();
        phases.lap("tile and requests");
        let daemon = fixture::start_daemon(Arc::clone(&model), fixture::serve_config())?;
        let snapshot = oracle::boot_snapshot(&model);
        first_answer(&daemon.local_addr(), &ops[0], |body| {
            oracle::check_single_box(body, &snapshot, &ops[0].ask)
        })?;
        phases.lap("boot and first answer");
        Ok(ScanFixture {
            daemon,
            model,
            fitted: gen::backend(fitted.embeddings),
            snapshot,
            world,
            ops,
            pauses: gen::pauses(gen::sub_seed(args.seed, 2), OPS, load::THINK),
        })
    })?;

    let addr = fixture.daemon.local_addr();
    let clients: Vec<Client<'_>> = (0..sys::THREADS)
        .map(|c| Client {
            addr,
            ops: &fixture.ops,
            first: c * OPS / sys::THREADS,
            primary: true,
            pauses: &fixture.pauses,
        })
        .collect();
    let mut outcome = load::drive(&clients, Duration::from_secs(args.seconds));
    let mut errors = verify_kept(&mut outcome, &clients, |op, body| {
        oracle::check_single_box(body, &fixture.snapshot, &op.ask)
    });
    let checked = outcome.kept.len();
    let summary = HttpSummary::of(&outcome);
    errors.extend(summary.failures());
    let mut notes = vec![format!(
        "{} x {} model tiled from a {SERVE_NODES}-node fit; {checked} responses checked byte-for-byte against rank_candidates",
        fixture.model.node_count(),
        fixture.model.topic_count()
    )];
    notes.push(setup_note);
    notes.push(summary.support());
    let e2e = summary.end_to_end(setup_s);

    let layers = if args.traced {
        let mut trace = Trace::new(args.process_start);
        let mut layers = Layers::zeroed();
        loop_spans(&mut trace, &outcome);
        window_layers(&mut layers, &outcome, &summary);
        let small = predict_ops(&fixture.world, 0, 0).1;
        probes::live_transport(
            &addr,
            "serve",
            &fixture.ops[0],
            &addr,
            &mut trace,
            &mut layers,
        )?;
        probes::offline(
            &ProbeInputs {
                model: &fixture.model,
                fitted: &fixture.fitted,
                world: &fixture.world,
                topics: SCAN_TOPICS,
                scan: &fixture.ops[0],
                small: &small,
            },
            &mut trace,
            &mut layers,
        )?;
        let share = layers.get("model.rank_us") / 1e3 / summary.p50();
        notes.push(format!(
            "sizing: model.rank_us is {:.0}% of latency_p50_ms (prediction: at least 60%); serve.transport_floor_us is {:.0}% (prediction: at most 25%)",
            share * 100.0,
            layers.get("serve.transport_floor_us") / 1e3 / summary.p50() * 100.0
        ));
        write_trace(&trace, args, &mut notes)?;
        Some(layers)
    } else {
        None
    };
    Ok(finish(
        args,
        Counts::of(&summary),
        e2e,
        layers,
        notes,
        errors,
    ))
}

// ------------------------------------------------------------- cluster_read

const CLUSTER_TOPICS: usize = 8;
const HAZARD_PAIRS: usize = 8;

/// The seeded 70 / 20 / 10 mix of small predicts, influencer listings
/// and hazard lookups.
fn cluster_ops(world: &SbmExperiment, seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let nodes = world.train().node_count() as u32;
    (0..OPS)
        .map(|i| match rng.gen_range(0..10u32) {
            0..=6 => predict_ops(world, i, 0).1,
            7..=8 => gen::influencers_op(SMALL_TOP),
            _ => gen::hazard_op(
                gen::early_adopters(world.test(), i, HAZARD_PAIRS, 0)
                    .iter()
                    .map(|adopter| (adopter.node, NodeId(rng.gen_range(0..nodes))))
                    .collect(),
            ),
        })
        .collect()
}

struct ClusterFixture {
    cluster: Cluster,
    pauses: Vec<Duration>,
    model: Arc<dyn CascadeModel>,
    snapshot: ModelSnapshot,
    world: SbmExperiment,
    ops: Vec<Op>,
}

fn run_cluster_read(args: &RunArgs) -> Result<RunReport, String> {
    let (fixture, setup_s, setup_note) = set_up(args, |phases| {
        let world = gen::sbm_local_world(SERVE_NODES, SERVE_TRAIN, SERVE_HELD_OUT, args.seed);
        phases.lap("corpus");
        let fitted = gen::fit(world.train(), CLUSTER_TOPICS);
        oracle::check_fit(&fitted.embeddings, &fitted.report)?;
        phases.lap("fit");
        let model = gen::backend(fitted.embeddings);
        let ops = cluster_ops(&world, gen::sub_seed(args.seed, 1));
        let cluster = Cluster::start(&model)?;
        let snapshot = oracle::boot_snapshot(&model);
        for op in ops.iter().take(8) {
            first_answer(&cluster.addr(), op, |body| {
                oracle::check_routed(body, &snapshot, &op.ask)
            })?;
        }
        phases.lap("boot and first answers");
        Ok(ClusterFixture {
            cluster,
            pauses: gen::pauses(gen::sub_seed(args.seed, 2), OPS, load::THINK),
            model,
            snapshot,
            world,
            ops,
        })
    })?;

    let addr = fixture.cluster.addr();
    let clients: Vec<Client<'_>> = (0..sys::THREADS)
        .map(|c| Client {
            addr,
            ops: &fixture.ops,
            first: c * OPS / sys::THREADS,
            primary: true,
            pauses: &fixture.pauses,
        })
        .collect();
    let mut outcome = load::drive(&clients, Duration::from_secs(args.seconds));
    let mut errors = verify_kept(&mut outcome, &clients, |op, body| {
        oracle::check_routed(body, &fixture.snapshot, &op.ask)
    });
    let checked = outcome.kept.len();
    let summary = HttpSummary::of(&outcome);
    errors.extend(summary.failures());
    let partial = counter_delta(&outcome.registry, "router.partial_responses");
    if partial > 0.0 {
        errors.push(format!("{partial} partial response(s) in the window"));
    }
    let shard_requests = counter_delta(&outcome.registry, "serve.http.requests");
    let mut notes = vec![
        format!(
            "router over {} shards x (leader + follower); {checked} responses checked against the single-box answer, none partial",
            fixture::SHARDS
        ),
        format!(
            "serve.requests / routed reads = {:.2} connections per read (probes and follower polls included)",
            shard_requests / summary.primary.attempted.max(1) as f64
        ),
    ];
    notes.push(setup_note);
    notes.push(summary.support());
    let e2e = summary.end_to_end(setup_s);

    let layers = if args.traced {
        let mut trace = Trace::new(args.process_start);
        let mut layers = Layers::zeroed();
        loop_spans(&mut trace, &outcome);
        window_layers(&mut layers, &outcome, &summary);
        layers.set(
            "cluster.partial_share",
            partial / summary.primary.attempted.max(1) as f64,
        );
        let (scan, small) = predict_ops(&fixture.world, 0, 0);
        let leader = &fixture.cluster.leaders[0];
        probes::live_transport(
            &addr,
            "cluster",
            &small,
            &leader.local_addr(),
            &mut trace,
            &mut layers,
        )?;
        probes::live_cluster(
            &addr,
            leader,
            &fixture.cluster.followers[0],
            &small,
            &mut trace,
            &mut layers,
        )?;
        probes::offline(
            &ProbeInputs {
                model: &fixture.model,
                fitted: &fixture.model,
                world: &fixture.world,
                topics: CLUSTER_TOPICS,
                scan: &scan,
                small: &small,
            },
            &mut trace,
            &mut layers,
        )?;
        notes.push(format!(
            "sizing: model.rank_small_us is {:.1}% of latency_p50_ms (prediction: at most 5%)",
            layers.get("model.rank_small_us") / 1e3 / summary.p50() * 100.0
        ));
        write_trace(&trace, args, &mut notes)?;
        Some(layers)
    } else {
        None
    };
    Ok(finish(
        args,
        Counts::of(&summary),
        e2e,
        layers,
        notes,
        errors,
    ))
}

// ------------------------------------------------------------- ingest_mixed

const INGEST_TOPICS: usize = 8;
const TRAINER_INTERVAL: Duration = Duration::from_millis(500);
/// Snapshots the trainer must publish inside the window at baseline.
const MIN_PUBLISHES: u64 = 20;

struct IngestFixture {
    daemon: Running<ServerHandle>,
    data: TempDir,
    model: Arc<dyn CascadeModel>,
    world: SbmExperiment,
    writes: Vec<Op>,
    reads: Vec<Op>,
    pauses: Vec<Duration>,
    sent: Vec<Cascade>,
    boot_version: u64,
}

fn durable_config(dir: &std::path::Path) -> ServeConfig {
    ServeConfig {
        data_dir: Some(dir.to_path_buf()),
        wal: WalOptions {
            fsync: FsyncPolicy::Always,
            ..WalOptions::default()
        },
        trainer: TrainerConfig {
            interval: TRAINER_INTERVAL,
            min_batch: 1,
        },
        ..fixture::serve_config()
    }
}

fn run_ingest_mixed(args: &RunArgs) -> Result<RunReport, String> {
    let (fixture, setup_s, setup_note) = set_up(args, |phases| {
        let world = gen::sbm_local_world(SERVE_NODES, SERVE_TRAIN, OPS, args.seed);
        phases.lap("corpus");
        let fitted = gen::fit(world.train(), INGEST_TOPICS);
        oracle::check_fit(&fitted.embeddings, &fitted.report)?;
        phases.lap("fit");
        let model = gen::backend(fitted.embeddings);
        let sent = probes::cascade_heads(world.test(), probes::INGEST_HEAD);
        let writes: Vec<Op> = sent.iter().map(gen::ingest_op).collect();
        let reads: Vec<Op> = (0..OPS).map(|i| predict_ops(&world, i, 0).1).collect();
        // The durable state a restarted daemon finds: recovery of the
        // checkpoint and the WAL tail is part of boot-to-ready.
        let data = TempDir::create("ingest").map_err(|e| e.to_string())?;
        let tail = probes::cascade_heads(world.test(), probes::TAIL_HEAD);
        probes::seed_data_dir(data.path(), model.as_ref(), &tail)
            .map_err(|e| format!("cannot seed the data dir: {e}"))?;
        phases.lap("seed the data dir");
        let daemon = fixture::start_daemon(Arc::clone(&model), durable_config(data.path()))?;
        let recovery = daemon
            .recovery()
            .ok_or("a durable daemon reports its recovery")?;
        if recovery.pending != probes::WAL_TAIL || recovery.snapshot_version != 2 {
            return Err(format!(
                "boot recovered {recovery:?}, expected the seeded checkpoint and tail"
            ));
        }
        let addr = daemon.local_addr();
        first_answer(&addr, &reads[0], |body| {
            oracle::check_reader_shape(
                body,
                &reads[0].ask,
                model.node_count(),
                recovery.snapshot_version,
            )
        })?;
        first_answer(&addr, &writes[0], oracle::check_ack)?;
        phases.lap("recover, boot and first answers");
        Ok(IngestFixture {
            daemon,
            data,
            boot_version: recovery.snapshot_version,
            model,
            world,
            writes,
            reads,
            pauses: gen::pauses(gen::sub_seed(args.seed, 2), OPS, load::THINK),
            sent,
        })
    })?;

    let addr = fixture.daemon.local_addr();
    // One writer (the primary operation is an acknowledged ingest; its
    // first cascade went out in set-up) beside one reader.
    let clients = [
        Client {
            addr,
            ops: &fixture.writes,
            first: 1,
            primary: true,
            pauses: &fixture.pauses,
        },
        Client {
            addr,
            ops: &fixture.reads,
            first: 0,
            primary: false,
            pauses: &fixture.pauses,
        },
    ];
    let mut outcome = load::drive(&clients, Duration::from_secs(args.seconds));
    let nodes = fixture.model.node_count();
    let boot_version = fixture.boot_version;
    let mut errors = verify_kept(&mut outcome, &clients, |op, body| match &op.ask {
        Ask::Ingest => oracle::check_ack(body),
        ask => oracle::check_reader_shape(body, ask, nodes, boot_version),
    });
    let summary = HttpSummary::of(&outcome);
    errors.extend(summary.failures());
    let reader = Tally::of(outcome.all_samples(), &outcome.window, |s| !s.primary);
    let publishes = counter_delta(&outcome.registry, "serve.retrain.runs");
    let shed = counter_delta(&outcome.registry, "serve.ingest.shed_total");
    let busy = histogram_delta(&outcome.registry, "serve.retrain.seconds")
        .map_or(0.0, |h| h.sum / summary.window.length().as_secs_f64());
    let mut notes = vec![format!(
        "sizing: {publishes} snapshot(s) published in the window (prediction: at least {MIN_PUBLISHES}), {shed} cascade(s) shed (prediction: 0), serve.trainer_busy_share {busy:.2} (prediction: 0.2 to 0.6)"
    )];
    notes.push(setup_note);
    notes.push(summary.support());
    let e2e = summary.end_to_end(setup_s);

    let mut trace = args.traced.then(|| Trace::new(args.process_start));
    let mut layers = args.traced.then(Layers::zeroed);
    if let (Some(trace), Some(layers)) = (trace.as_mut(), layers.as_mut()) {
        loop_spans(trace, &outcome);
        window_layers(layers, &outcome, &summary);
        layers.set("bench.reader_p50_ms", reader.latency_ms(0.5).unwrap_or(0.0));
        layers.set("bench.reader_rps", reader.throughput(&outcome.window));
        layers.set(
            "store.wal_fsyncs_per_ingest",
            counter_delta(&outcome.registry, "store.wal.fsyncs")
                / summary.primary.attempted.max(1) as f64,
        );
    }

    // Stop the daemon, then read the directory back the way a restart
    // would: recovered ⊇ acked, and the lineage moved.
    let writer = &outcome.samples[0];
    let acked = writer.iter().filter(|s| s.ok).count() as u64 + 1; // + set-up's ingest
    let all_acked = writer.iter().all(|s| s.ok);
    let IngestFixture {
        daemon,
        data,
        model,
        world,
        reads,
        sent,
        ..
    } = fixture;
    daemon.stop();
    let (store, recovery) = EventStore::open(data.path(), WalOptions::default())
        .map_err(|e| format!("cannot reopen the data dir: {e}"))?;
    let manifest = recovery
        .manifest
        .as_ref()
        .ok_or("the reopened data dir has no manifest")?;
    let facts = oracle::RecoveryFacts {
        sent: &sent,
        tail: probes::WAL_TAIL as u64,
        acked_in_order: all_acked.then_some(acked),
        checkpoint_offset: manifest.wal_offset,
        pending: &recovery.pending,
        next_index: store.next_index(),
        boot_version,
        recovered_version: manifest.snapshot_version,
    };
    errors.extend(oracle::check_recovery(&facts).err());
    notes.push(format!(
        "reopened store: {} acknowledged ingest(s), log end {}, checkpoint v{} covers {} record(s), {} recovered beyond it",
        acked,
        facts.next_index,
        facts.recovered_version,
        facts.checkpoint_offset,
        facts.pending.len()
    ));
    drop(store);

    if let (Some(trace), Some(layers)) = (trace.as_mut(), layers.as_mut()) {
        // The window's daemon is gone; split requests against an idle
        // twin recovered from the same directory.
        let twin = fixture::start_daemon(Arc::clone(&model), durable_config(data.path()))?;
        let twin_addr = twin.local_addr();
        probes::live_transport(&twin_addr, "serve", &reads[0], &twin_addr, trace, layers)?;
        twin.stop();
        let scan = predict_ops(&world, 0, 0).0;
        probes::offline(
            &ProbeInputs {
                model: &model,
                fitted: &model,
                world: &world,
                topics: INGEST_TOPICS,
                scan: &scan,
                small: &reads[0],
            },
            trace,
            layers,
        )?;
        write_trace(trace, args, &mut notes)?;
    }
    Ok(finish(
        args,
        Counts::of(&summary),
        e2e,
        layers,
        notes,
        errors,
    ))
}
