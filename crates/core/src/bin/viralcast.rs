//! `viralcast` — command-line interface to the full pipeline.
//!
//! ```text
//! viralcast simulate-sbm   --nodes 2000 --cascades 3000 --out corpus.jsonl
//! viralcast simulate-gdelt --sites 2000 --events 2600 --out mentions.csv
//! viralcast infer          --corpus corpus.jsonl --topics 8 --out embeddings.json
//! viralcast predict        --corpus test.jsonl --embeddings embeddings.json --window 1.0
//! viralcast influencers    --embeddings embeddings.json --top 10
//! viralcast serve          --embeddings embeddings.json --addr 127.0.0.1:8080
//! ```
//!
//! Every subcommand is deterministic given `--seed`. `--threads N`
//! bounds the rayon pool (default: all available). Observability flags
//! shared by all subcommands:
//!
//! * `--log-level L` — `off|error|warn|info|debug|trace` stderr logging
//!   (default `info`);
//! * `--trace FILE` — append the structured event stream as JSONL;
//! * `--metrics-out FILE` — write the machine-readable run report
//!   (span-timing tree + metrics snapshot, schema
//!   `viralcast-run-report/v1`).
//!
//! Unknown flags, missing values and malformed values are usage errors
//! (exit code 2); runtime failures exit with code 1.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use viralcast::obs::{self, JsonValue};
use viralcast::prelude::*;
use viralcast::propagation::store;

/// A CLI failure: usage errors exit 2 and print the usage text, runtime
/// errors exit 1.
enum CliError {
    Usage(String),
    Runtime(String),
}

fn usage_err(message: impl Into<String>) -> CliError {
    CliError::Usage(message.into())
}

fn runtime_err(message: impl std::fmt::Display) -> CliError {
    CliError::Runtime(message.to_string())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(message)) => {
            eprintln!("error: {message}\n\n{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Runtime(message)) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), CliError> {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        return Err(usage_err("missing command"));
    };
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        println!("{USAGE}");
        return Ok(());
    }
    let spec =
        command_flags(&command).ok_or_else(|| usage_err(format!("unknown command {command:?}")))?;
    let flags = Flags::parse(args, spec)?;

    if let Some(threads) = flags.opt_usize("threads")? {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global()
            .ok();
    }

    // Observability wiring: stderr logging at the requested level, an
    // optional JSONL event trace, and an optional run report.
    let level = match flags.get("log-level") {
        Some(s) => obs::Level::parse(s).map_err(|e| usage_err(format!("--log-level: {e}")))?,
        None => Some(obs::Level::Info),
    };
    obs::logger().set_level(level);
    if level.is_some() {
        obs::logger().add_sink(Box::new(obs::StderrSink));
    }
    if let Some(path) = flags.opt_path("trace") {
        let sink = obs::JsonlSink::create(&path)
            .map_err(|e| runtime_err(format!("cannot open trace file {}: {e}", path.display())))?;
        obs::logger().add_sink(Box::new(sink));
    }
    let metrics_out = flags.opt_path("metrics-out");

    let recorder = Recorder::new("viralcast");
    let attrs = {
        let _recording = recorder.install();
        match command.as_str() {
            "simulate-sbm" => simulate_sbm(&flags)?,
            "simulate-gdelt" => simulate_gdelt(&flags)?,
            "infer" => infer_cmd(&flags, &recorder)?,
            "predict" => predict_cmd(&flags)?,
            "influencers" => influencers_cmd(&flags)?,
            "serve" => serve_cmd(&flags)?,
            "cluster-plan" => cluster_plan_cmd(&flags)?,
            "router" => router_cmd(&flags)?,
            "chaos" => chaos_cmd(&flags)?,
            _ => unreachable!("validated by command_flags"),
        }
    };
    obs::logger().flush();

    if let Some(path) = metrics_out {
        let mut report = RunReport::new(recorder.finish(), obs::metrics().snapshot())
            .attr("command", command.as_str());
        for (key, value) in attrs {
            report = report.attr(key, value);
        }
        report
            .save(&path)
            .map_err(|e| runtime_err(format!("cannot write run report {}: {e}", path.display())))?;
    }
    Ok(())
}

const USAGE: &str = "\
viralcast — predicting viral news events in online media

USAGE:
  viralcast simulate-sbm   --out FILE [--nodes N] [--cascades C] [--seed S] [--local]
  viralcast simulate-gdelt --out FILE [--sites N] [--events E] [--seed S]
  viralcast infer          --corpus FILE --out FILE [--topics K] [--threads T]
  viralcast predict        --corpus FILE --embeddings FILE [--window W] [--early F] [--top P]
  viralcast influencers    --embeddings FILE [--top K]
  viralcast serve          --embeddings FILE | --backend netinf --corpus FILE
                           [--backend embed|netinf] [--addr HOST:PORT] [--workers N]
                           [--retrain-interval SECS] [--min-retrain-batch N]
                           [--ingest-capacity N] [--data-dir DIR]
                           [--fsync always|interval[:MS]|rotate]
                           [--segment-bytes N] [--access-log FILE]
                           [--shard I/N --cluster-manifest FILE]
  viralcast serve          --follow HOST:PORT [--addr HOST:PORT] [--workers N]
                           [--poll-interval SECS] [--access-log FILE]
                           [--shard I/N --cluster-manifest FILE]
  viralcast cluster-plan   --out FILE --shards HOST:PORT,HOST:PORT,…
                           [--followers HOST:PORT,…;HOST:PORT,…]
                           [--backend embed|netinf]
  viralcast router         --cluster-manifest FILE [--addr HOST:PORT]
                           [--workers N] [--fanout-workers N]
                           [--probe-interval SECS] [--shard-timeout SECS]
  viralcast chaos          --embeddings FILE --data-dir DIR [--workers N]
                           [--backend embed|netinf] [--corpus FILE]
                           [--cycles C] [--steady SECS]
                           [--recovery-timeout SECS] [--seed S] [--out FILE]

SERVE:
  Runs the online prediction daemon: GET /healthz, GET /metrics,
  POST /v1/hazard, POST /v1/predict, GET /v1/influencers, POST /v1/ingest.
  Ingested cascades are retrained in the background every
  --retrain-interval seconds (default 5) once --min-retrain-batch
  cascades (default 1) are buffered, atomically publishing a new model
  snapshot. Stop with ctrl-c (SIGINT) or SIGTERM.

  With --data-dir DIR the daemon is durable: every acked ingest is
  write-ahead-logged before the response, each published snapshot is
  checkpointed atomically, and a restart replays the log so no acked
  cascade is lost. --fsync picks the durability/latency trade-off
  (default always); --segment-bytes sets the log rotation size
  (default 8388608).

  Every response carries an X-Request-Id (the request's own if it sent
  one, otherwise generated). --access-log FILE appends one JSON line per
  request (schema viralcast-access-log/v1): method, path, status,
  snapshot_version, latency_us and trace_id.

  --backend picks the inference backend behind the endpoints (default
  embed, the paper's embeddings; --embeddings FILE required). --backend
  netinf fits the NETINF greedy edge-inference baseline at boot from
  --corpus FILE instead. The backend id is recorded in checkpoints and
  reported by /healthz and /metrics; restarting a durable daemon with a
  different --backend than its checkpoint fails fast.

  --follow LEADER boots a read-only snapshot replica instead: the model
  (and its backend) streams from the leader's
  GET /v1/replica/snapshot endpoint, newer versions are polled every
  --poll-interval seconds (default 0.25, capped backoff while the
  leader is unreachable) and hot-swapped in, POST /v1/ingest answers
  409 with a Location redirect to the leader, and /healthz and /metrics
  report replica_lag_versions and replica_lag_ms. Model-source and
  durability flags (--embeddings, --corpus, --backend, --data-dir,
  --fsync, --segment-bytes, --retrain-interval, --min-retrain-batch)
  are rejected with --follow. With --shard/--cluster-manifest the
  follower scopes its candidate scan exactly like its leader, and
  without --addr it binds the one follower address the manifest plans
  for its shard (several planned followers make --addr required).

CLUSTER:
  cluster-plan writes a shard manifest (schema
  viralcast-cluster-manifest/v2) over the --shards addresses. Ownership
  has one rule: shard I of N owns node v iff v mod N = I, both for the
  candidate rows it scans and for the ingests seeded at v. Each shard
  is an ordinary serve daemon started with --shard I/N
  --cluster-manifest FILE: it loads the full model but scans only its
  own candidate rows. The manifest records
  one backend id for the whole cluster (--backend on cluster-plan,
  default embed); a shard or router started against a manifest whose
  backend disagrees with its own refuses to boot, so mixed-backend
  clusters cannot form.

  --followers records snapshot-replica followers per shard in the
  manifest: ';'-separated per-shard groups of comma-separated HOST:PORT,
  one group per shard, empty groups allowed. Each follower is a serve
  daemon started with --follow LEADER (plus the same --shard flags as
  its leader); the router fans reads across leader and followers and
  keeps a shard's reads non-partial when only its leader dies, while
  ingest always routes to leaders.

  router terminates client HTTP in front of the shards named by the
  manifest: POST /v1/ingest forwards to the leader of the shard owning
  the cascade's seed node v (shard v mod N, then v+1 mod N, … past dead
  leaders),
  POST /v1/predict and GET /v1/influencers scatter to every shard under
  a per-shard deadline (--shard-timeout, default 2) and merge the top-k
  answers. A background probe every --probe-interval seconds (default
  0.5) tracks shard health; when a shard is down the router degrades
  instead of failing — answers carry \"partial\": true plus
  shards_responding, never a 5xx.

CHAOS:
  Spawns a durable serve child over --data-dir (must be empty), drives
  it with --workers ingest-heavy closed-loop workers whose cascades
  carry their sequence numbers, and SIGKILLs + restarts it --cycles
  times (default 3) after --steady seconds of load each (default 2).
  After a final kill it replays the data dir in-process: every acked
  ingest must be recovered, any 5xx after recovery fails the run, and
  each restart must answer /healthz within --recovery-timeout seconds
  (default 30). --out FILE (default BENCH_chaos.json) gets kill cycles,
  recovery p50/p99, acked-vs-recovered counts, shed rate, and the
  steady-vs-disrupted p99 degradation ratio.

OBSERVABILITY (all commands):
  --log-level L     stderr logging: off|error|warn|info|debug|trace (default info)
  --trace FILE      write the structured event stream as JSONL
  --metrics-out FILE  write the JSON run report (span timings + metrics)
  --threads T       bound the rayon worker pool";

/// One accepted flag: name and whether it takes a value.
type FlagSpec = (&'static str, bool);

/// Flags every subcommand accepts.
const COMMON_FLAGS: [FlagSpec; 4] = [
    ("threads", true),
    ("log-level", true),
    ("metrics-out", true),
    ("trace", true),
];

/// The per-command flag vocabulary; `None` for unknown commands.
fn command_flags(command: &str) -> Option<Vec<FlagSpec>> {
    let own: &[FlagSpec] = match command {
        "simulate-sbm" => &[
            ("out", true),
            ("nodes", true),
            ("cascades", true),
            ("seed", true),
            ("local", false),
        ],
        "simulate-gdelt" => &[
            ("out", true),
            ("sites", true),
            ("events", true),
            ("seed", true),
        ],
        "infer" => &[("corpus", true), ("out", true), ("topics", true)],
        "predict" => &[
            ("corpus", true),
            ("embeddings", true),
            ("window", true),
            ("early", true),
            ("top", true),
        ],
        "influencers" => &[("embeddings", true), ("top", true)],
        "serve" => &[
            ("embeddings", true),
            ("backend", true),
            ("corpus", true),
            ("addr", true),
            ("workers", true),
            ("retrain-interval", true),
            ("min-retrain-batch", true),
            ("ingest-capacity", true),
            ("data-dir", true),
            ("fsync", true),
            ("segment-bytes", true),
            ("access-log", true),
            ("shard", true),
            ("cluster-manifest", true),
            ("follow", true),
            ("poll-interval", true),
        ],
        "cluster-plan" => &[
            ("out", true),
            ("shards", true),
            ("followers", true),
            ("backend", true),
        ],
        "router" => &[
            ("cluster-manifest", true),
            ("addr", true),
            ("workers", true),
            ("fanout-workers", true),
            ("probe-interval", true),
            ("shard-timeout", true),
        ],
        "chaos" => &[
            ("embeddings", true),
            ("backend", true),
            ("corpus", true),
            ("data-dir", true),
            ("workers", true),
            ("cycles", true),
            ("steady", true),
            ("recovery-timeout", true),
            ("seed", true),
            ("out", true),
        ],
        _ => return None,
    };
    Some(own.iter().chain(COMMON_FLAGS.iter()).copied().collect())
}

/// Run-report attributes a subcommand wants in the output JSON.
type Attrs = Vec<(String, JsonValue)>;

fn simulate_sbm(flags: &Flags) -> Result<Attrs, CliError> {
    let out = flags.require_path("out")?;
    let nodes = flags.usize("nodes", 2_000)?;
    let cascades = flags.usize("cascades", 3_000)?;
    let seed = flags.u64("seed", 1)?;
    let mut config = SbmExperimentConfig {
        sbm: SbmConfig {
            nodes,
            ..SbmConfig::paper_default()
        },
        cascades,
        ..SbmExperimentConfig::default()
    };
    if flags.has("local") {
        config.planted = PlantedConfig::local();
    }
    let experiment = {
        let _span = Span::enter("simulate");
        SbmExperiment::build(&config, seed)
    };
    // Persist the full corpus (train ∥ test in order).
    let mut all = experiment.train().clone();
    for c in experiment.test().cascades() {
        all.push(c.clone());
    }
    {
        let _span = Span::enter("save_corpus");
        store::save(&all, &out).map_err(runtime_err)?;
    }
    println!(
        "wrote {} cascades over {nodes} nodes to {}",
        all.len(),
        out.display()
    );
    Ok(vec![
        ("nodes".into(), nodes.into()),
        ("cascades".into(), all.len().into()),
        ("seed".into(), seed.into()),
    ])
}

fn simulate_gdelt(flags: &Flags) -> Result<Attrs, CliError> {
    let out = flags.require_path("out")?;
    let sites = flags.usize("sites", 2_000)?;
    let events = flags.usize("events", 2_600)?;
    let seed = flags.u64("seed", 1)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let table = {
        let _span = Span::enter("simulate");
        let world = GdeltWorld::generate(
            GdeltConfig {
                sites,
                ..GdeltConfig::default()
            },
            &mut rng,
        );
        world.simulate_events(events, &mut rng)
    };
    {
        let _span = Span::enter("save_corpus");
        table.save_csv(&out).map_err(runtime_err)?;
    }
    println!(
        "wrote {} mentions of {events} events across {sites} sites to {}",
        table.mentions().len(),
        out.display()
    );
    Ok(vec![
        ("sites".into(), sites.into()),
        ("events".into(), events.into()),
        ("mentions".into(), table.mentions().len().into()),
    ])
}

fn infer_cmd(flags: &Flags, recorder: &Recorder) -> Result<Attrs, CliError> {
    let corpus_path = flags.require_path("corpus")?;
    let out = flags.require_path("out")?;
    let topics = flags.usize("topics", 8)?;
    let corpus = load_corpus(&corpus_path)?;
    println!(
        "inferring {topics}-topic embeddings from {} cascades over {} nodes…",
        corpus.len(),
        corpus.node_count()
    );
    let start = std::time::Instant::now();
    let outcome = infer_embeddings(
        &corpus,
        &InferOptions {
            topics,
            ..InferOptions::default()
        },
    );
    // The pipeline timed itself under its own recorder; graft its tree
    // so the run report nests cooccurrence/slpa/hierarchical here.
    recorder.attach_child(outcome.timings.clone());
    println!(
        "…done in {:.1}s ({} communities, final LL {:.1})",
        start.elapsed().as_secs_f64(),
        outcome.partition.community_count(),
        outcome.report.final_ll()
    );
    {
        let _span = Span::enter("save_embeddings");
        outcome.embeddings.save_json(&out).map_err(runtime_err)?;
    }
    println!("embeddings saved to {}", out.display());

    // Per-level detail including the per-epoch objective trajectory.
    let levels: Vec<JsonValue> = outcome
        .report
        .levels
        .iter()
        .map(|level| {
            JsonValue::obj(vec![
                ("level", level.level.into()),
                ("groups", level.groups.into()),
                ("subcascades", level.subcascades.into()),
                ("epochs", level.epochs.into()),
                ("final_ll", level.final_ll.into()),
                ("ll_trajectory", level_trajectory(level).into()),
            ])
        })
        .collect();
    Ok(vec![
        ("nodes".into(), corpus.node_count().into()),
        ("cascades".into(), corpus.len().into()),
        ("topics".into(), topics.into()),
        (
            "communities".into(),
            outcome.partition.community_count().into(),
        ),
        ("final_ll".into(), outcome.report.final_ll().into()),
        ("levels".into(), JsonValue::Arr(levels)),
    ])
}

/// The level's objective per epoch, summed over its groups. Groups
/// converge at different epochs; a finished group contributes its final
/// objective to later epochs so the sum stays comparable across the
/// whole trajectory.
fn level_trajectory(level: &viralcast::embed::LevelSummary) -> Vec<f64> {
    let len = level
        .group_reports
        .iter()
        .map(|g| g.ll_history.len())
        .max()
        .unwrap_or(0);
    (0..len)
        .map(|epoch| {
            level
                .group_reports
                .iter()
                .filter_map(|g| g.ll_history.get(epoch).or(g.ll_history.last()))
                .sum()
        })
        .collect()
}

fn predict_cmd(flags: &Flags) -> Result<Attrs, CliError> {
    let corpus_path = flags.require_path("corpus")?;
    let emb_path = flags.require_path("embeddings")?;
    let window = flags.f64("window", 1.0)?;
    let early = flags.f64("early", 2.0 / 7.0)?;
    let top = flags.f64("top", 0.2)?;
    let corpus = load_corpus(&corpus_path)?;
    let embeddings = Embeddings::load_json(&emb_path).map_err(runtime_err)?;
    if embeddings.node_count() < corpus.node_count() {
        return Err(runtime_err(format!(
            "embeddings cover {} nodes but the corpus references {}",
            embeddings.node_count(),
            corpus.node_count()
        )));
    }
    let task = PredictionTask {
        window,
        early_fraction: early,
        ..PredictionTask::default()
    };
    let sweep = {
        let _span = Span::enter("predict");
        let dataset = extract_dataset(&embeddings, &corpus, &task);
        let max = dataset.sizes.iter().copied().max().unwrap_or(0);
        let mut thresholds: Vec<usize> = (0..max).step_by((max / 10).max(1)).collect();
        thresholds.push(dataset.top_fraction_threshold(top));
        thresholds.sort_unstable();
        thresholds.dedup();
        threshold_sweep(&dataset, &thresholds, &task)
    };
    println!(
        "{:>8} {:>8} {:>7} {:>7} {:>7}",
        "size >", "#viral", "F1", "prec", "recall"
    );
    let mut best_f1 = 0.0f64;
    for p in &sweep {
        println!(
            "{:>8} {:>8} {:>7.3} {:>7.3} {:>7.3}",
            p.threshold, p.positives, p.f1, p.precision, p.recall
        );
        best_f1 = best_f1.max(p.f1);
    }
    Ok(vec![
        ("cascades".into(), corpus.len().into()),
        ("window".into(), window.into()),
        ("best_f1".into(), best_f1.into()),
    ])
}

fn influencers_cmd(flags: &Flags) -> Result<Attrs, CliError> {
    let emb_path = flags.require_path("embeddings")?;
    let top = flags.usize("top", 10)?;
    let embeddings = Embeddings::load_json(&emb_path).map_err(runtime_err)?;
    println!("{:>6} {:>8} {:>10}", "rank", "node", "‖A‖");
    let ranked = top_influencers(&embeddings, top);
    for (i, r) in ranked.iter().enumerate() {
        println!("{:>6} {:>8} {:>10.4}", i + 1, r.node.0, r.score);
    }
    Ok(vec![
        ("nodes".into(), embeddings.node_count().into()),
        ("top".into(), ranked.len().into()),
    ])
}

/// Parses `--shard I/N` (`None` when absent).
fn parse_shard_flag(flags: &Flags) -> Result<Option<(usize, usize)>, CliError> {
    match flags.get("shard") {
        None => Ok(None),
        Some(raw) => {
            let parsed = raw
                .split_once('/')
                .and_then(|(i, n)| Some((i.parse::<usize>().ok()?, n.parse::<usize>().ok()?)));
            match parsed {
                Some((i, n)) if n >= 1 && i < n => Ok(Some((i, n))),
                _ => Err(usage_err(format!(
                    "malformed --shard {raw:?} (expected I/N with I < N)"
                ))),
            }
        }
    }
}

/// Resolves `--shard I/N` with `--cluster-manifest FILE` (both or
/// neither) into the loaded manifest plus the shard's position.
fn resolve_cluster(
    flags: &Flags,
) -> Result<Option<(viralcast::cluster::ClusterManifest, usize, usize)>, CliError> {
    let (path, (i, n)) = match (flags.opt_path("cluster-manifest"), parse_shard_flag(flags)?) {
        (Some(path), Some(shard)) => (path, shard),
        (None, None) => return Ok(None),
        _ => {
            return Err(usage_err(
                "--shard and --cluster-manifest must be given together",
            ))
        }
    };
    let manifest = viralcast::cluster::ClusterManifest::load(&path).map_err(runtime_err)?;
    if manifest.shard_count() != n {
        return Err(runtime_err(format!(
            "--shard {i}/{n} disagrees with the manifest's {} shard(s)",
            manifest.shard_count()
        )));
    }
    Ok(Some((manifest, i, n)))
}

/// Fails unless a resolved manifest plans the backend this daemon runs —
/// `running` words where that backend came from for the mismatch error.
fn check_cluster_backend(
    cluster: &Option<(viralcast::cluster::ClusterManifest, usize, usize)>,
    backend: &str,
    running: &str,
) -> Result<(), CliError> {
    match cluster {
        Some((manifest, _, _)) if manifest.backend != backend => Err(runtime_err(format!(
            "the cluster manifest plans a {:?} cluster but {running}",
            manifest.backend
        ))),
        _ => Ok(()),
    }
}

fn serve_cmd(flags: &Flags) -> Result<Attrs, CliError> {
    use viralcast::model::{CascadeModel, EmbeddingBackend, NetInfBackend, NetInfConfig};
    use viralcast::serve;

    if flags.has("follow") {
        return serve_follow_cmd(flags);
    }
    if flags.has("poll-interval") {
        return Err(usage_err(
            "--poll-interval tunes the replication poll; pass --follow LEADER to enable it",
        ));
    }
    let (backend, source) = model_source(flags)?;
    let retrain_interval = flags.secs("retrain-interval", Duration::from_secs(5))?;
    let cluster = resolve_cluster(flags)?;
    check_cluster_backend(
        &cluster,
        backend,
        &format!("this shard was started with --backend {backend:?}"),
    )?;
    let addr = match (flags.get("addr"), &cluster) {
        (Some(a), _) => a.to_string(),
        (None, Some((manifest, i, _))) => manifest.addr_of(*i).to_string(),
        (None, None) => "127.0.0.1:8080".to_string(),
    };
    let workers = flags.count("workers", 4)?;
    let min_batch = flags.usize("min-retrain-batch", 1)?;
    let ingest_capacity = flags.usize("ingest-capacity", 4096)?;
    let data_dir = flags.opt_path("data-dir");
    let access_log = flags.opt_path("access-log");
    let wal_defaults = viralcast::store::WalOptions::default();
    let fsync = match flags.get("fsync") {
        Some(raw) => viralcast::store::FsyncPolicy::parse(raw)
            .map_err(|e| usage_err(format!("--fsync: {e}")))?,
        None => wal_defaults.fsync,
    };
    let segment_bytes = flags.u64("segment-bytes", wal_defaults.segment_bytes)?;
    if segment_bytes == 0 {
        return Err(usage_err("--segment-bytes must be positive"));
    }
    if data_dir.is_none() && (flags.has("fsync") || flags.has("segment-bytes")) {
        return Err(usage_err(
            "--fsync/--segment-bytes tune the durable log; pass --data-dir DIR to enable it",
        ));
    }

    // Boot model: embed loads a trained embedding file; netinf fits its
    // sparse greedy graph from a cascade corpus right here at boot.
    let model: std::sync::Arc<dyn CascadeModel> = match source {
        ModelSource::Embeddings(emb_path) => {
            let embeddings = Embeddings::load_json(&emb_path).map_err(runtime_err)?;
            std::sync::Arc::new(EmbeddingBackend::new(embeddings))
        }
        ModelSource::Corpus(corpus_path) => {
            let corpus = load_corpus(&corpus_path).map_err(runtime_err)?;
            if corpus.node_count() > NetInfBackend::MAX_NODES {
                return Err(runtime_err(format!(
                    "the netinf backend holds at most {} nodes; {} covers {}",
                    NetInfBackend::MAX_NODES,
                    corpus_path.display(),
                    corpus.node_count()
                )));
            }
            let fitted = {
                let _span = Span::enter("netinf_fit");
                NetInfBackend::fit(&corpus, NetInfConfig::default())
            };
            std::sync::Arc::new(fitted)
        }
    };
    let (nodes, topics) = (model.node_count(), model.topic_count());
    let shard_block = match &cluster {
        Some((manifest, i, _)) => Some(manifest.row_block(*i, nodes).map_err(runtime_err)?),
        None => None,
    };

    // The daemon's trainer folds fresh cascades back in through the
    // backend's own incremental update.
    let retrain: serve::RetrainFn = Box::new(|current, fresh| current.update(fresh));

    let config = serve::ServeConfig {
        addr,
        workers,
        trainer: serve::TrainerConfig {
            interval: retrain_interval,
            min_batch,
        },
        ingest_capacity,
        data_dir: data_dir.clone(),
        wal: viralcast::store::WalOptions {
            segment_bytes,
            fsync,
        },
        access_log: access_log.clone(),
        shard: shard_block.clone(),
        ..serve::ServeConfig::default()
    };
    let handle = serve::start(model, retrain, config).map_err(runtime_err)?;
    let bound = handle.local_addr();
    println!(
        "viralcast-serve listening on http://{bound} \
         ({backend} backend, {nodes} nodes × {topics} topics)"
    );
    if let (Some((_, i, n)), Some(block)) = (&cluster, &shard_block) {
        println!(
            "cluster shard {i}/{n}: scanning {} of {nodes} candidate rows",
            block.owned_count()
        );
    }
    if let Some(path) = &access_log {
        println!(
            "access log (one JSON line per request) at {}",
            path.display()
        );
    }
    let recovery = handle.recovery();
    if let (Some(dir), Some(r)) = (&data_dir, &recovery) {
        println!(
            "durable in {}: replayed {} WAL record(s), {} pending for retraining, \
             resuming snapshot v{}{}",
            dir.display(),
            r.replayed,
            r.pending,
            r.snapshot_version,
            if r.truncated_bytes > 0 {
                format!(" ({} torn byte(s) truncated)", r.truncated_bytes)
            } else {
                String::new()
            },
        );
    }
    wait_for_ctrlc();
    let final_version = handle.snapshots().version();
    handle.shutdown();
    println!("stopped at snapshot v{final_version}");
    let mut attrs: Attrs = vec![
        ("addr".into(), bound.to_string().into()),
        ("backend".into(), backend.into()),
        ("nodes".into(), nodes.into()),
        ("topics".into(), topics.into()),
        ("final_snapshot_version".into(), final_version.into()),
    ];
    if let (Some((_, i, n)), Some(block)) = (&cluster, &shard_block) {
        attrs.push(("shard".into(), format!("{i}/{n}").into()));
        attrs.push(("shard_rows".into(), block.owned_count().into()));
    }
    if let Some(r) = recovery {
        attrs.push(("replayed_records".into(), r.replayed.into()));
        attrs.push(("recovered_pending".into(), r.pending.into()));
    }
    Ok(attrs)
}

/// `serve --follow LEADER`: a read-only follower that boots from the
/// leader's snapshot stream and hot-swaps newer versions as they
/// publish, instead of loading a model of its own.
fn serve_follow_cmd(flags: &Flags) -> Result<Attrs, CliError> {
    use viralcast::replica;
    use viralcast::serve;

    let leader_raw = flags.get("follow").expect("caller checked --follow");
    let leader: std::net::SocketAddr = leader_raw.parse().map_err(|_| {
        usage_err(format!(
            "malformed --follow address {leader_raw:?} (expected HOST:PORT)"
        ))
    })?;
    for (name, why) in [
        ("embeddings", "the model streams from the leader"),
        ("corpus", "the model streams from the leader"),
        ("backend", "the backend id comes from the leader's snapshot"),
        (
            "data-dir",
            "durability lives on the leader; followers are in-memory",
        ),
        (
            "fsync",
            "durability lives on the leader; followers are in-memory",
        ),
        (
            "segment-bytes",
            "durability lives on the leader; followers are in-memory",
        ),
        (
            "retrain-interval",
            "followers adopt leader snapshots instead of training",
        ),
        (
            "min-retrain-batch",
            "followers adopt leader snapshots instead of training",
        ),
    ] {
        if flags.has(name) {
            return Err(usage_err(format!(
                "--{name} is meaningless with --follow ({why})"
            )));
        }
    }
    let defaults = replica::FollowerConfig::new(leader);
    let poll_interval = flags.secs("poll-interval", defaults.poll_interval)?;
    let workers = flags.count("workers", 4)?;
    let cluster = resolve_cluster(flags)?;
    // A shard follower binds the one follower address the manifest plans
    // for it, as a shard leader binds `addr_of(i)`.
    let addr = match (flags.get("addr"), &cluster) {
        (Some(a), _) => a.to_string(),
        (None, Some((manifest, i, _))) => match manifest.followers_of(*i) {
            [one] => one.to_string(),
            planned => {
                return Err(usage_err(format!(
                    "--addr is required: the cluster manifest plans {} follower(s) \
                     for shard {i} ({planned:?}), not one address to bind",
                    planned.len()
                )))
            }
        },
        (None, None) => "127.0.0.1:8080".to_string(),
    };

    let mut config = replica::FollowerConfig {
        poll_interval,
        serve: serve::ServeConfig {
            addr,
            workers,
            ingest_capacity: flags.usize("ingest-capacity", 4096)?,
            access_log: flags.opt_path("access-log"),
            ..serve::ServeConfig::default()
        },
        ..defaults
    };

    // The shard row block needs the model's node count before the serve
    // stack exists, so fetch the boot snapshot first and start from it.
    let boot = replica::fetch_boot_snapshot(&config).map_err(runtime_err)?;
    let (backend, boot_version) = (boot.backend.clone(), boot.version);
    let (nodes, topics) = (boot.model.node_count(), boot.model.topic_count());

    check_cluster_backend(
        &cluster,
        &backend,
        &format!("the leader streams {backend:?} snapshots"),
    )?;
    let shard_block = match &cluster {
        Some((manifest, i, _)) => Some(manifest.row_block(*i, nodes).map_err(runtime_err)?),
        None => None,
    };
    config.serve.shard = shard_block.clone();
    let handle = replica::start_follower_from(boot, config).map_err(runtime_err)?;
    let bound = handle.local_addr();
    println!(
        "viralcast-serve listening on http://{bound} \
         ({backend} backend, {nodes} nodes × {topics} topics)"
    );
    println!(
        "following leader http://{leader}: booted from snapshot v{boot_version}, \
         polling every {:.2}s (writes are refused with a leader redirect)",
        poll_interval.as_secs_f64()
    );
    if let (Some((_, i, n)), Some(block)) = (&cluster, &shard_block) {
        println!(
            "cluster shard {i}/{n} (follower): scanning {} of {nodes} candidate rows",
            block.owned_count()
        );
    }
    wait_for_ctrlc();
    let status = handle.status();
    let applied = status.applied_version();
    let lag = status.lag_versions();
    handle.shutdown();
    println!("stopped at applied snapshot v{applied} ({lag} version(s) behind the leader)");
    let mut attrs: Attrs = vec![
        ("addr".into(), bound.to_string().into()),
        ("backend".into(), backend.into()),
        ("nodes".into(), nodes.into()),
        ("topics".into(), topics.into()),
        ("leader".into(), leader.to_string().into()),
        ("boot_snapshot_version".into(), boot_version.into()),
        ("applied_snapshot_version".into(), applied.into()),
        ("replica_lag_versions".into(), lag.into()),
    ];
    if let (Some((_, i, n)), Some(block)) = (&cluster, &shard_block) {
        attrs.push(("shard".into(), format!("{i}/{n}").into()));
        attrs.push(("shard_rows".into(), block.owned_count().into()));
    }
    Ok(attrs)
}

fn cluster_plan_cmd(flags: &Flags) -> Result<Attrs, CliError> {
    use viralcast::cluster;

    let out = flags.require_path("out")?;
    let shards_raw = flags
        .get("shards")
        .ok_or_else(|| usage_err("missing required flag --shards"))?;
    let addrs = shards_raw
        .split(',')
        .map(|part| {
            part.trim().parse::<std::net::SocketAddr>().map_err(|_| {
                usage_err(format!(
                    "malformed shard address {part:?} in --shards (expected HOST:PORT)"
                ))
            })
        })
        .collect::<Result<Vec<_>, _>>()?;

    let backend = flags
        .get("backend")
        .map_or(viralcast::model::EmbeddingBackend::ID, |b| b);
    let manifest = cluster::ClusterManifest::round_robin(&addrs)
        .map_err(runtime_err)?
        .with_backend(backend)
        .map_err(|e| usage_err(format!("--backend: {e}")))?;
    // ';'-separated per-shard groups of comma-separated follower
    // addresses; a group may be empty (that shard runs leader-only).
    let manifest = match flags.get("followers") {
        Some(raw) => {
            let groups = raw
                .split(';')
                .map(|group| {
                    group
                        .split(',')
                        .map(str::trim)
                        .filter(|part| !part.is_empty())
                        .map(|part| {
                            part.parse::<std::net::SocketAddr>().map_err(|_| {
                                usage_err(format!(
                                    "malformed follower address {part:?} in --followers \
                                     (expected HOST:PORT)"
                                ))
                            })
                        })
                        .collect::<Result<Vec<_>, _>>()
                })
                .collect::<Result<Vec<_>, _>>()?;
            manifest
                .with_followers(groups)
                .map_err(|e| usage_err(format!("--followers: {e}")))?
        }
        None => manifest,
    };
    manifest.save(&out).map_err(runtime_err)?;

    println!(
        "wrote round-robin manifest for {} {} shard(s) to {}",
        manifest.shard_count(),
        manifest.backend,
        out.display()
    );
    let mut followers_total = 0usize;
    for i in 0..manifest.shard_count() {
        let followers = manifest.followers_of(i);
        followers_total += followers.len();
        if followers.is_empty() {
            println!("  shard {i}: {}", manifest.addr_of(i));
        } else {
            let list: Vec<String> = followers.iter().map(|a| a.to_string()).collect();
            println!(
                "  shard {i}: {} (followers: {})",
                manifest.addr_of(i),
                list.join(", ")
            );
        }
    }
    Ok(vec![
        ("shards".into(), manifest.shard_count().into()),
        ("followers".into(), followers_total.into()),
        ("backend".into(), manifest.backend.clone().into()),
    ])
}

fn router_cmd(flags: &Flags) -> Result<Attrs, CliError> {
    use viralcast::cluster;

    let manifest_path = flags.require_path("cluster-manifest")?;
    let defaults = cluster::RouterConfig::default();
    let config = cluster::RouterConfig {
        addr: flags.get("addr").unwrap_or(&defaults.addr).to_string(),
        workers: flags.count("workers", defaults.workers)?,
        fanout_workers: flags.count("fanout-workers", defaults.fanout_workers)?,
        probe_interval: flags.secs("probe-interval", defaults.probe_interval)?,
        shard_timeout: flags.secs("shard-timeout", defaults.shard_timeout)?,
        ..defaults
    };
    let manifest = cluster::ClusterManifest::load(&manifest_path).map_err(runtime_err)?;

    let shards = manifest.shard_count();
    let handle = cluster::start_router(manifest, config).map_err(runtime_err)?;
    let bound = handle.local_addr();
    println!("viralcast-router listening on http://{bound} fronting {shards} shard(s)");
    wait_for_ctrlc();
    handle.shutdown();
    println!("stopped");
    Ok(vec![
        ("addr".into(), bound.to_string().into()),
        ("shards".into(), shards.into()),
    ])
}

fn chaos_cmd(flags: &Flags) -> Result<Attrs, CliError> {
    use viralcast::chaos;

    let defaults = chaos::ChaosConfig::default();
    let steady = flags.secs("steady", defaults.steady)?;
    let recovery_timeout = flags.secs("recovery-timeout", defaults.recovery_timeout)?;
    let cycles = flags.count("cycles", defaults.cycles as usize)?;
    let workers = flags.count("workers", defaults.workers)?;
    let (backend, source) = model_source(flags)?;
    let (embeddings, corpus) = match source {
        ModelSource::Embeddings(path) => (path, None),
        ModelSource::Corpus(path) => (PathBuf::new(), Some(path)),
    };
    let config = chaos::ChaosConfig {
        embeddings,
        data_dir: flags.require_path("data-dir")?,
        workers,
        cycles: cycles.min(10_000) as u32,
        steady,
        recovery_timeout,
        seed: flags.u64("seed", defaults.seed)?,
        backend: backend.to_string(),
        corpus,
    };
    let out = flags
        .opt_path("out")
        .unwrap_or_else(|| PathBuf::from("BENCH_chaos.json"));

    let steady = steady.as_secs_f64();
    println!(
        "chaos: {} worker(s), {} kill cycle(s), {steady:.1}s steady load each…",
        config.workers, config.cycles
    );
    let summary = {
        let _span = Span::enter("chaos");
        viralcast::chaos::run(&config).map_err(runtime_err)?
    };

    let cell = |v: Option<f64>| v.map_or("-".to_string(), |ms| format!("{ms:.2}"));
    println!(
        "{} kill cycle(s): recovery p50 {} ms, p99 {} ms",
        summary.kill_cycles,
        cell(summary.recovery_p50_ms),
        cell(summary.recovery_p99_ms)
    );
    println!(
        "acked {} / recovered {} ({} missing), {} shed (rate {:.3}), \
         {} io errors, {} retries",
        summary.acked,
        summary.recovered,
        summary.missing.len(),
        summary.shed,
        summary.shed_rate,
        summary.io_errors,
        summary.retries
    );
    println!(
        "latency p99: steady {} ms vs disrupted {} ms (degradation {}), \
         {} 5xx after recovery",
        cell(summary.steady_p99_ms),
        cell(summary.disrupted_p99_ms),
        summary
            .p99_degradation
            .map_or("-".to_string(), |x| format!("{x:.1}×")),
        summary.post_recovery_5xx
    );
    let attrs: Attrs = summary.attrs();
    save_bench_report("chaos", &attrs, &out)?;
    println!("bench report written to {}", out.display());

    if !summary.missing.is_empty() {
        let preview: Vec<String> = summary
            .missing
            .iter()
            .take(10)
            .map(u64::to_string)
            .collect();
        return Err(runtime_err(format!(
            "durability loss: {} acked ingest(s) missing after replay (seq {}{})",
            summary.missing.len(),
            preview.join(", "),
            if summary.missing.len() > 10 {
                ", …"
            } else {
                ""
            }
        )));
    }
    if summary.post_recovery_5xx > 0 {
        return Err(runtime_err(format!(
            "{} request(s) answered 5xx after the daemon reported healthy",
            summary.post_recovery_5xx
        )));
    }
    Ok(attrs)
}

/// Where a daemon's model comes from, per `--backend` (default embed).
enum ModelSource {
    /// The embed backend loads a trained embedding file.
    Embeddings(PathBuf),
    /// The netinf backend fits its graph from a cascade corpus at boot.
    Corpus(PathBuf),
}

/// The one model-source rule of `serve` and `chaos`: `--backend` names a
/// known backend, embed needs `--embeddings FILE`, netinf needs
/// `--corpus FILE`, and the other backend's flag is refused.
fn model_source(flags: &Flags) -> Result<(&str, ModelSource), CliError> {
    use viralcast::model::{EmbeddingBackend, NetInfBackend, BACKENDS};

    let backend = flags.get("backend").unwrap_or(EmbeddingBackend::ID);
    let (source, needs, refuses, other): (fn(PathBuf) -> ModelSource, _, _, _) = match backend {
        EmbeddingBackend::ID => (
            ModelSource::Embeddings,
            "embeddings",
            "corpus",
            NetInfBackend::ID,
        ),
        NetInfBackend::ID => (
            ModelSource::Corpus,
            "corpus",
            "embeddings",
            EmbeddingBackend::ID,
        ),
        _ => {
            return Err(usage_err(format!(
                "unknown --backend {backend:?} (known backends: {})",
                BACKENDS.join(", ")
            )))
        }
    };
    if flags.has(refuses) {
        return Err(usage_err(format!(
            "--{refuses} is only meaningful with --backend {other} (--backend {backend} reads --{needs})"
        )));
    }
    let path = flags
        .opt_path(needs)
        .ok_or_else(|| usage_err(format!("--backend {backend} needs --{needs} FILE")))?;
    Ok((backend, source(path)))
}

/// Blocks a daemon command until ctrl-c (SIGINT) or SIGTERM.
fn wait_for_ctrlc() {
    println!("press ctrl-c to stop");
    let shutdown = viralcast::serve::install_ctrlc();
    while !shutdown.load(std::sync::atomic::Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
    println!("shutting down…");
}

/// Writes a `BENCH_*.json` run report: the standard report envelope
/// (schema + metrics snapshot) around the bench's own attributes.
fn save_bench_report(command: &str, attrs: &Attrs, out: &Path) -> Result<(), CliError> {
    let mut report = RunReport::default().attr("command", command);
    report.metrics = viralcast::obs::metrics().snapshot();
    for (key, value) in attrs {
        report = report.attr(key.clone(), value.clone());
    }
    report
        .save(out)
        .map_err(|e| runtime_err(format!("cannot write bench report {}: {e}", out.display())))
}

fn load_corpus(path: &Path) -> Result<CascadeSet, String> {
    let _span = Span::enter("load_corpus");
    store::load(path).map_err(|e| format!("cannot load corpus {}: {e}", path.display()))
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Runtime(message)
    }
}

/// Strict `--flag value` parser: only flags in the command's vocabulary
/// are accepted, value flags must be followed by a value, and malformed
/// values are reported instead of silently falling back to defaults.
struct Flags {
    values: HashMap<String, String>,
}

impl Flags {
    fn parse<I: Iterator<Item = String>>(args: I, spec: Vec<FlagSpec>) -> Result<Self, CliError> {
        let mut values = HashMap::new();
        let mut iter = args.peekable();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(usage_err(format!("unexpected argument {arg:?}")));
            };
            let Some(&(name, takes_value)) = spec.iter().find(|(name, _)| *name == key) else {
                return Err(usage_err(format!("unknown flag --{key}")));
            };
            let value = if takes_value {
                match iter.peek() {
                    Some(v) if !v.starts_with("--") => iter.next().unwrap(),
                    _ => return Err(usage_err(format!("flag --{key} requires a value"))),
                }
            } else {
                "true".to_string()
            };
            if values.insert(name.to_string(), value).is_some() {
                return Err(usage_err(format!("flag --{key} given more than once")));
            }
        }
        Ok(Flags { values })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    fn has(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, CliError> {
        match self.get(key) {
            None => Ok(None),
            Some(raw) => raw.parse().map(Some).map_err(|_| {
                usage_err(format!(
                    "malformed value {raw:?} for --{key} (expected {})",
                    std::any::type_name::<T>()
                ))
            }),
        }
    }

    fn opt_usize(&self, key: &str) -> Result<Option<usize>, CliError> {
        self.parsed(key)
    }

    fn usize(&self, key: &str, default: usize) -> Result<usize, CliError> {
        Ok(self.parsed(key)?.unwrap_or(default))
    }

    fn u64(&self, key: &str, default: u64) -> Result<u64, CliError> {
        Ok(self.parsed(key)?.unwrap_or(default))
    }

    /// A positive count (`default` when absent).
    fn count(&self, key: &str, default: usize) -> Result<usize, CliError> {
        match self.usize(key, default)? {
            0 => Err(usage_err(format!("--{key} must be positive"))),
            n => Ok(n),
        }
    }

    fn f64(&self, key: &str, default: f64) -> Result<f64, CliError> {
        Ok(self.parsed(key)?.unwrap_or(default))
    }

    /// A positive number of seconds (`default` when absent).
    fn secs(&self, key: &str, default: Duration) -> Result<Duration, CliError> {
        let secs = self.f64(key, default.as_secs_f64())?;
        match Duration::try_from_secs_f64(secs) {
            Ok(d) if !d.is_zero() => Ok(d),
            _ => Err(usage_err(format!(
                "--{key} must be a positive number of seconds (got {secs})"
            ))),
        }
    }

    fn opt_path(&self, key: &str) -> Option<PathBuf> {
        self.get(key).map(PathBuf::from)
    }

    fn require_path(&self, key: &str) -> Result<PathBuf, CliError> {
        self.opt_path(key)
            .ok_or_else(|| usage_err(format!("missing required flag --{key}")))
    }
}
