//! The serving loop end to end, without leaving one process: train a
//! model on a synthetic world, boot the daemon on an ephemeral port,
//! query it over real HTTP, ingest fresh cascades, and watch the
//! background trainer hot-swap in snapshot v2.
//!
//! ```text
//! cargo run --release --example serving -- --nodes 100 --seed 7
//! ```

use std::time::{Duration, Instant};
use viralnews::cli::Flags;
use viralnews::viralcast::prelude::*;
use viralnews::viralcast::serve::{self, client};

fn main() {
    let flags = Flags::from_env();
    let nodes = flags.usize("nodes", 100);
    let seed = flags.u64("seed", 7);
    let topics = flags.usize("topics", 4);
    flags.finish();

    let experiment = SbmExperiment::build(
        &SbmExperimentConfig {
            sbm: SbmConfig {
                nodes,
                community_size: 20,
                intra_prob: 0.4,
                inter_prob: 0.003,
            },
            cascades: 200,
            planted: PlantedConfig {
                on_topic: 1.2,
                off_topic: 0.02,
                jitter: 0.3,
            },
            ..SbmExperimentConfig::default()
        },
        seed,
    );
    println!(
        "training a {topics}-topic model on {} cascades…",
        experiment.train().len()
    );
    let outcome = infer_embeddings(
        experiment.train(),
        &InferOptions {
            topics,
            ..InferOptions::default()
        },
    );

    let retrain: serve::RetrainFn = Box::new(|current, fresh| current.update(fresh));
    let handle = serve::start(
        std::sync::Arc::new(EmbeddingBackend::new(outcome.embeddings)),
        retrain,
        serve::ServeConfig {
            addr: "127.0.0.1:0".into(),
            trainer: serve::TrainerConfig {
                interval: Duration::from_millis(200),
                min_batch: 1,
            },
            ..serve::ServeConfig::default()
        },
    )
    .expect("daemon boots");
    let addr = handle.local_addr();
    println!("daemon listening on http://{addr}");

    let show = |label: &str, resp: &client::ClientResponse| {
        println!("\n{label} → HTTP {}\n{}", resp.status, resp.body.trim_end());
    };

    let health = client::request(&addr, "GET", "/healthz", None).unwrap();
    show("GET /healthz", &health);

    let hazard = client::request(
        &addr,
        "POST",
        "/v1/hazard",
        Some(r#"{"pairs":[[0,1],[0,21]],"dt":1.0}"#),
    )
    .unwrap();
    show("POST /v1/hazard", &hazard);

    let predict = client::request(
        &addr,
        "POST",
        "/v1/predict",
        Some(r#"{"cascade":[{"node":0,"time":0.0},{"node":1,"time":0.4}],"top":5}"#),
    )
    .unwrap();
    show("POST /v1/predict", &predict);

    // Feed two held-out cascades back and wait for the hot swap.
    let lists: Vec<String> = experiment.test().cascades()[..2]
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
    let ingest = client::request(
        &addr,
        "POST",
        "/v1/ingest",
        Some(&format!(r#"{{"cascades":[{}]}}"#, lists.join(","))),
    )
    .unwrap();
    show("POST /v1/ingest", &ingest);

    print!("\nwaiting for the background retrain");
    let snapshots = handle.snapshots();
    let deadline = Instant::now() + Duration::from_secs(60);
    while snapshots.version() < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(100));
    }
    println!(" → snapshot v{}", snapshots.version());

    let predict = client::request(
        &addr,
        "POST",
        "/v1/predict",
        Some(r#"{"cascade":[{"node":0,"time":0.0}],"top":3}"#),
    )
    .unwrap();
    show("POST /v1/predict (after swap)", &predict);

    let influencers = client::request(&addr, "GET", "/v1/influencers?top=5", None).unwrap();
    show("GET /v1/influencers?top=5", &influencers);

    let metrics = client::request(&addr, "GET", "/metrics", None).unwrap();
    let serving_lines: Vec<&str> = metrics
        .body
        .lines()
        .filter(|l| l.starts_with("serve_") && !l.contains("_bucket"))
        .collect();
    println!("\nGET /metrics (serve_* series, buckets elided)");
    for line in serving_lines {
        println!("{line}");
    }

    handle.shutdown();
    println!("\ndaemon stopped cleanly");
}
