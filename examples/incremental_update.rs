//! Incremental updating: the deployment loop of the paper's Figure 5.
//!
//! Historical cascades train the embeddings once; as new cascades
//! arrive, `update_embeddings` warm-starts from the existing matrices
//! and fits only the fresh data — much cheaper than refitting history,
//! with prediction quality maintained.
//!
//! ```text
//! cargo run --release --example incremental_update -- --nodes 400 --seed 9
//! ```

use viralnews::cli::Flags;
use viralnews::viralcast::prelude::*;

fn main() {
    let flags = Flags::from_env();
    let nodes = flags.usize("nodes", 400);
    let seed = flags.u64("seed", 9);
    flags.finish();

    let config = SbmExperimentConfig {
        sbm: SbmConfig {
            nodes,
            community_size: 20,
            intra_prob: 0.3,
            inter_prob: 0.002,
        },
        cascades: 900,
        planted: PlantedConfig {
            on_topic: 4.0,
            off_topic: 0.05,
            jitter: 0.5,
        },
        ..SbmExperimentConfig::default()
    };
    let experiment = SbmExperiment::build(&config, seed);

    // Three slices: history, a fresh batch, and a held-out test set.
    let (train, fresh) = experiment.train().split_at(experiment.train().len() / 2);
    let test = experiment.test();
    println!(
        "history: {} cascades, fresh batch: {}, test: {}",
        train.len(),
        fresh.len(),
        test.len()
    );

    let options = InferOptions::default();
    let t0 = std::time::Instant::now();
    let base = infer_embeddings(&train, &options);
    let base_secs = t0.elapsed().as_secs_f64();

    let t1 = std::time::Instant::now();
    let updated = update_embeddings(&base.embeddings, &fresh, &options).expect("universes match");
    let update_secs = t1.elapsed().as_secs_f64();
    println!(
        "initial fit {base_secs:.2}s over {} cascades; incremental update {update_secs:.2}s over {}",
        train.len(),
        fresh.len()
    );

    // Compare prediction quality before and after the update.
    let task = PredictionTask {
        window: config.observation_window,
        ..PredictionTask::default()
    };
    let f1_of = |emb: &Embeddings| {
        let ds = extract_dataset(emb, test, &task);
        let threshold = ds.top_fraction_threshold(0.2);
        threshold_sweep(&ds, &[threshold], &task)
            .first()
            .map_or(0.0, |p| p.f1)
    };
    println!(
        "top-20% F1: history-only {:.3} → after update {:.3}",
        f1_of(&base.embeddings),
        f1_of(&updated.embeddings)
    );

    // And the full refit for reference.
    let t2 = std::time::Instant::now();
    let full = infer_embeddings(experiment.train(), &options);
    println!(
        "full refit over {} cascades: {:.2}s, F1 {:.3}",
        experiment.train().len(),
        t2.elapsed().as_secs_f64(),
        f1_of(&full.embeddings)
    );
}
