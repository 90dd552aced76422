//! Quickstart: the whole paper in sixty lines.
//!
//! Generates a small synthetic world (an SBM graph with planted
//! influence/selectivity embeddings), simulates cascades, infers the
//! embeddings back from the cascades alone, and predicts which held-out
//! cascades go viral from their early adopters.
//!
//! ```text
//! cargo run --release --example quickstart [-- --seed 42]
//! ```

use viralnews::cli::Flags;
use viralnews::viralcast::prelude::*;

fn main() {
    let flags = Flags::from_env();
    let seed = flags.u64("seed", 42);
    flags.finish();

    // 1. A synthetic world: 400 nodes in 20 communities (Section VI-A,
    //    scaled down for a quick run).
    let config = SbmExperimentConfig {
        sbm: SbmConfig {
            nodes: 400,
            community_size: 20,
            intra_prob: 0.3,
            inter_prob: 0.002,
        },
        cascades: 600,
        // A regime where ~20% of cascades escape their community and
        // flood much of the graph — rare enough that "viral" is a real
        // minority class, predictable enough to beat naive baselines.
        planted: PlantedConfig {
            on_topic: 4.0,
            off_topic: 0.05,
            jitter: 0.5,
        },
        ..SbmExperimentConfig::default()
    };
    let experiment = SbmExperiment::build(&config, seed);
    println!(
        "world: {} nodes, {} train / {} test cascades",
        experiment.graph().node_count(),
        experiment.train().len(),
        experiment.test().len()
    );

    // 2. Infer influence/selectivity embeddings from the training
    //    cascades (co-occurrence graph -> SLPA -> Algorithm 2).
    let options = InferOptions {
        topics: 8,
        ..InferOptions::default()
    };
    let inference = infer_embeddings(experiment.train(), &options);
    println!(
        "inference: {} SLPA communities, {} hierarchy levels, final LL {:.1}",
        inference.partition.community_count(),
        inference.report.levels.len(),
        inference.report.final_ll()
    );

    // 3. Predict virality of held-out cascades from early adopters.
    let task = PredictionTask {
        window: config.observation_window,
        ..PredictionTask::default()
    };
    let dataset = extract_dataset(&inference.embeddings, experiment.test(), &task);
    let threshold = dataset.top_fraction_threshold(0.2);
    let points = threshold_sweep(&dataset, &[threshold], &task);
    match points.first() {
        Some(p) => println!(
            "prediction: top-20% threshold = size > {}, F1 = {:.3} (precision {:.3}, recall {:.3})",
            p.threshold, p.f1, p.precision, p.recall
        ),
        None => println!("prediction: degenerate threshold (all cascades one class)"),
    }

    // 4. Who are the most influential nodes?
    let top = top_influencers(&inference.embeddings, 5);
    println!("top influencers by ‖A_u‖:");
    for r in top {
        println!("  node {:>4}  score {:.3}", r.node, r.score);
    }

    // 5. Where did the time go? The span tree recorded by viralcast-obs.
    println!("\nstage timings:\n{}", inference.timings.render());
}
