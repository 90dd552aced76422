//! Baseline comparison for the prediction task — the two families the
//! paper's Section V surveys, head to head with its own approach:
//!
//! * **embedding features + SVM** (the paper's method): `diverA`,
//!   `normA`, `maxA` of the early adopters;
//! * **feature-based baseline** (Cheng et al. family): the raw early
//!   adopter count through the same SVM;
//! * **point-process baseline** (SEISMIC family): a Hawkes
//!   extrapolation of the final size, thresholded — "the network
//!   topology is not needed for the prediction" and neither are node
//!   identities.
//!
//! ```text
//! cargo run --release -p viralcast-bench --bin ablation_baselines -- \
//!     --nodes 1000 --cascades 1500
//! ```

use viralcast::predict::metrics::BinaryConfusion;
use viralcast::prelude::*;
use viralcast_bench::pointprocess::{HawkesFitConfig, HawkesPredictor};
use viralcast_bench::{print_table, standard_sbm, Flags};

fn main() {
    let flags = Flags::from_env();
    let nodes = flags.usize("nodes", 1_000);
    let cascades = flags.usize("cascades", 1_500);
    let seed = flags.u64("seed", 1);

    println!("== Baselines: embedding-SVM vs adopter count vs Hawkes point process ==");
    let experiment = standard_sbm(nodes, cascades, seed);
    let window = experiment.config().observation_window;
    let (inference, secs) =
        viralcast_bench::timed(|| infer_embeddings(experiment.train(), &InferOptions::default()));
    println!("embedding inference: {secs:.1}s\n");

    let task = PredictionTask {
        window,
        ..PredictionTask::default()
    };
    let dataset = extract_dataset(&inference.embeddings, experiment.test(), &task);
    let count_task = PredictionTask {
        include_adopter_count: true,
        ..task
    };
    let count_dataset = extract_dataset(&inference.embeddings, experiment.test(), &count_task);
    // Count-only: strip the three embedding features.
    let count_only: Vec<Vec<f64>> = count_dataset.features.iter().map(|f| vec![f[3]]).collect();

    // Hawkes baseline fitted on the training corpus.
    let hawkes_config = HawkesFitConfig {
        window,
        early_fraction: task.early_fraction,
        ..HawkesFitConfig::default()
    };
    let hawkes = HawkesPredictor::fit(experiment.train(), &hawkes_config);
    println!(
        "fitted Hawkes: branching ν = {:.3}, decay ω = {:.2}",
        hawkes.branching, hawkes.decay
    );

    let max_size = dataset.sizes.iter().copied().max().unwrap_or(0);
    let mut thresholds = vec![dataset.top_fraction_threshold(0.2)];
    thresholds.extend((1..5).map(|i| i * max_size / 6));
    thresholds.sort_unstable();
    thresholds.dedup();

    let mut rows = Vec::new();
    for &threshold in &thresholds {
        let labels = dataset.labels_for_threshold(threshold);
        let positives = labels.iter().filter(|&&y| y == 1).count();
        if positives == 0 || positives == labels.len() {
            continue;
        }
        let emb_f1 = cross_validate(&dataset.features, &labels, task.folds, &task.svm, task.seed)
            .score
            .f1;
        let count_f1 = cross_validate(&count_only, &labels, task.folds, &task.svm, task.seed)
            .score
            .f1;
        let hawkes_pred = hawkes.classify(experiment.test(), &hawkes_config, threshold);
        let hawkes_f1 = BinaryConfusion::from_predictions(&labels, &hawkes_pred).f1();
        let p = positives as f64 / labels.len() as f64;
        let naive = 2.0 * p / (1.0 + p);
        rows.push(vec![
            format!("{threshold}"),
            format!("{positives}"),
            format!("{emb_f1:.3}"),
            format!("{count_f1:.3}"),
            format!("{hawkes_f1:.3}"),
            format!("{naive:.3}"),
        ]);
    }
    print_table(
        &[
            "size >",
            "#viral",
            "embeddings",
            "count",
            "hawkes",
            "always-pos",
        ],
        &rows,
    );
    println!(
        "\n(embedding features use node identities the two baselines cannot see;\n\
         the paper's claim is that this is exactly what the baselines miss)"
    );
}
