//! Figures 6–8 — early-adopter features vs final cascade size on SBM
//! graphs.
//!
//! The paper scatters `diverA` (Fig 6), `normA` (Fig 7) and `maxA`
//! (Fig 8) of the early adopters against the final cascade size and
//! observes that "the size of the cascade grows almost linearly as
//! these features increase". This harness prints, per feature, the
//! equal-count-binned mean size (the scatter's trend line) and the
//! Pearson correlation.
//!
//! ```text
//! cargo run --release -p viralcast-bench --bin fig06_08_features -- \
//!     --nodes 2000 --cascades 3000 --seed 1
//! ```

use viralcast::prelude::*;
use viralcast_bench::{binned_means, pearson, print_table, standard_sbm, Flags};

fn main() {
    let flags = Flags::from_env();
    let nodes = flags.usize("nodes", 1_000);
    let cascades = flags.usize("cascades", 1_500);
    let seed = flags.u64("seed", 1);
    let bins = flags.usize("bins", 8);
    flags.finish();

    println!("== Figures 6–8: early-adopter features vs final cascade size (SBM) ==");
    println!("world: {nodes} nodes, {cascades} cascades, first 2/7 of the window observed");
    let experiment = standard_sbm(nodes, cascades, seed);

    let (inference, secs) =
        viralcast_bench::timed(|| infer_embeddings(experiment.train(), &InferOptions::default()));
    println!(
        "inference: {:.1}s, {} communities",
        secs,
        inference.partition.community_count()
    );

    let task = PredictionTask {
        window: experiment.config().observation_window,
        ..PredictionTask::default()
    };
    let dataset = extract_dataset(&inference.embeddings, experiment.test(), &task);
    let sizes: Vec<f64> = dataset.sizes.iter().map(|&s| s as f64).collect();

    for (fig, idx, name) in [(6, 0usize, "diverA"), (7, 1, "normA"), (8, 2, "maxA")] {
        let column: Vec<f64> = dataset.features.iter().map(|f| f[idx]).collect();
        println!("\n-- Figure {fig}: {name} vs final size --");
        let rows: Vec<Vec<String>> = binned_means(&column, &sizes, bins)
            .into_iter()
            .map(|(f, s)| vec![format!("{f:.3}"), format!("{s:.1}")])
            .collect();
        print_table(&[name, "mean final size"], &rows);
        println!(
            "Pearson correlation({name}, size) = {:.3}  (paper: sizes grow ~linearly)",
            pearson(&column, &sizes)
        );
    }

    // The paper's specific observation on Fig 6: nearly all large
    // cascades have diverA above a visible knee.
    let diver: Vec<f64> = dataset.features.iter().map(|f| f[0]).collect();
    let big_threshold = dataset.top_fraction_threshold(0.2);
    let big: Vec<f64> = diver
        .iter()
        .zip(&dataset.sizes)
        .filter(|&(_, &s)| s > big_threshold)
        .map(|(&d, _)| d)
        .collect();
    let small: Vec<f64> = diver
        .iter()
        .zip(&dataset.sizes)
        .filter(|&(_, &s)| s <= big_threshold)
        .map(|(&d, _)| d)
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "\ndiverA separates viral cascades: mean over top-20% sizes = {:.3} vs rest = {:.3}",
        mean(&big),
        mean(&small)
    );
}
