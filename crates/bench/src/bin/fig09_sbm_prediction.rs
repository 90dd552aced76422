//! Figure 9 — accuracy of popular-cascade prediction on SBM graphs.
//!
//! The figure shows a histogram of cascade sizes (bars) and the
//! 10-fold-cross-validated F1 of the linear SVM as the size threshold
//! sweeps (red curve); "the accuracy of predicting the top 20% cascades
//! is around 80%". This harness prints both series.
//!
//! ```text
//! cargo run --release -p viralcast-bench --bin fig09_sbm_prediction -- \
//!     --nodes 2000 --cascades 3000 --seed 1
//! ```

use viralcast::prelude::*;
use viralcast::propagation::stats::size_histogram;
use viralcast_bench::{print_table, standard_sbm, Flags};

fn main() {
    let flags = Flags::from_env();
    let nodes = flags.usize("nodes", 1_000);
    let cascades = flags.usize("cascades", 1_500);
    let seed = flags.u64("seed", 1);
    let bin_width = flags.usize("bin", 50);
    flags.finish();

    println!("== Figure 9: popular-cascade prediction accuracy (SBM) ==");
    let experiment = standard_sbm(nodes, cascades, seed);
    let (inference, secs) =
        viralcast_bench::timed(|| infer_embeddings(experiment.train(), &InferOptions::default()));
    println!(
        "inferred embeddings from {} cascades in {secs:.1}s; evaluating on {}",
        experiment.train().len(),
        experiment.test().len()
    );

    let task = PredictionTask {
        window: experiment.config().observation_window,
        ..PredictionTask::default()
    };
    let dataset = extract_dataset(&inference.embeddings, experiment.test(), &task);

    // Histogram bars.
    println!("\ncascade-size histogram (bin width {bin_width}):");
    let hist = size_histogram(experiment.test(), bin_width);
    let rows: Vec<Vec<String>> = hist
        .iter()
        .filter(|&&(_, c)| c > 0)
        .map(|&(lo, c)| {
            vec![
                format!("[{lo}, {})", lo + bin_width),
                format!("{c}"),
                "#".repeat((c as f64).log2().max(0.0) as usize + 1),
            ]
        })
        .collect();
    print_table(&["size bin", "#cascades", "log₂ bar"], &rows);

    // F1 curve.
    let max_size = dataset.sizes.iter().copied().max().unwrap_or(0);
    let step = (max_size / 14).max(1);
    let thresholds: Vec<usize> = (0..max_size).step_by(step).collect();
    let points = threshold_sweep(&dataset, &thresholds, &task);
    println!("\nF1 vs size threshold (10-fold CV):");
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{}", p.threshold),
                format!("{}", p.positives),
                format!("{:.3}", p.f1),
                format!("{:.3}", p.precision),
                format!("{:.3}", p.recall),
            ]
        })
        .collect();
    print_table(&["size >", "#viral", "F1", "precision", "recall"], &rows);

    let top20 = dataset.top_fraction_threshold(0.2);
    if let Some(p) = threshold_sweep(&dataset, &[top20], &task).first() {
        println!(
            "\ntop-20% operating point: threshold {} → F1 = {:.3}   [paper: ≈ 0.80]",
            p.threshold, p.f1
        );
    }
}
