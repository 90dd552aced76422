//! Figure 12 — accuracy of popular news event prediction on the
//! (synthetic) GDELT dataset.
//!
//! Paper protocol (Section VI-B): 6 000 popular sites, 2 600 sampled
//! events; "the news sites reporting the event in the first 5 hours are
//! used to predict the total number of reports in 3 days"; F1 vs size
//! threshold is plotted next to the event-size histogram; accuracy is
//! "approximately 80%, which generally matches the performance of
//! predictions made on SBM graphs".
//!
//! ```text
//! cargo run --release -p viralcast-bench --bin fig12_gdelt_prediction -- \
//!     --sites 6000 --events 2600 --seed 7
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use viralcast::prelude::*;
use viralcast::propagation::stats::size_histogram;
use viralcast_bench::{print_table, Flags};

fn main() {
    let flags = Flags::from_env();
    let sites = flags.usize("sites", 2_000);
    let events = flags.usize("events", 1_800);
    let seed = flags.u64("seed", 7);
    let early_hours = flags.f64("early-hours", 5.0);
    flags.finish();

    println!("== Figure 12: popular news event prediction (synthetic GDELT) ==");
    let mut rng = StdRng::seed_from_u64(seed);
    let world = GdeltWorld::generate(
        GdeltConfig {
            sites,
            ..GdeltConfig::default()
        },
        &mut rng,
    );
    let table = world.simulate_events(events, &mut rng);
    let corpus = table.to_cascade_set();
    let (train, test) = corpus.split_at(events * 2 / 3);
    println!(
        "{sites} sites, {events} events; training on {}, testing on {}",
        train.len(),
        test.len()
    );

    let (inference, secs) =
        viralcast_bench::timed(|| infer_embeddings(&train, &InferOptions::default()));
    println!(
        "inference: {secs:.1}s, {} communities",
        inference.partition.community_count()
    );

    let window = world.config().observation_hours;
    let task = PredictionTask {
        window,
        early_fraction: early_hours / window,
        ..PredictionTask::default()
    };
    let dataset = extract_dataset(&inference.embeddings, &test, &task);

    println!("\nevent-size histogram (reports per event, bin width 50):");
    let rows: Vec<Vec<String>> = size_histogram(&test, 50)
        .iter()
        .filter(|&&(_, c)| c > 0)
        .map(|&(lo, c)| {
            vec![
                format!("[{lo}, {})", lo + 50),
                format!("{c}"),
                "#".repeat((c as f64).log2().max(0.0) as usize + 1),
            ]
        })
        .collect();
    print_table(&["reports bin", "#events", "log₂ bar"], &rows);

    let max_size = dataset.sizes.iter().copied().max().unwrap_or(0);
    let step = (max_size / 12).max(1);
    let thresholds: Vec<usize> = (0..max_size).step_by(step).collect();
    println!(
        "\nF1 vs report-count threshold (predicting 3-day totals from the first {early_hours} h):"
    );
    let rows: Vec<Vec<String>> = threshold_sweep(&dataset, &thresholds, &task)
        .iter()
        .map(|p| {
            vec![
                format!("{}", p.threshold),
                format!("{}", p.positives),
                format!("{:.3}", p.f1),
            ]
        })
        .collect();
    print_table(&["reports >", "#viral", "F1"], &rows);

    let top20 = dataset.top_fraction_threshold(0.2);
    if let Some(p) = threshold_sweep(&dataset, &[top20], &task).first() {
        println!(
            "\ntop-20% operating point: threshold {} → F1 = {:.3}   [paper: ≈ 0.80 on real GDELT]",
            p.threshold, p.f1
        );
    }
    println!(
        "(the synthetic world's late-window jumps are irreducibly stochastic, which caps\n\
         the achievable F1 below the real-data figure; see EXPERIMENTS.md)"
    );
}
