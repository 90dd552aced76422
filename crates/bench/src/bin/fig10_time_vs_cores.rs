//! Figures 10 and 13 — processing time vs core count for different
//! corpus sizes, and the speedup and efficiency of those same runs.
//!
//! The paper times the parallel inference on an SBM graph with 2 000
//! nodes, processing C = 1 000 / 2 000 / 3 000 cascades on 1, 2, 4, …,
//! 64 cores, and observes (a) time falls sharply with cores and
//! (b) time is roughly linear in the number of cascades. Figure 13 plots
//! `s_n = t_1 / t_n` and `e_n = s_n / n` (eqs. 20–21) of the same
//! measurements: near-linear to 8–16 processors, a peak at 32 and
//! falling efficiency beyond. Both tables come from the one sweep below.
//!
//! Community detection runs once per corpus (its parameters are held
//! fixed across core counts, as in the paper), and only the
//! hierarchical optimisation is timed. Core counts beyond the machine's
//! physical parallelism are still measured but flagged — a laptop
//! cannot reproduce the 64-core end of the x-axis, only the shape up to
//! its own core count. Each point is a [`Timing`]: the best of
//! [`REPEATS`] runs with its spread beside it, so every speedup is the
//! quotient of two printed times.
//!
//! Flags: `--nodes`, `--max-cores`, `--seed` and `--quick` (C = 250 / 500).
//!
//! ```text
//! cargo run --release -p viralcast-bench --bin fig10_time_vs_cores -- \
//!     --nodes 2000 --max-cores 64
//! ```

use viralcast::prelude::*;
use viralcast_bench::{
    core_sweep, print_table, standard_sbm_local, time_inference, Flags, Timing, REPEATS,
};

fn main() {
    let flags = Flags::from_env();
    let nodes = flags.usize("nodes", 2_000);
    let max_cores = flags.usize(
        "max-cores",
        std::thread::available_parallelism().map_or(8, |n| n.get()),
    );
    let seed = flags.u64("seed", 1);
    let corpus_sizes: Vec<usize> = if flags.has("quick") {
        vec![250, 500]
    } else {
        vec![1_000, 2_000, 3_000]
    };
    flags.finish();

    let physical = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("== Figures 10 and 13: processing time, speedup and efficiency vs #cores (SBM, {nodes} nodes) ==");
    println!("physical parallelism here: {physical} (points beyond it are oversubscribed)\n");

    let cores = core_sweep(max_cores.max(1));
    let hier = HierarchicalConfig {
        topics: InferOptions::default().topics,
        ..InferOptions::default().hierarchical
    };
    // Per corpus size, one timing at each core count.
    let mut times: Vec<Vec<Timing>> = Vec::new();
    for &c in &corpus_sizes {
        // Fresh corpus of C cascades; SLPA once.
        let experiment = standard_sbm_local(nodes, c, seed);
        let partition = infer_embeddings(experiment.train(), &InferOptions::default()).partition;
        let row = cores
            .iter()
            .map(|&p| {
                let t =
                    Timing::best_of(|| time_inference(experiment.train(), &partition, &hier, p));
                println!("C = {c:>5}, cores = {p:>3}: {t}");
                t
            })
            .collect();
        times.push(row);
    }

    let mark = |p: usize| format!("{p}{}", if p > physical { "*" } else { "" });
    let mut time_rows = Vec::new();
    let mut speedup_rows = Vec::new();
    for (&c, row) in corpus_sizes.iter().zip(&times) {
        for (&p, t) in cores.iter().zip(row) {
            let speedup = row[0].best / t.best;
            let [seconds, spread] = t.cells();
            time_rows.push(vec![format!("{c}"), mark(p), seconds, spread]);
            speedup_rows.push(vec![
                format!("{c}"),
                mark(p),
                format!("{speedup:.2}"),
                format!("{:.2}", speedup / p as f64),
            ]);
        }
    }

    println!(
        "\nFigure 10, time: best of {REPEATS} runs, and the slowest run's excess over it\n\
         (cores marked * exceed physical parallelism):"
    );
    print_table(&["cascades", "cores", "seconds", "spread"], &time_rows);

    // The paper's second observation: time ~linear in C at fixed cores.
    if corpus_sizes.len() >= 2 {
        println!("\ntime vs corpus size at 1 core (paper: \"generally linear\"):");
        for (&c, row) in corpus_sizes.iter().zip(&times) {
            let t = row[0].best;
            println!(
                "  C = {c:>5}: {t:.3}s  ({:.2} ms/cascade)",
                1000.0 * t / c as f64
            );
        }
    }

    println!("\nFigure 13, speedup s_n = t1/tn and efficiency e_n = s_n/n:");
    print_table(
        &["cascades", "cores", "speedup", "efficiency"],
        &speedup_rows,
    );
    println!(
        "\n(physical parallelism here: {physical}; the paper's 50× headline needs its\n\
         64-core testbed — the shape to compare is near-linear scaling to ~8–16\n\
         workers with efficiency decaying beyond)"
    );
}
