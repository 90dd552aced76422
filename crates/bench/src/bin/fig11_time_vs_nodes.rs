//! Figure 11 — processing time vs core count for different graph sizes.
//!
//! The paper processes 2 000 cascades on SBM graphs of N = 1 000 /
//! 2 000 / 4 000 nodes and finds the curves nearly coincide: "as the
//! inference algorithm takes the cascades as input, the time cost does
//! not increase significantly even if more nodes are involved" (the
//! differences are 10–20 s on their testbed).
//!
//! Each point is a [`Timing`], as in Figure 10: the best of [`REPEATS`]
//! runs with its spread beside it.
//!
//! Flags: `--cascades`, `--max-cores`, `--seed` and `--quick`
//! (C = 500, N = 500 / 1 000).
//!
//! ```text
//! cargo run --release -p viralcast-bench --bin fig11_time_vs_nodes -- \
//!     --cascades 2000 --max-cores 8
//! ```

use viralcast::prelude::*;
use viralcast_bench::{
    core_sweep, print_table, standard_sbm_local, time_inference, Flags, Timing, REPEATS,
};

fn main() {
    let flags = Flags::from_env();
    let cascades = flags.usize("cascades", if flags.has("quick") { 500 } else { 2_000 });
    let max_cores = flags.usize(
        "max-cores",
        std::thread::available_parallelism().map_or(8, |n| n.get()),
    );
    let seed = flags.u64("seed", 1);
    let node_sizes: Vec<usize> = if flags.has("quick") {
        vec![500, 1_000]
    } else {
        vec![1_000, 2_000, 4_000]
    };
    flags.finish();

    println!("== Figure 11: processing time vs #cores across graph sizes (C = {cascades}) ==");
    let cores = core_sweep(max_cores);
    let hier = HierarchicalConfig {
        topics: InferOptions::default().topics,
        ..InferOptions::default().hierarchical
    };
    // Per graph size, one timing at each core count.
    let mut times: Vec<Vec<Timing>> = Vec::new();
    let mut rows = Vec::new();

    for &n in &node_sizes {
        let experiment = standard_sbm_local(n, cascades, seed);
        let partition = infer_embeddings(experiment.train(), &InferOptions::default()).partition;
        let mut row = Vec::new();
        for &p in &cores {
            let t = Timing::best_of(|| time_inference(experiment.train(), &partition, &hier, p));
            println!("N = {n:>5}, cores = {p:>3}: {t}");
            let [seconds, spread] = t.cells();
            rows.push(vec![format!("{n}"), format!("{p}"), seconds, spread]);
            row.push(t);
        }
        times.push(row);
    }

    println!("\nFigure 11, time: best of {REPEATS} runs, and the slowest run's excess over it:");
    print_table(&["nodes", "cores", "seconds", "spread"], &rows);

    // The headline comparison: how far apart the graph sizes are at each
    // core count.
    println!("\nacross graph sizes (paper: curves nearly coincide):");
    for (i, &p) in cores.iter().enumerate() {
        let at_p = times.iter().map(|row| row[i].best);
        let min = at_p.clone().fold(f64::INFINITY, f64::min);
        let max = at_p.fold(0.0, f64::max);
        println!(
            "  cores = {p:>3}: min {min:.3}s, max {max:.3}s, max/min − 1 = {:.0}%",
            100.0 * (max - min) / min
        );
    }
}
