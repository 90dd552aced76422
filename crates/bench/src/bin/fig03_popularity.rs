//! Figure 3 — histogram of news-site popularity (the Matthew effect).
//!
//! The paper plots the number of events reported per site on log-log
//! axes: a power law with a hard cut-off at 5 000 events (sites below
//! it were dropped). This harness prints the same log-binned histogram
//! for (a) the latent yearly popularity of the synthetic sites — the
//! quantity that corresponds to the paper's year-scale counts — and
//! (b) the reports observed in the simulated corpus, plus the
//! maximum-likelihood power-law exponent.
//!
//! ```text
//! cargo run --release -p viralcast-bench --bin fig03_popularity -- \
//!     --sites 6000 --events 2600
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use viralcast::graph::powerlaw::{log_binned_histogram, PowerLaw};
use viralcast::prelude::*;

fn main() {
    let flags = viralcast_bench::Flags::from_env();
    let sites = flags.usize("sites", 6_000);
    let events = flags.usize("events", 2_600);
    let seed = flags.u64("seed", 3);
    flags.finish();

    println!("== Figure 3: news-site popularity histogram ==");
    let mut rng = StdRng::seed_from_u64(seed);
    let world = GdeltWorld::generate(
        GdeltConfig {
            sites,
            ..GdeltConfig::default()
        },
        &mut rng,
    );

    // (a) Latent yearly report counts — the scale of the paper's x-axis
    // (5e3 … 1e7 events).
    let popularity: Vec<f64> = world.sites().iter().map(|s| s.popularity).collect();
    let cutoff = world.config().popularity_cutoff;
    println!("\nlatent yearly reports per site (cut-off {cutoff:.0}, log-binned):");
    let rows: Vec<Vec<String>> = log_binned_histogram(&popularity, cutoff, 2)
        .into_iter()
        .filter(|b| b.count > 0)
        .map(|b| {
            vec![
                format!("{:.0}", b.lo),
                format!("{:.0}", b.hi),
                format!("{}", b.count),
                "#".repeat((b.count as f64).log2().max(0.0) as usize + 1),
            ]
        })
        .collect();
    viralcast_bench::print_table(&["from", "to", "#sites", "log₂ bar"], &rows);
    // The per-community hotness multiplier distorts the bulk of the
    // distribution, so fit the exponent on the tail (≥ 10× cut-off),
    // where the individual power law dominates.
    let exponent = PowerLaw::mle_exponent(&popularity, 10.0 * cutoff).unwrap_or(f64::NAN);
    println!(
        "tail MLE power-law exponent (x ≥ {:.0}): {exponent:.2} (generator truth {:.2})",
        10.0 * cutoff,
        world.config().popularity_exponent
    );

    // (b) Observed reports in the simulated corpus (compressed scale —
    // thousands of events instead of GDELT's millions).
    let table = world.simulate_events(events, &mut rng);
    let reports: Vec<f64> = table
        .reports_per_site()
        .into_iter()
        .map(|c| c as f64)
        .collect();
    let nonzero: Vec<f64> = reports.iter().copied().filter(|&c| c >= 1.0).collect();
    println!("\nobserved reports per site over {events} simulated events (log-binned):");
    let rows: Vec<Vec<String>> = log_binned_histogram(&nonzero, 1.0, 2)
        .into_iter()
        .filter(|b| b.count > 0)
        .map(|b| {
            vec![
                format!("{:.0}", b.lo),
                format!("{:.0}", b.hi),
                format!("{}", b.count),
                "#".repeat((b.count as f64).log2().max(0.0) as usize + 1),
            ]
        })
        .collect();
    viralcast_bench::print_table(&["from", "to", "#sites", "log₂ bar"], &rows);
    // Pearson on raw popularity is dominated by the heavy tail; the
    // meaningful association is on the log scale.
    let log_pop: Vec<f64> = popularity.iter().map(|p| p.ln()).collect();
    println!(
        "correlation(log popularity, observed reports) = {:.2}",
        viralcast_bench::pearson(&log_pop, &reports)
    );
}
