//! Figure 1 — dendrogram of hierarchical clustering of sampled news
//! event cascades.
//!
//! The paper samples 5 000 GDELT events, measures pairwise distance as
//! `1 − Jaccard` over reporting-site sets, clusters with Ward's
//! criterion and reads three regional clusters off the dendrogram (the
//! inner nodes are annotated with Ward distance and cluster size).
//!
//! This harness regenerates the analysis on the synthetic GDELT world:
//! it prints the top merges (distance, size) as the annotated inner
//! nodes, cuts the tree into k clusters, and cross-tabulates each
//! cluster against the dominant region of its events — the claim being
//! reproduced is that the cascade clusters are *regional*.
//!
//! ```text
//! cargo run --release -p viralcast-bench --bin fig01_dendrogram -- \
//!     --sites 1200 --events 2000 --sample 800 --clusters 4
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use viralcast::community::jaccard::pairwise_jaccard_distances;
use viralcast::community::ward::ward_linkage;
use viralcast::gdelt::query;
use viralcast::prelude::*;

fn main() {
    let flags = viralcast_bench::Flags::from_env();
    let sites = flags.usize("sites", 1_200);
    let events = flags.usize("events", 2_000);
    let sample = flags.usize("sample", 800);
    let clusters = flags.usize("clusters", 4);
    let seed = flags.u64("seed", 1);
    flags.finish();

    println!("== Figure 1: hierarchical clustering of news-event cascades ==");
    let mut rng = StdRng::seed_from_u64(seed);
    let world = GdeltWorld::generate(
        GdeltConfig {
            sites,
            ..GdeltConfig::default()
        },
        &mut rng,
    );
    let table = world.simulate_events(events, &mut rng);

    // Sample cascades and build the Jaccard distance matrix (eq. 1).
    let sampled = query::sample_events(&table, sample, &mut rng);
    let sets = query::site_sets_of(&table, &sampled);
    println!(
        "sampled {} events (of {events}); computing {}×{} Jaccard distances…",
        sets.len(),
        sets.len(),
        sets.len()
    );
    let (distances, d_secs) = viralcast_bench::timed(|| pairwise_jaccard_distances(&sets));
    let (merges, w_secs) = viralcast_bench::timed(|| ward_linkage(&distances));
    println!("distance matrix {d_secs:.1}s, Ward NN-chain {w_secs:.1}s");
    let dendrogram = Dendrogram::new(sets.len(), merges);

    // The annotated inner nodes of the figure: highest merges with
    // their Ward distance and leaf count.
    println!("\ntop merges (Ward distance, cluster size) — cf. the figure's annotations:");
    for (d, s) in dendrogram.top_merges(8) {
        println!("  distance {d:>8.2}   size {s:>5}");
    }

    // Cut into k flat clusters and cross-tabulate against regions.
    let labels = dendrogram.cut_k(clusters);
    let regions = world.region_labels();
    let region_names = ["US", "EU", "AU", "Mixed"];
    let mut rows = Vec::new();
    for c in 0..clusters {
        let members: Vec<usize> = (0..sets.len()).filter(|&i| labels[i] == c).collect();
        // Dominant region of each event = majority region of reporters.
        let mut region_counts = [0usize; 4];
        for &i in &members {
            let mut counts = [0usize; 4];
            for site in &sets[i] {
                counts[regions[site.index()]] += 1;
            }
            let dominant = (0..4).max_by_key(|&r| counts[r]).unwrap();
            region_counts[dominant] += 1;
        }
        let total = members.len().max(1);
        let (best, best_count) = (0..4)
            .map(|r| (r, region_counts[r]))
            .max_by_key(|&(_, c)| c)
            .unwrap();
        rows.push(vec![
            format!("{c}"),
            format!("{}", members.len()),
            region_names[best].to_string(),
            format!("{:.0}%", 100.0 * best_count as f64 / total as f64),
        ]);
    }
    println!("\ncluster ↔ region cross-tabulation (paper: clusters are regional):");
    viralcast_bench::print_table(&["cluster", "events", "dominant region", "purity"], &rows);

    let purity: f64 = rows
        .iter()
        .map(|r| r[3].trim_end_matches('%').parse::<f64>().unwrap() / 100.0)
        .sum::<f64>()
        / rows.len() as f64;
    println!(
        "\nmean cluster purity: {:.2} (paper: visually ~pure regional clusters)",
        purity
    );
}
