//! Figure 2 — the backbone co-reporting network.
//!
//! The paper links any two sites that co-reported at least 50 of the
//! 5 000 sampled events and shows the regional clusters of the
//! resulting graph. This harness builds the same thresholded graph on
//! the synthetic world and reports the quantities the visual conveys:
//! how many sites survive, the component structure, and the fraction of
//! edges staying within one region.
//!
//! ```text
//! cargo run --release -p viralcast-bench --bin fig02_backbone -- \
//!     --sites 1200 --events 2000 --threshold 20
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use viralcast::gdelt::query;
use viralcast::prelude::*;

fn main() {
    let flags = viralcast_bench::Flags::from_env();
    let sites = flags.usize("sites", 1_200);
    let events = flags.usize("events", 2_000);
    // The paper's 50-of-5000 threshold is 1% of events; default to the
    // same ratio of our (smaller) sample.
    let threshold = flags.usize("threshold", (events / 100).max(2));
    let seed = flags.u64("seed", 2);
    flags.finish();

    println!("== Figure 2: backbone co-reporting network ==");
    let mut rng = StdRng::seed_from_u64(seed);
    let world = GdeltWorld::generate(
        GdeltConfig {
            sites,
            ..GdeltConfig::default()
        },
        &mut rng,
    );
    let table = world.simulate_events(events, &mut rng);
    let all_events: Vec<u32> = (0..events as u32).collect();
    let backbone = query::coreport_backbone(&table, &all_events, threshold);

    let g = backbone.graph();
    let covered = g.nodes().filter(|&u| g.out_degree(u) > 0).count();
    println!(
        "threshold ≥ {threshold} co-reported events: {covered} of {sites} sites linked, {} edges",
        g.edge_count() / 2
    );

    let comps = backbone.components(false);
    println!("\nconnected components (largest first):");
    let rows: Vec<Vec<String>> = comps
        .iter()
        .take(8)
        .enumerate()
        .map(|(i, c)| {
            // Dominant region of the component.
            let regions = world.region_labels();
            let mut counts = [0usize; 4];
            for u in c {
                counts[regions[u.index()]] += 1;
            }
            let names = ["US", "EU", "AU", "Mixed"];
            let (best, n) = (0..4)
                .map(|r| (r, counts[r]))
                .max_by_key(|&(_, n)| n)
                .unwrap();
            vec![
                format!("{i}"),
                format!("{}", c.len()),
                names[best].to_string(),
                format!("{:.0}%", 100.0 * n as f64 / c.len() as f64),
            ]
        })
        .collect();
    viralcast_bench::print_table(&["component", "sites", "dominant region", "purity"], &rows);

    let assortativity = backbone.label_assortativity(&world.region_labels());
    println!(
        "\nintra-region edge fraction: {:.2} (paper: the visual clusters are the US/AU/EU regions)",
        assortativity
    );
}
