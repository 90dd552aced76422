//! Significant-influencer identification (the application promised in
//! the paper's introduction): infer site embeddings from synthetic
//! GDELT events and rank outlets by influence, then check the ranking
//! against the world's latent popularity.
//!
//! ```text
//! cargo run --release --example influencers -- --sites 800 --events 1000
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use viralnews::cli::Flags;
use viralnews::viralcast::gdelt::{GdeltConfig, GdeltWorld};
use viralnews::viralcast::prelude::*;

fn main() {
    let flags = Flags::from_env();
    let sites = flags.usize("sites", 800);
    let events = flags.usize("events", 1_000);
    let seed = flags.u64("seed", 11);
    flags.finish();

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

    println!("inferring embeddings from {} events…", corpus.len());
    let inference = infer_embeddings(&corpus, &InferOptions::default());

    println!("\ntop 15 influencers by inferred ‖A_u‖:");
    println!(
        "{:>5} {:<22} {:>6} {:>12} {:>10}",
        "rank", "site", "region", "popularity", "score"
    );
    let reports = table.reports_per_site();
    for (rank, r) in top_influencers(&inference.embeddings, 15)
        .iter()
        .enumerate()
    {
        let site = &world.sites()[r.node.index()];
        println!(
            "{:>5} {:<22} {:>6} {:>12.0} {:>10.3}",
            rank + 1,
            site.name,
            site.region.to_string(),
            site.popularity,
            r.score
        );
    }

    // How well does inferred influence track latent popularity? Compare
    // mean popularity of the inferred top decile vs the rest.
    let ranked = top_influencers(&inference.embeddings, sites);
    let decile = sites / 10;
    let mean_pop = |rs: &[InfluencerRank]| {
        rs.iter()
            .map(|r| world.sites()[r.node.index()].popularity)
            .sum::<f64>()
            / rs.len() as f64
    };
    let top_mean = mean_pop(&ranked[..decile]);
    let rest_mean = mean_pop(&ranked[decile..]);
    println!(
        "\nmean latent popularity: inferred-top-decile {top_mean:.0} vs rest {rest_mean:.0} ({:.1}×)",
        top_mean / rest_mean
    );
    let mean_reports_top = ranked[..decile]
        .iter()
        .map(|r| reports[r.node.index()] as f64)
        .sum::<f64>()
        / decile as f64;
    println!("mean observed reports of inferred top decile: {mean_reports_top:.1}");
}
