//! Statistical recovery tests: can the inference machinery actually
//! recover the generative structure it claims to model?

use viralnews::viralcast::prelude::*;

/// A local-spreading world where rate structure is identifiable.
fn local_world(seed: u64) -> SbmExperiment {
    SbmExperiment::build(
        &SbmExperimentConfig {
            sbm: SbmConfig {
                nodes: 160,
                community_size: 20,
                intra_prob: 0.4,
                inter_prob: 0.003,
            },
            cascades: 400,
            planted: PlantedConfig::local(),
            ..SbmExperimentConfig::default()
        },
        seed,
    )
}

#[test]
fn inferred_rates_correlate_with_ground_truth() {
    let experiment = local_world(1);
    let outcome = infer_embeddings(experiment.train(), &InferOptions::default());
    let truth = experiment.ground_truth();
    let n = experiment.graph().node_count();

    // Correlate modelled vs true rates over sampled ordered pairs.
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for u in (0..n).step_by(2) {
        for v in (0..n).step_by(2) {
            if u == v {
                continue;
            }
            let (u, v) = (NodeId::new(u), NodeId::new(v));
            xs.push(truth.rate(u, v));
            ys.push(outcome.embeddings.rate(u, v));
        }
    }
    // Individual pair rates are only identified up to how the MLE
    // splits a node's total incoming rate among predecessors, so the
    // pointwise correlation is moderate even for a well-fit model.
    let corr = pearson(&xs, &ys);
    assert!(corr > 0.4, "rate recovery correlation only {corr}");
}

#[test]
fn mle_recovers_scaled_rate_on_chain_world() {
    // A controlled check of the estimator itself: chains 0→1→2 with a
    // known rate; the product A_0·B_1 must converge near the truth.
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use viralnews::viralcast::embed::pgd::{optimize, PgdConfig};
    use viralnews::viralcast::embed::subcascade::IndexedCascade;

    let true_rate = 3.0;
    let mut rng = StdRng::seed_from_u64(2);
    let cascades: Vec<IndexedCascade> = (0..400)
        .map(|_| {
            let d1 = -(1.0 - rng.gen_range(0.0..1.0f64)).ln() / true_rate;
            let d2 = -(1.0 - rng.gen_range(0.0..1.0f64)).ln() / true_rate;
            IndexedCascade {
                rows: vec![0, 1, 2],
                times: vec![0.0, d1, d1 + d2],
            }
        })
        .collect();
    let mut a = vec![0.3; 3];
    let mut b = vec![0.3; 3];
    let config = PgdConfig {
        max_epochs: 800,
        ..PgdConfig::default()
    };
    optimize(&cascades, &mut a, &mut b, 1, &config);
    // v=2's infection can come from node 0 or 1: the MLE matches the
    // total rate A_0 B_2 + A_1 B_2 against the observed delays, and
    // A_0 B_1 against d1.
    let rate01 = a[0] * b[1];
    assert!(
        (rate01 - true_rate).abs() / true_rate < 0.25,
        "recovered rate {rate01} vs true {true_rate}"
    );
}

#[test]
fn slpa_partition_matches_planted_blocks() {
    use viralnews::viralcast::community::metrics::nmi;
    let experiment = local_world(3);
    let outcome = infer_embeddings(experiment.train(), &InferOptions::default());
    let planted = Partition::from_labels(&experiment.planted_membership());
    let score = nmi(&outcome.partition, &planted);
    assert!(score > 0.7, "community NMI only {score}");
}

#[test]
fn influencer_ranking_recovers_boosted_nodes() {
    // Plant a world where nodes 0..8 have triple influence; they must
    // dominate the inferred top-10 ranking.
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use viralnews::viralcast::graph::sbm;
    use viralnews::viralcast::propagation::{planted_embeddings, SimulationConfig, Simulator};

    let sbm_config = SbmConfig {
        nodes: 120,
        community_size: 20,
        intra_prob: 0.4,
        inter_prob: 0.003,
    };
    let mut rng = StdRng::seed_from_u64(4);
    let graph = sbm::generate(&sbm_config, &mut rng);
    let mut rates = planted_embeddings(
        &sbm_config.ground_truth(),
        &PlantedConfig {
            on_topic: 1.2,
            off_topic: 0.02,
            jitter: 0.2,
        },
        &mut rng,
    );
    let k = rates.topic_count();
    for x in &mut rates.matrices_mut().0[..8 * k] {
        *x *= 3.0;
    }
    let sim = Simulator::new(
        &graph,
        rates,
        SimulationConfig {
            observation_window: 1.0,
            min_cascade_size: 2,
            ..SimulationConfig::default()
        },
    );
    let corpus = sim.simulate_corpus(500, &mut rng);

    let outcome = infer_embeddings(&corpus, &InferOptions::default());
    let top10 = top_influencers(&outcome.embeddings, 10);
    let boosted_in_top = top10.iter().filter(|r| r.node.index() < 8).count();
    assert!(
        boosted_in_top >= 5,
        "only {boosted_in_top} of 8 boosted nodes in the inferred top-10"
    );
}

fn pearson(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let cov: f64 = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum();
    let sx: f64 = x.iter().map(|a| (a - mx).powi(2)).sum::<f64>().sqrt();
    let sy: f64 = y.iter().map(|b| (b - my).powi(2)).sum::<f64>().sqrt();
    cov / (sx * sy)
}
