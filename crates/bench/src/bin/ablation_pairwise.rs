//! Node embeddings vs the `O(n²)` pairwise-rate model — the comparison
//! that motivates the whole paper ("rather than model the propagation
//! links, our framework models the nodes directly").
//!
//! Both models are fitted on the training cascades; the harness reports
//! free-parameter counts, fit time, and train/held-out log-likelihood.
//! The pairwise model can only score pairs it has seen, so on held-out
//! cascades it pays the rate floor for unseen links — the
//! generalisation gap node embeddings avoid.
//!
//! ```text
//! cargo run --release -p viralcast-bench --bin ablation_pairwise -- \
//!     --nodes 1000 --cascades 1000
//! ```

use viralcast::embed::likelihood::corpus_log_likelihood;
use viralcast::embed::subcascade::IndexedCascade;
use viralcast::prelude::*;
use viralcast_bench::pairwise::{PairwiseConfig, PairwiseModel};
use viralcast_bench::{print_table, standard_sbm_local, timed, Flags};

fn indexed(set: &CascadeSet) -> Vec<IndexedCascade> {
    set.cascades()
        .iter()
        .filter(|c| c.len() >= 2)
        .map(IndexedCascade::from_cascade)
        .collect()
}

fn main() {
    let flags = Flags::from_env();
    let nodes = flags.usize("nodes", 1_000);
    let cascades = flags.usize("cascades", 1_000);
    let seed = flags.u64("seed", 1);
    let topics = flags.usize("topics", 8);

    println!("== Node embeddings (2nK params) vs pairwise rates (O(n²) params) ==");
    let experiment = standard_sbm_local(nodes, cascades, seed);
    let train = indexed(experiment.train());
    let test = indexed(experiment.test());
    println!(
        "world: {nodes} nodes, {} train / {} test cascades\n",
        train.len(),
        test.len()
    );

    // Embedding model through the standard pipeline. The comparison is
    // about the paper's likelihood (eq. 8), so the L1 extension is off
    // unless --l1 is passed.
    let mut options = InferOptions {
        topics,
        ..InferOptions::default()
    };
    options.hierarchical.pgd.l1_penalty = flags.f64("l1", 0.0);
    options.hierarchical.pgd.max_epochs = flags.usize("epochs", 300);
    let (outcome, emb_secs) = timed(|| infer_embeddings(experiment.train(), &options));
    let emb = &outcome.embeddings;
    let emb_train_ll = corpus_log_likelihood(
        &train,
        emb.influence_matrix(),
        emb.selectivity_matrix(),
        topics,
    );
    let emb_test_ll = corpus_log_likelihood(
        &test,
        emb.influence_matrix(),
        emb.selectivity_matrix(),
        topics,
    );

    // Pairwise model.
    let ((pairwise, report), pw_secs) =
        timed(|| PairwiseModel::fit(&train, &PairwiseConfig::default()));
    let pw_test_ll = pairwise.log_likelihood(&test);

    let rows = vec![
        vec![
            "embeddings".to_string(),
            format!("{}", 2 * nodes * topics),
            format!("{emb_secs:.2}"),
            format!("{emb_train_ll:.0}"),
            format!("{emb_test_ll:.0}"),
        ],
        vec![
            "pairwise".to_string(),
            format!("{}", report.parameters),
            format!("{pw_secs:.2}"),
            format!("{:.0}", report.final_ll),
            format!("{pw_test_ll:.0}"),
        ],
    ];
    print_table(
        &["model", "#params", "fit (s)", "train LL", "held-out LL"],
        &rows,
    );
    println!(
        "\nparameter ratio pairwise/embeddings: {:.1}×  (full O(n²) would be {}×)",
        report.parameters as f64 / (2 * nodes * topics) as f64,
        (nodes * (nodes - 1)) / (2 * nodes * topics)
    );
    // How often does the pairwise model hit the rate floor on held-out
    // data (an infection whose every candidate source is unseen)?
    let mut floor_hits = 0usize;
    let mut events = 0usize;
    for c in &test {
        for j in 1..c.len() {
            events += 1;
            let covered = (0..j).any(|i| pairwise.rate(c.rows[i], c.rows[j]) > 0.0);
            if !covered {
                floor_hits += 1;
            }
        }
    }
    println!(
        "pairwise floor-hits on held-out infections: {floor_hits}/{events} \
         ({:.1}%)",
        100.0 * floor_hits as f64 / events.max(1) as f64
    );
    println!(
        "(with dense pair coverage the memorising pairwise model can win on\n\
         held-out likelihood; the embedding model's advantage is the {}× smaller\n\
         parameter set, the faster fit, and graceful handling of unseen pairs —\n\
         exactly the scalability argument of the paper's introduction)",
        report.parameters / (2 * nodes * topics).max(1)
    );
}
