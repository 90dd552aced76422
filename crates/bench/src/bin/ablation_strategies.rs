//! Ablation of the parallel-inference design choices: for each strategy
//! the harness reports wall-clock, final data log-likelihood, and
//! downstream prediction F1 — the evidence behind DESIGN.md §5.
//!
//! Strategies:
//! * `sequential` — one optimiser over the whole matrix (t₁ baseline);
//! * `hierarchical` — Algorithm 2 on the paper's leaf-count-balanced tree;
//! * `hogwild` — lock-free racing updates (Recht et al.), the design
//!   the paper argues *against*.
//!
//! ```text
//! cargo run --release -p viralcast-bench --bin ablation_strategies -- \
//!     --nodes 1000 --cascades 1000
//! ```

use viralcast::embed::initial_embeddings;
use viralcast::embed::likelihood::corpus_log_likelihood;
use viralcast::prelude::*;
use viralcast_bench::hogwild::{optimize_hogwild, HogwildConfig};
use viralcast_bench::{indexed, print_table, standard_sbm_local as standard_sbm, timed, Flags};

fn main() {
    let flags = Flags::from_env();
    let nodes = flags.usize("nodes", 1_000);
    let cascades = flags.usize("cascades", 1_000);
    let seed = flags.u64("seed", 1);
    let topics = flags.usize("topics", 8);
    flags.finish();

    println!("== Ablation: parallel-inference strategies ==");
    let experiment = standard_sbm(nodes, cascades, seed);
    let outcome = infer_embeddings(experiment.train(), &InferOptions::default());
    let partition = outcome.partition;
    println!(
        "world: {nodes} nodes, {} training cascades, {} communities\n",
        experiment.train().len(),
        partition.community_count()
    );

    let base = HierarchicalConfig {
        topics,
        ..InferOptions::default().hierarchical
    };
    let train = indexed(experiment.train());
    let corpus_ll = |emb: &Embeddings| {
        corpus_log_likelihood(
            &train,
            emb.influence_matrix(),
            emb.selectivity_matrix(),
            topics,
        )
    };
    let task = PredictionTask {
        window: experiment.config().observation_window,
        ..PredictionTask::default()
    };
    let f1_of = |emb: &Embeddings| {
        let ds = extract_dataset(emb, experiment.test(), &task);
        let t = ds.top_fraction_threshold(0.2);
        threshold_sweep(&ds, &[t], &task)
            .first()
            .map_or(0.0, |p| p.f1)
    };

    let mut rows = Vec::new();

    let ((emb, _), secs) = timed(|| infer_sequential(experiment.train(), &base));
    rows.push(vec![
        "sequential".into(),
        format!("{secs:.2}"),
        format!("{:.1}", corpus_ll(&emb)),
        format!("{:.3}", f1_of(&emb)),
    ]);

    let ((emb, _), secs) = timed(|| infer(experiment.train(), &partition, &base));
    rows.push(vec![
        "hierarchical".into(),
        format!("{secs:.2}"),
        format!("{:.1}", corpus_ll(&emb)),
        format!("{:.3}", f1_of(&emb)),
    ]);

    let (emb, secs) = timed(|| {
        let mut emb = initial_embeddings(nodes, &base);
        // Racing updates have no rollback line search, so Hogwild needs
        // a conservative step to stay stable.
        optimize_hogwild(
            &train,
            &mut emb,
            &HogwildConfig {
                learning_rate: 0.01,
                max_epochs: base.pgd.max_epochs,
                max_value: 50.0,
            },
        );
        emb
    });
    rows.push(vec![
        "hogwild".into(),
        format!("{secs:.2}"),
        format!("{:.1}", corpus_ll(&emb)),
        format!("{:.3}", f1_of(&emb)),
    ]);

    print_table(&["strategy", "seconds", "final LL", "F1@top-20%"], &rows);
    println!(
        "\n(hierarchical is deterministic for any thread count; hogwild is not — the\n\
         paper's structural conflict-freedom is what buys reproducibility)"
    );
}
