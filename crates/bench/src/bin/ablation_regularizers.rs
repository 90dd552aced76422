//! Regulariser ablation: how should signal-free rates be suppressed?
//!
//! The paper's objective (eq. 8) only constrains node pairs that
//! co-occur in cascades; pairs that never interact keep whatever rate
//! the random initialisation implies. The harness compares the bare
//! objective with **L1 shrinkage** (`PgdConfig::l1_penalty`, the
//! pipeline default), which drives signal-free components to zero.
//!
//! The harness measures the intra/inter-community rate contrast of the
//! recovered embeddings under each regime, their held-out eq.-8
//! log-likelihood per infection on the test split, plus runtime.
//!
//! ```text
//! cargo run --release -p viralcast-bench --bin ablation_regularizers -- \
//!     --nodes 400 --cascades 600
//! ```

use viralcast::embed::likelihood::corpus_log_likelihood;
use viralcast::embed::subcascade::IndexedCascade;
use viralcast::prelude::*;
use viralcast_bench::{indexed, print_table, standard_sbm_local, timed, Flags};

fn contrast(emb: &Embeddings, membership: &[usize]) -> (f64, f64) {
    let n = membership.len();
    let mut intra = (0.0, 0usize);
    let mut inter = (0.0, 0usize);
    let step = (n / 60).max(1);
    for u in (0..n).step_by(step) {
        for v in (0..n).step_by(step) {
            if u == v {
                continue;
            }
            let r = emb.rate(NodeId::new(u), NodeId::new(v));
            if membership[u] == membership[v] {
                intra = (intra.0 + r, intra.1 + 1);
            } else {
                inter = (inter.0 + r, inter.1 + 1);
            }
        }
    }
    (
        intra.0 / intra.1.max(1) as f64,
        inter.0 / inter.1.max(1) as f64,
    )
}

/// Eq. 8 on the test split (cascades of two or more infections),
/// divided by the number of infections it scores.
fn held_out_ll(emb: &Embeddings, test: &[IndexedCascade], topics: usize) -> f64 {
    let ll = corpus_log_likelihood(
        test,
        emb.influence_matrix(),
        emb.selectivity_matrix(),
        topics,
    );
    let infections: usize = test.iter().map(IndexedCascade::len).sum();
    ll / infections.max(1) as f64
}

fn main() {
    let flags = Flags::from_env();
    let nodes = flags.usize("nodes", 400);
    let cascades = flags.usize("cascades", 600);
    let seed = flags.u64("seed", 3);
    flags.finish();

    println!("== Ablation: suppressing signal-free rates ==");
    let experiment = standard_sbm_local(nodes, cascades, seed);
    let membership = experiment.planted_membership();
    let test = indexed(experiment.test());

    let mut rows = Vec::new();
    for (name, l1) in [("none (paper eq. 8)", 0.0), ("L1 = 5", 5.0)] {
        let mut options = InferOptions::default();
        options.hierarchical.pgd.l1_penalty = l1;
        let (outcome, secs) = timed(|| infer_embeddings(experiment.train(), &options));
        let (intra, inter) = contrast(&outcome.embeddings, &membership);
        let heldout = held_out_ll(&outcome.embeddings, &test, options.topics);
        rows.push(vec![
            name.to_string(),
            format!("{secs:.2}"),
            format!("{intra:.3}"),
            format!("{inter:.4}"),
            format!("{:.1}", intra / inter.max(1e-9)),
            format!("{heldout:.3}"),
        ]);
    }
    print_table(
        &[
            "regulariser",
            "seconds",
            "intra rate",
            "inter rate",
            "contrast",
            "held-out LL/inf",
        ],
        &rows,
    );
    println!(
        "\n(higher contrast = recovered rates separate planted communities better;\n\
         the planted ground truth here has contrast ≈ {:.0})",
        experiment.rate_contrast()
    );
}
