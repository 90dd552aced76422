//! The reproducibility guarantee of the community-parallel design:
//! because workers own disjoint matrix row blocks, the result is
//! bit-identical for every thread count — unlike lock-free approaches.

use viralnews::viralcast::prelude::*;

fn world() -> (CascadeSet, Partition) {
    let experiment = SbmExperiment::build(
        &SbmExperimentConfig {
            sbm: SbmConfig {
                nodes: 240,
                community_size: 20,
                intra_prob: 0.3,
                inter_prob: 0.002,
            },
            cascades: 250,
            ..SbmExperimentConfig::default()
        },
        5,
    );
    let outcome = infer_embeddings(experiment.train(), &InferOptions::default());
    (experiment.train().clone(), outcome.partition)
}

#[test]
fn inference_is_bit_identical_across_thread_counts() {
    let (cascades, partition) = world();
    let config = HierarchicalConfig {
        topics: 6,
        ..HierarchicalConfig::default()
    };
    let run = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| infer(&cascades, &partition, &config).0)
    };
    let one = run(1);
    for threads in [2, 3, 8] {
        let multi = run(threads);
        assert_eq!(
            one, multi,
            "results diverged at {threads} threads — write-write isolation broken"
        );
    }
}

#[test]
fn repeated_runs_are_identical() {
    let (cascades, partition) = world();
    let config = HierarchicalConfig::default();
    let a = infer(&cascades, &partition, &config).0;
    let b = infer(&cascades, &partition, &config).0;
    assert_eq!(a, b);
}
