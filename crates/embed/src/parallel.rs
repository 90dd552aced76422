//! Algorithm 1 — community-parallel projected gradient ascent.
//!
//! Every community at a hierarchy level owns a contiguous block of rows
//! in the laid-out embedding matrices. [`run_level`] splits the matrices
//! into those disjoint `&mut` blocks and optimises each block against
//! its own sub-cascades on the rayon pool — "each process writes to the
//! distinct non-intersecting rows in matrices A and B … hence, the
//! communication overhead is reduced to a minimum."
//!
//! Because blocks share no state, the result is bit-identical for any
//! worker count, which the tests exploit: a single-community level must
//! reproduce the sequential optimiser exactly.

use crate::pgd::{optimize, PgdConfig, PgdReport};
use crate::subcascade::IndexedCascade;
use crate::Embeddings;
use rayon::prelude::*;
use std::ops::Range;

/// Outcome of one parallel level.
#[derive(Clone, Debug)]
pub struct LevelReport {
    /// Per-group optimiser reports, in group order.
    pub groups: Vec<PgdReport>,
}

impl LevelReport {
    /// Sum of the groups' final log-likelihoods (the level objective of
    /// eq. 9 restricted to intra-community terms).
    pub fn total_ll(&self) -> f64 {
        self.groups.iter().map(|g| g.final_ll).sum()
    }

    /// Total optimiser epochs across groups.
    pub fn total_epochs(&self) -> usize {
        self.groups.iter().map(|g| g.epochs).sum()
    }
}

/// Runs one level of Algorithm 1: `embeddings` must already be in the
/// hierarchy's layout order; `ranges` are the level's contiguous row
/// blocks; `group_cascades[g]` holds group `g`'s sub-cascades in local
/// row indices.
pub fn run_level(
    embeddings: &mut Embeddings,
    ranges: &[Range<usize>],
    group_cascades: &[Vec<IndexedCascade>],
    config: &PgdConfig,
) -> LevelReport {
    assert_eq!(
        ranges.len(),
        group_cascades.len(),
        "one cascade bucket per block"
    );
    let k = embeddings.topic_count();
    let blocks = embeddings.split_blocks(ranges);
    let groups: Vec<PgdReport> = blocks
        .into_par_iter()
        .zip(group_cascades.par_iter())
        .map(|((block_a, block_b), cascades)| optimize(cascades, block_a, block_b, k, config))
        .collect();
    LevelReport { groups }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_node(rows: [u32; 2], dt: f64) -> IndexedCascade {
        IndexedCascade {
            rows: rows.to_vec(),
            times: vec![0.0, dt],
        }
    }

    /// Cascades within two independent 2-node blocks.
    fn setup() -> (Embeddings, Vec<Range<usize>>, Vec<Vec<IndexedCascade>>) {
        let mut rng = StdRng::seed_from_u64(1);
        let emb = Embeddings::random(4, 1, 0.2, 0.8, &mut rng);
        let ranges = vec![0..2, 2..4];
        let groups = vec![
            vec![two_node([0, 1], 0.5); 10],
            vec![two_node([0, 1], 2.0); 10], // local rows again
        ];
        (emb, ranges, groups)
    }

    #[test]
    fn parallel_matches_per_block_sequential() {
        let (mut emb_par, ranges, groups) = setup();
        let mut emb_seq = emb_par.clone();
        let cfg = PgdConfig::default();

        let par_report = run_level(&mut emb_par, &ranges, &groups, &cfg);

        // Sequentially optimise each block.
        let mut seq_lls = Vec::new();
        {
            let k = emb_seq.topic_count();
            let blocks = emb_seq.split_blocks(&ranges);
            for ((a, b), cs) in blocks.into_iter().zip(&groups) {
                seq_lls.push(optimize(cs, a, b, k, &cfg).final_ll);
            }
        }
        assert_eq!(emb_par, emb_seq, "parallel result differs from sequential");
        for (p, s) in par_report.groups.iter().zip(&seq_lls) {
            assert!((p.final_ll - s).abs() < 1e-12);
        }
    }

    #[test]
    fn result_independent_of_thread_count() {
        let cfg = PgdConfig::default();
        let run_with = |threads: usize| {
            let (mut emb, ranges, groups) = setup();
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| run_level(&mut emb, &ranges, &groups, &cfg));
            emb
        };
        let one = run_with(1);
        let four = run_with(4);
        assert_eq!(one, four);
    }

    #[test]
    fn blocks_learn_different_rates() {
        let (mut emb, ranges, groups) = setup();
        let cfg = PgdConfig {
            max_epochs: 500,
            ..PgdConfig::default()
        };
        run_level(&mut emb, &ranges, &groups, &cfg);
        // Block 0 saw delay 0.5 ⇒ rate ≈ 2; block 1 saw 2.0 ⇒ rate ≈ 0.5.
        use viralcast_graph::NodeId;
        let r0 = emb.rate(NodeId(0), NodeId(1));
        let r1 = emb.rate(NodeId(2), NodeId(3));
        assert!((r0 - 2.0).abs() < 0.2, "block 0 rate {r0}");
        assert!((r1 - 0.5).abs() < 0.1, "block 1 rate {r1}");
    }

    #[test]
    fn empty_groups_are_noops() {
        let (mut emb, ranges, _) = setup();
        let before = emb.clone();
        let report = run_level(
            &mut emb,
            &ranges,
            &[Vec::new(), Vec::new()],
            &PgdConfig::default(),
        );
        assert_eq!(emb, before);
        assert_eq!(report.total_epochs(), 0);
    }

    #[test]
    fn report_totals_sum_groups() {
        let (mut emb, ranges, groups) = setup();
        let report = run_level(&mut emb, &ranges, &groups, &PgdConfig::default());
        let ll_sum: f64 = report.groups.iter().map(|g| g.final_ll).sum();
        assert!((report.total_ll() - ll_sum).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "one cascade bucket per block")]
    fn mismatched_groups_rejected() {
        let (mut emb, ranges, _) = setup();
        run_level(&mut emb, &ranges, &[Vec::new()], &PgdConfig::default());
    }
}
