//! Lock-free racing-update baseline (Hogwild; Recht, Ré, Wright & Niu,
//! NIPS 2011).
//!
//! The paper positions its community-parallel design against lock-free
//! parallel SGD: Hogwild lets every worker update shared parameters
//! without any synchronisation, tolerating races, whereas Algorithm 1
//! avoids conflicts structurally. We implement Hogwild over the same
//! likelihood so `ablation_strategies` can compare wall-clock and final
//! likelihood of the two strategies on identical inputs.
//!
//! Updates go through `AtomicU64` bit-casts with relaxed ordering —
//! racy read-modify-write by design, which is the whole point of the
//! baseline. Results are therefore *not* deterministic across runs or
//! thread counts, unlike the community-parallel path.

use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use viralcast::embed::gradient::{accumulate_gradients, GradScratch};
use viralcast::embed::likelihood::corpus_log_likelihood;
use viralcast::embed::{Embeddings, IndexedCascade};

/// Step, epoch budget and clamp of a Hogwild run. Racing updates have no
/// rollback line search and no early stopping, so none of the projected
/// gradient optimiser's constants carry over.
#[derive(Clone, Copy, Debug)]
pub struct HogwildConfig {
    /// Learning rate `α` (divided by the corpus size per step).
    pub learning_rate: f64,
    /// Epochs to run.
    pub max_epochs: usize,
    /// Upper clamp on embedding entries.
    pub max_value: f64,
}

/// Report of a Hogwild run.
#[derive(Clone, Debug)]
pub struct HogwildReport {
    /// Epochs executed.
    pub epochs: usize,
    /// Corpus log-likelihood at the initial parameters.
    pub initial_ll: f64,
    /// Corpus log-likelihood at the final parameters.
    pub final_ll: f64,
}

/// Shared parameter vector updated without locks.
struct AtomicMatrix {
    cells: Vec<AtomicU64>,
}

impl AtomicMatrix {
    fn from_slice(xs: &[f64]) -> Self {
        AtomicMatrix {
            cells: xs.iter().map(|&x| AtomicU64::new(x.to_bits())).collect(),
        }
    }

    #[inline]
    fn load(&self, i: usize) -> f64 {
        f64::from_bits(self.cells[i].load(Ordering::Relaxed))
    }

    fn snapshot(&self) -> Vec<f64> {
        self.cells
            .iter()
            .map(|c| f64::from_bits(c.load(Ordering::Relaxed)))
            .collect()
    }

    /// Racy add-and-project: read, add, clamp, store. Lost updates are
    /// accepted, exactly as in Hogwild.
    #[inline]
    fn add_project(&self, i: usize, delta: f64, max_value: f64) {
        let old = self.load(i);
        let new = (old + delta).clamp(0.0, max_value);
        self.cells[i].store(new.to_bits(), Ordering::Relaxed);
    }
}

/// Runs per-cascade stochastic gradient ascent over shared matrices with
/// racing updates. `cascades` use global row indices (as produced by
/// [`IndexedCascade::from_cascade`]).
pub fn optimize_hogwild(
    cascades: &[IndexedCascade],
    embeddings: &mut Embeddings,
    config: &HogwildConfig,
) -> HogwildReport {
    let k = embeddings.topic_count();
    if cascades.is_empty() || embeddings.node_count() == 0 {
        return HogwildReport {
            epochs: 0,
            initial_ll: 0.0,
            final_ll: 0.0,
        };
    }
    let initial_ll = {
        let a = embeddings.influence_matrix();
        let b = embeddings.selectivity_matrix();
        corpus_log_likelihood(cascades, a, b, k)
    };
    let shared_a = AtomicMatrix::from_slice(embeddings.influence_matrix());
    let shared_b = AtomicMatrix::from_slice(embeddings.selectivity_matrix());
    // Per-cascade SGD steps are much smaller than batch steps; scale the
    // rate down by the corpus size to land in a comparable regime.
    let step = config.learning_rate / cascades.len() as f64;

    for _ in 0..config.max_epochs {
        cascades.par_iter().for_each_init(
            || {
                (
                    GradScratch::new(k),
                    vec![0.0f64; shared_a.cells.len()],
                    vec![0.0f64; shared_b.cells.len()],
                )
            },
            |(scratch, ga, gb), cascade| {
                // Read a racy snapshot of the rows this cascade touches.
                let a_snap = shared_a.snapshot();
                let b_snap = shared_b.snapshot();
                ga.fill(0.0);
                gb.fill(0.0);
                accumulate_gradients(cascade, &a_snap, &b_snap, k, ga, gb, scratch);
                for &row in &cascade.rows {
                    let base = row as usize * k;
                    for t in 0..k {
                        if ga[base + t] != 0.0 {
                            shared_a.add_project(base + t, step * ga[base + t], config.max_value);
                        }
                        if gb[base + t] != 0.0 {
                            shared_b.add_project(base + t, step * gb[base + t], config.max_value);
                        }
                    }
                }
            },
        );
    }

    let final_a = shared_a.snapshot();
    let final_b = shared_b.snapshot();
    let final_ll = corpus_log_likelihood(cascades, &final_a, &final_b, k);
    *embeddings = Embeddings::from_matrices(embeddings.node_count(), k, final_a, final_b);
    HogwildReport {
        epochs: config.max_epochs,
        initial_ll,
        final_ll,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use viralcast::graph::NodeId;

    /// A step, budget and clamp for tests that override at most two.
    const DEFAULTS: HogwildConfig = HogwildConfig {
        learning_rate: 0.1,
        max_epochs: 100,
        max_value: 1e3,
    };

    fn two_node(dt: f64) -> IndexedCascade {
        IndexedCascade {
            rows: vec![0, 1],
            times: vec![0.0, dt],
        }
    }

    #[test]
    fn improves_likelihood() {
        let cascades = vec![two_node(0.5); 20];
        let mut rng = StdRng::seed_from_u64(1);
        let mut emb = Embeddings::random(2, 1, 0.2, 0.4, &mut rng);
        let cfg = HogwildConfig {
            max_epochs: 50,
            ..DEFAULTS
        };
        let report = optimize_hogwild(&cascades, &mut emb, &cfg);
        assert!(
            report.final_ll > report.initial_ll,
            "LL went {} -> {}",
            report.initial_ll,
            report.final_ll
        );
    }

    #[test]
    fn parameters_stay_in_bounds() {
        let cascades = vec![two_node(0.01); 10];
        let mut rng = StdRng::seed_from_u64(2);
        let mut emb = Embeddings::random(2, 2, 0.1, 0.5, &mut rng);
        let cfg = HogwildConfig {
            max_epochs: 30,
            max_value: 20.0,
            ..DEFAULTS
        };
        optimize_hogwild(&cascades, &mut emb, &cfg);
        for u in 0..2u32 {
            let u = NodeId(u);
            for &x in emb.influence(u).iter().chain(emb.selectivity(u)) {
                assert!((0.0..=20.0).contains(&x), "entry {x} out of bounds");
            }
        }
    }

    #[test]
    fn empty_input_is_noop() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut emb = Embeddings::random(2, 1, 0.1, 0.5, &mut rng);
        let before = emb.clone();
        let report = optimize_hogwild(&[], &mut emb, &DEFAULTS);
        assert_eq!(report.epochs, 0);
        assert_eq!(emb, before);
    }

    #[test]
    fn approaches_the_mle_rate() {
        let dt = 0.5;
        let cascades = vec![two_node(dt); 50];
        let mut rng = StdRng::seed_from_u64(4);
        let mut emb = Embeddings::random(2, 1, 0.3, 0.6, &mut rng);
        let cfg = HogwildConfig {
            max_epochs: 400,
            learning_rate: 0.3,
            ..DEFAULTS
        };
        optimize_hogwild(&cascades, &mut emb, &cfg);
        let rate = emb.rate(NodeId(0), NodeId(1));
        assert!(
            (rate - 1.0 / dt).abs() < 0.3,
            "rate {rate} not near {}",
            1.0 / dt
        );
    }
}
