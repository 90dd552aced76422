//! The cost *shape* of the serving scans, stated as ratios so it holds
//! in debug and release and on a drifting host alike — no wall-clock
//! threshold. A scan is O((|infected| + n)·K + top·log top): the
//! infected set is summed once per request and the winners kept by a
//! bounded selection, so on a model with n ≫ |infected| and n ≫ top
//! neither 64 sources instead of one nor `top` 100 instead of 1 may cost
//! a multiple. (Scoring every candidate against every source separately
//! and sorting all n fails the first ratio by a wide margin; CHANGES.md,
//! PR 17.)

use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use viralcast_embed::Embeddings;
use viralcast_graph::NodeId;
use viralcast_model::{CascadeModel, EmbeddingBackend};

const NODES: usize = 20_000;
const TOPICS: usize = 16;
const ROUNDS: usize = 9;

/// Medians of `ROUNDS` timed calls of each closure, the two interleaved
/// so host drift lands on both sides.
fn medians(mut a: impl FnMut(), mut b: impl FnMut()) -> (Duration, Duration) {
    let time = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        start.elapsed()
    };
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        ta.push(time(&mut a));
        tb.push(time(&mut b));
    }
    ta.sort();
    tb.sort();
    (ta[ROUNDS / 2], tb[ROUNDS / 2])
}

#[test]
fn scan_cost_does_not_multiply_with_sources_or_top() {
    let mut rng = StdRng::seed_from_u64(19);
    let model = EmbeddingBackend::new(Embeddings::random(NODES, TOPICS, 0.0, 1.0, &mut rng));
    let many: Vec<NodeId> = (0..64).map(|i| NodeId::new(i * (NODES / 64))).collect();
    let one = [NodeId::new(NODES / 2)];

    let (sixty_four, single) = medians(
        || {
            drop(black_box(model.rank_candidates(
                black_box(&many),
                100,
                None,
            )))
        },
        || drop(black_box(model.rank_candidates(black_box(&one), 100, None))),
    );
    assert!(
        sixty_four <= 4 * single,
        "64-source scan {sixty_four:?} vs one-source scan {single:?}: more than 4x"
    );

    let (hundred, first) = medians(
        || drop(black_box(model.influencers(None, black_box(100), None))),
        || drop(black_box(model.influencers(None, black_box(1), None))),
    );
    assert!(
        hundred <= 4 * first,
        "influencers top 100 {hundred:?} vs top 1 {first:?}: more than 4x"
    );
}
