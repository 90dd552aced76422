//! `model.scan.helpers` counts the helper threads scans start: none for
//! a 2 000 × 8 model, whose scans stay on the calling thread, and one
//! per large scan of a 60 000 × 16 model while a core is free. The one
//! test of its own binary, so no other scan moves the process-wide
//! counter under it.

use rand::rngs::StdRng;
use rand::SeedableRng;
use viralcast_embed::Embeddings;
use viralcast_graph::NodeId;
use viralcast_model::{CascadeModel, EmbeddingBackend, RowBlock};

fn model(nodes: usize, topics: usize) -> EmbeddingBackend {
    let mut rng = StdRng::seed_from_u64(7);
    EmbeddingBackend::new(Embeddings::random(nodes, topics, 0.0, 1.0, &mut rng))
}

/// A 64-seed top-100 predict, single-box and on shard 0 of 2, and a
/// global influencer scan.
fn scan(model: &EmbeddingBackend) {
    let n = model.node_count();
    let infected: Vec<NodeId> = (0..64).map(|i| NodeId::new(i * (n / 64))).collect();
    let half = RowBlock::round_robin(n, 0, 2).unwrap();
    assert_eq!(model.rank_candidates(&infected, 100, None).len(), 100);
    assert_eq!(
        model.rank_candidates(&infected, 100, Some(&half)).len(),
        100
    );
    assert_eq!(model.influencers(None, 100, None).unwrap().len(), 100);
}

#[test]
fn helpers_start_for_large_scans_only() {
    let helpers = viralcast_obs::metrics().counter("model.scan.helpers");
    scan(&model(2_000, 8));
    assert_eq!(helpers.get(), 0, "a 2 000 x 8 scan took a helper");

    // 60 000 x 16 and its 30 000-row shard both reach the split size.
    scan(&model(60_000, 16));
    let free_core = std::thread::available_parallelism().map_or(1, |n| n.get()) > 1;
    let want = if free_core { 3 } else { 0 };
    assert_eq!(helpers.get(), want, "helpers for three large scans");
}
