//! Trait-conformance suite: every registered backend must honour the
//! contracts the serving stack leans on — non-negative finite hazards,
//! deterministic rankings under the shared (score desc, node asc)
//! comparator, ranked scores that are the sum of the sources' hazards,
//! shard rankings that tile the full ranking (full and small `top`),
//! and a checkpoint codec that round-trips through the registry. The
//! last case is `netinf`'s ground truth: planted edges recovered from
//! simulated cascades.

use std::sync::Arc;
use viralcast_graph::NodeId;
use viralcast_model::{
    decode_model, rank_order, CascadeModel, EmbeddingBackend, NetInfBackend, NetInfConfig,
    RowBlock, BACKENDS,
};
use viralcast_propagation::{Cascade, CascadeSet, Infection};

const NODES: usize = 6;

fn corpus() -> CascadeSet {
    let chain = |nodes: &[u32], step: f64| {
        Cascade::new(
            nodes
                .iter()
                .enumerate()
                .map(|(i, &n)| Infection::new(n, i as f64 * step))
                .collect(),
        )
        .unwrap()
    };
    CascadeSet::new(
        NODES,
        vec![
            chain(&[0, 1, 2], 0.4),
            chain(&[0, 1, 3], 0.5),
            chain(&[1, 2, 4], 0.3),
            chain(&[0, 1, 2, 4], 0.6),
            chain(&[5, 4], 0.2),
        ],
    )
}

/// One fitted instance of every registered backend, id-tagged.
fn backends() -> Vec<Arc<dyn CascadeModel>> {
    let emb = viralcast_embed::Embeddings::from_matrices(
        NODES,
        2,
        vec![1.0, 2.0, 0.5, 0.5, 0.3, 0.0, 0.0, 0.0, 0.7, 0.1, 0.2, 0.9],
        vec![1.0, 0.0, 0.0, 1.0, 0.5, 0.5, 0.2, 0.8, 1.0, 1.0, 0.0, 0.3],
    );
    let models: Vec<Arc<dyn CascadeModel>> = vec![
        Arc::new(EmbeddingBackend::new(emb)),
        Arc::new(NetInfBackend::fit(&corpus(), NetInfConfig::default())),
    ];
    assert_eq!(models.len(), BACKENDS.len(), "untested registered backend");
    for (model, &id) in models.iter().zip(BACKENDS) {
        assert_eq!(model.backend_id(), id, "registry order drifted");
    }
    models
}

#[test]
fn hazards_are_finite_and_non_negative() {
    for model in backends() {
        for u in 0..NODES {
            for v in 0..NODES {
                let h = model.hazard(NodeId::new(u), NodeId::new(v));
                assert!(
                    h.is_finite() && h >= 0.0,
                    "{}: hazard({u},{v}) = {h}",
                    model.backend_id()
                );
            }
        }
    }
}

#[test]
fn rankings_are_deterministic_and_follow_the_shared_comparator() {
    let infected = [NodeId(0), NodeId(1)];
    for model in backends() {
        let id = model.backend_id();
        let a = model.rank_candidates(&infected, NODES, None);
        let b = model.rank_candidates(&infected, NODES, None);
        assert_eq!(a, b, "{id}: rank_candidates not deterministic");
        assert_eq!(a.len(), NODES - infected.len(), "{id}: wrong universe");
        for pair in a.windows(2) {
            assert!(
                pair[0].1 > pair[1].1 || (pair[0].1 == pair[1].1 && pair[0].0 < pair[1].0),
                "{id}: comparator violated at {pair:?}"
            );
        }
        for (v, _) in &a {
            assert!(
                infected.binary_search(v).is_err(),
                "{id}: infected node {v} ranked as candidate"
            );
        }
        // Truncation keeps the prefix.
        assert_eq!(model.rank_candidates(&infected, 2, None), a[..2].to_vec());
    }
}

#[test]
fn influencer_rankings_are_deterministic_and_reject_bad_topics() {
    for model in backends() {
        let id = model.backend_id();
        let a = model.influencers(None, NODES, None).unwrap();
        let b = model.influencers(None, NODES, None).unwrap();
        assert_eq!(a, b, "{id}: influencers not deterministic");
        assert_eq!(a.len(), NODES, "{id}: wrong universe");
        for pair in a.windows(2) {
            assert!(
                pair[0].1 > pair[1].1 || (pair[0].1 == pair[1].1 && pair[0].0 < pair[1].0),
                "{id}: comparator violated at {pair:?}"
            );
        }
        let err = model
            .influencers(Some(model.topic_count()), NODES, None)
            .unwrap_err();
        assert!(
            err.contains("out of range"),
            "{id}: unexpected topic error {err:?}"
        );
    }
}

#[test]
fn shard_rankings_tile_the_full_ranking() {
    let infected = [NodeId(0)];
    for model in backends() {
        let id = model.backend_id();
        let full = model.rank_candidates(&infected, NODES, None);
        let mut merged: Vec<(NodeId, f64)> = Vec::new();
        for shard in 0..3 {
            let block = RowBlock::round_robin(NODES, shard, 3).unwrap();
            let part = model.rank_candidates(&infected, NODES, Some(&block));
            for entry in &part {
                assert!(
                    full.contains(entry),
                    "{id}: shard {shard} produced {entry:?} absent from the full ranking"
                );
                assert!(block.contains(entry.0), "{id}: unowned row {entry:?}");
            }
            merged.extend(part);
        }
        merged.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        assert_eq!(merged, full, "{id}: merged shard rankings diverge");
    }
}

/// A wider universe for the rows that need 16 sources and three shards
/// with more candidates each than a small `top`.
const WIDE: usize = 48;

fn wide_backends() -> Vec<Arc<dyn CascadeModel>> {
    const K: usize = 5;
    // Irregular weights, a third of them zero, so rates are distinct,
    // order-sensitive and sometimes tied at 0.
    let weights = |phase: f64| -> Vec<f64> {
        (0..WIDE * K)
            .map(|i| (i as f64 * 0.37 + phase).sin())
            .map(|x| if x < -0.3 { 0.0 } else { x.abs() })
            .collect()
    };
    let emb = viralcast_embed::Embeddings::from_matrices(WIDE, K, weights(0.11), weights(0.29));
    // Every node precedes its +1 and +7 neighbours: a sparse graph, so
    // most netinf candidates tie at rate 0.
    let chains = (0..WIDE as u32)
        .map(|u| {
            let step = 0.1 + 0.01 * f64::from(u);
            Cascade::new(vec![
                Infection::new(u, 0.0),
                Infection::new((u + 1) % WIDE as u32, step),
                Infection::new((u + 7) % WIDE as u32, 2.0 * step),
            ])
            .unwrap()
        })
        .collect();
    vec![
        Arc::new(EmbeddingBackend::new(emb)),
        Arc::new(NetInfBackend::fit(
            &CascadeSet::new(WIDE, chains),
            NetInfConfig::default(),
        )),
    ]
}

fn bits(ranked: &[(NodeId, f64)]) -> Vec<(NodeId, u64)> {
    ranked.iter().map(|&(v, s)| (v, s.to_bits())).collect()
}

/// The algebraic identity behind the one-sum-per-request scan, stated
/// once: a candidate's score is the sum of its sources' hazards.
#[test]
fn ranked_scores_are_the_sum_of_the_sources_hazards() {
    for model in wide_backends() {
        let id = model.backend_id();
        for sources in [1, 4, 16] {
            let infected: Vec<NodeId> = (0..sources).map(|i| NodeId::new(i * 3)).collect();
            let ranked = model.rank_candidates(&infected, WIDE, None);
            assert_eq!(ranked.len(), WIDE - sources, "{id}: wrong universe");
            for &(v, score) in &ranked {
                let sum: f64 = infected.iter().map(|&u| model.hazard(u, v)).sum();
                assert!(
                    (score - sum).abs() <= 1e-12 * sum.abs(),
                    "{id}: {sources} sources, node {v}: ranked {score}, hazards sum to {sum}"
                );
                if sources == 1 {
                    assert_eq!(score.to_bits(), sum.to_bits(), "{id}: node {v}");
                }
            }
        }
    }
}

/// Small `top` (fewer than any shard's candidates, so the selection's
/// floor runs) with sources at row 0, at row n−1 and in rows each shard
/// does not own: per-shard top-k, concatenated and reference-sorted,
/// is the single-box top-k bit for bit.
#[test]
fn small_top_shard_rankings_tile_the_single_box_ranking() {
    let infected = [0, 4, 5, 30, WIDE - 1].map(NodeId::new);
    for model in wide_backends() {
        let id = model.backend_id();
        for top in [3, 5] {
            let single_box = model.rank_candidates(&infected, top, None);
            assert_eq!(single_box.len(), top, "{id}");
            let mut merged: Vec<(NodeId, f64)> = Vec::new();
            for shard in 0..3 {
                let block = RowBlock::round_robin(WIDE, shard, 3).unwrap();
                assert!(
                    infected.iter().any(|&u| !block.contains(u)),
                    "shard {shard} owns every source"
                );
                let part = model.rank_candidates(&infected, top, Some(&block));
                assert_eq!(part.len(), top, "{id}: shard {shard}");
                for (v, _) in &part {
                    assert!(block.contains(*v), "{id}: shard {shard} ranked unowned {v}");
                    assert!(
                        !infected.contains(v),
                        "{id}: shard {shard} ranked source {v}"
                    );
                }
                merged.extend(part);
            }
            merged.sort_by(rank_order);
            merged.truncate(top);
            assert_eq!(bits(&merged), bits(&single_box), "{id}: top {top}");
        }
    }
}

/// `infected` is documented sorted; a repeated id must neither panic
/// the scan nor let a later source through as a candidate.
#[test]
fn a_repeated_source_is_tolerated() {
    let infected = [3, 3, 5, 5, 5, 9].map(NodeId::new);
    for model in wide_backends() {
        let id = model.backend_id();
        for owned in [None, Some(RowBlock::round_robin(WIDE, 0, 3).unwrap())] {
            let ranked = model.rank_candidates(&infected, WIDE, owned.as_ref());
            let expected = match &owned {
                None => WIDE - 3,
                Some(block) => block.owned_count() - 2, // owns 3 and 9, not 5
            };
            assert_eq!(ranked.len(), expected, "{id}: wrong universe");
            for (v, _) in &ranked {
                assert!(
                    !infected.contains(v),
                    "{id}: source {v} ranked as candidate"
                );
            }
        }
    }
}

#[test]
fn checkpoint_payloads_round_trip_through_the_registry() {
    for model in backends() {
        let id = model.backend_id();
        let back = decode_model(id, &model.encode()).unwrap_or_else(|e| panic!("{id}: {e}"));
        assert_eq!(back.backend_id(), id);
        assert_eq!(back.node_count(), model.node_count(), "{id}");
        assert_eq!(back.topic_count(), model.topic_count(), "{id}");
        for u in 0..NODES {
            for v in 0..NODES {
                let (u, v) = (NodeId::new(u), NodeId::new(v));
                assert_eq!(
                    model.hazard(u, v).to_bits(),
                    back.hazard(u, v).to_bits(),
                    "{id}: hazard({u},{v}) drifted across the codec"
                );
            }
        }
        // Decoding under the wrong id must fail, not mis-decode.
        let other = BACKENDS.iter().find(|&&b| b != id).unwrap();
        assert!(
            decode_model(other, &model.encode()).is_err(),
            "{id} payload decoded as {other}"
        );
    }
}

#[test]
fn updates_return_a_fresh_model_of_the_same_backend() {
    let fresh = CascadeSet::new(
        NODES,
        vec![Cascade::new(vec![Infection::new(0u32, 0.0), Infection::new(2u32, 0.3)]).unwrap()],
    );
    for model in backends() {
        let id = model.backend_id();
        let updated = model.update(&fresh).unwrap_or_else(|e| panic!("{id}: {e}"));
        assert_eq!(updated.backend_id(), id);
        assert_eq!(updated.node_count(), NODES, "{id}");
        assert_eq!(
            updated.topic_count(),
            model.topic_count(),
            "{id}: update changed the topic count"
        );
        assert!(
            model
                .update(&CascadeSet::new(NODES + 1, Vec::new()))
                .is_err(),
            "{id}: accepted a foreign universe"
        );
    }
}

/// The replication stream (and the durable checkpoint) always carries
/// the *latest* published model — which, on any daemon that has
/// ingested, is an updated one, not the boot-time fit. Updated models
/// must therefore survive the codec exactly like fresh ones.
#[test]
fn updated_models_still_round_trip_through_the_codec() {
    let fresh = CascadeSet::new(
        NODES,
        vec![Cascade::new(vec![Infection::new(1u32, 0.0), Infection::new(4u32, 0.5)]).unwrap()],
    );
    for model in backends() {
        let id = model.backend_id();
        let updated = model.update(&fresh).unwrap_or_else(|e| panic!("{id}: {e}"));
        let back = decode_model(id, &updated.encode()).unwrap_or_else(|e| panic!("{id}: {e}"));
        assert_eq!(back.backend_id(), id);
        assert_eq!(back.node_count(), updated.node_count(), "{id}");
        assert_eq!(back.topic_count(), updated.topic_count(), "{id}");
        for u in 0..NODES {
            for v in 0..NODES {
                let (u, v) = (NodeId::new(u), NodeId::new(v));
                assert_eq!(
                    updated.hazard(u, v).to_bits(),
                    back.hazard(u, v).to_bits(),
                    "{id}: post-update hazard({u},{v}) drifted across the codec"
                );
            }
        }
    }
}

/// Ground truth for the `netinf` backend, after Gomez-Rodriguez,
/// Leskovec & Krause: cascades simulated over a known digraph must let
/// the greedy fit recover the planted edges. 30 nodes, each with
/// out-edges to `u+1` and `u+7` (mod 30) at rate 1 — 60 planted edges —
/// and, as in the paper's evaluation, an edge budget equal to the true
/// edge count (the precision/recall break-even point).
///
/// Measured (100 cascades, window 2, mean size ≈ 10): 59/60 on seed 1,
/// 60/60 on seeds 2 and 3; 56–58/60 with only 50 cascades. The 0.85
/// floor leaves room for a different RNG stream, not for a broken fit
/// (reversed edges score 0).
#[test]
fn netinf_recovers_planted_edges() {
    use viralcast_graph::GraphBuilder;
    use viralcast_propagation::{EdgeWeightRates, SimulationConfig, Simulator};

    const N: usize = 30;
    let mut builder = GraphBuilder::new(N);
    for u in 0..N {
        for step in [1, 7] {
            builder.add_edge(NodeId::new(u), NodeId::new((u + step) % N), 1.0);
        }
    }
    let graph = builder.build();
    let window = SimulationConfig {
        observation_window: 2.0,
        ..SimulationConfig::default()
    };
    let corpus = Simulator::new(&graph, EdgeWeightRates::new(&graph, 1.0), window)
        .simulate_corpus_parallel(100, 1);

    let budget = NetInfConfig {
        edges_per_node: graph.edge_count() / N,
        ..NetInfConfig::default()
    };
    let fitted = NetInfBackend::fit(&corpus, budget);
    let hits: usize = (0..N)
        .map(NodeId::new)
        .map(|u| {
            fitted
                .out_edges(u)
                .iter()
                .filter(|&&(v, _)| graph.has_edge(u, v))
                .count()
        })
        .sum();
    let precision = hits as f64 / fitted.edge_count() as f64;
    let recall = hits as f64 / graph.edge_count() as f64;
    assert!(
        precision >= 0.85 && recall >= 0.85,
        "{hits} of {} inferred edges are planted (precision {precision:.3}, recall {recall:.3})",
        fitted.edge_count()
    );
}
