//! Seeded input generation. Everything the program under test sees —
//! corpora, the served model's training data, request bodies — is built
//! here in set-up from `--seed`; the same seed gives the same bytes.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use viralcast::embed::Embeddings;
use viralcast::graph::{NodeId, SbmConfig};
use viralcast::model::{CascadeModel, EmbeddingBackend};
use viralcast::obs::JsonValue;
use viralcast::pipeline::{infer_embeddings, InferOptions, InferenceOutcome};
use viralcast::propagation::{Cascade, CascadeSet, Infection, PlantedConfig};
use viralcast::{SbmExperiment, SbmExperimentConfig};

/// Derives an independent seed for sub-stream `stream` of `seed`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    // splitmix64 finaliser: adjacent inputs give unrelated outputs.
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An SBM world in the paper's *local* regime (community size 40,
/// α = 0.2, β = 0.001, weak cross-topic rates — the timing figures'
/// setting, where cascades mostly stay in their community): `train`
/// cascades to fit on and `held_out` cascades to query with.
pub fn sbm_local_world(nodes: usize, train: usize, held_out: usize, seed: u64) -> SbmExperiment {
    let total = train + held_out;
    SbmExperiment::build(
        &SbmExperimentConfig {
            sbm: SbmConfig {
                nodes,
                community_size: 40,
                intra_prob: 0.2,
                inter_prob: 0.001,
            },
            planted: PlantedConfig {
                on_topic: 1.2,
                off_topic: 0.02,
                jitter: 0.3,
            },
            cascades: total,
            train_fraction: train as f64 / total as f64,
            ..SbmExperimentConfig::default()
        },
        seed,
    )
}

/// The paper's offline fit (Algorithms 1–2) with the pipeline defaults
/// and `topics` latent dimensions.
pub fn fit(train: &CascadeSet, topics: usize) -> InferenceOutcome {
    infer_embeddings(
        train,
        &InferOptions {
            topics,
            ..InferOptions::default()
        },
    )
}

/// Wraps fitted embeddings as the served backend.
pub fn backend(embeddings: Embeddings) -> Arc<dyn CascadeModel> {
    Arc::new(EmbeddingBackend::new(embeddings))
}

/// `copies` disjoint replicas of a fitted world side by side: row
/// `t·n + i` is row `i` of `fitted`, scaled by a seeded per-row factor
/// in `[0.9, 1.1)` so no two rows tie. A fit costs roughly quadratic
/// time in the node count (0.5 s at 1000 nodes, 2 s at 2000, minutes at
/// 20 000), so a scan-sized model is tiled from a small real fit: the
/// scan's cost depends on `n`, `K` and the request, and the tiling keeps
/// the fit's sparsity pattern.
pub fn tile(fitted: &Embeddings, copies: usize, seed: u64) -> Embeddings {
    let (n, k) = (fitted.node_count(), fitted.topic_count());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stretch = |source: &[f64]| -> Vec<f64> {
        let mut out = Vec::with_capacity(copies * n * k);
        for _ in 0..copies {
            for row in source.chunks_exact(k) {
                let factor: f64 = rng.gen_range(0.9..1.1);
                out.extend(row.iter().map(|x| x * factor));
            }
        }
        out
    };
    let a = stretch(fitted.influence_matrix());
    let b = stretch(fitted.selectivity_matrix());
    Embeddings::from_matrices(copies * n, k, a, b)
}

/// `count` seeded think times, uniform in `[0, longest)`.
pub fn pauses(seed: u64, count: usize, longest: Duration) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| longest.mul_f64(rng.gen_range(0.0..1.0)))
        .collect()
}

/// What a pre-generated operation asks, kept beside its wire form so the
/// oracle can recompute the answer.
#[derive(Clone, Debug)]
pub enum Ask {
    /// `POST /v1/predict`: sorted, distinct infected nodes and `top`.
    Predict {
        /// The infected set as the daemon will normalise it.
        infected: Vec<NodeId>,
        /// Requested ranking length.
        top: usize,
    },
    /// `GET /v1/influencers?top=N`.
    Influencers {
        /// Requested ranking length.
        top: usize,
    },
    /// `POST /v1/hazard` over these pairs.
    Hazard {
        /// `(source, target)` pairs.
        pairs: Vec<(NodeId, NodeId)>,
    },
    /// `POST /v1/ingest` of one cascade; the acknowledgement has no
    /// model oracle (the reopened store is checked instead).
    Ingest,
}

/// One pre-generated request.
#[derive(Clone, Debug)]
pub struct Op {
    /// HTTP method.
    pub method: &'static str,
    /// Path and query.
    pub target: String,
    /// JSON body, if any.
    pub body: Option<String>,
    /// The question, for the oracle.
    pub ask: Ask,
}

fn infection_json(infection: &Infection) -> JsonValue {
    JsonValue::obj(vec![
        ("node", JsonValue::from(u64::from(infection.node.0))),
        ("time", JsonValue::from(infection.time)),
    ])
}

/// A predict operation over `infections` (any order, duplicates allowed).
pub fn predict_op(infections: &[Infection], top: usize) -> Op {
    let body = JsonValue::obj(vec![
        (
            "cascade",
            JsonValue::Arr(infections.iter().map(infection_json).collect()),
        ),
        ("top", JsonValue::from(top)),
    ]);
    let mut infected: Vec<NodeId> = infections.iter().map(|i| i.node).collect();
    infected.sort_unstable();
    infected.dedup();
    Op {
        method: "POST",
        target: "/v1/predict".into(),
        body: Some(body.render()),
        ask: Ask::Predict { infected, top },
    }
}

/// An influencers operation.
pub fn influencers_op(top: usize) -> Op {
    Op {
        method: "GET",
        target: format!("/v1/influencers?top={top}"),
        body: None,
        ask: Ask::Influencers { top },
    }
}

/// A hazard operation.
pub fn hazard_op(pairs: Vec<(NodeId, NodeId)>) -> Op {
    let body = JsonValue::obj(vec![(
        "pairs",
        JsonValue::Arr(
            pairs
                .iter()
                .map(|&(u, v)| {
                    JsonValue::Arr(vec![
                        JsonValue::from(u64::from(u.0)),
                        JsonValue::from(u64::from(v.0)),
                    ])
                })
                .collect(),
        ),
    )]);
    Op {
        method: "POST",
        target: "/v1/hazard".into(),
        body: Some(body.render()),
        ask: Ask::Hazard { pairs },
    }
}

/// An ingest operation carrying one cascade.
pub fn ingest_op(cascade: &Cascade) -> Op {
    let body = JsonValue::obj(vec![(
        "cascades",
        JsonValue::Arr(vec![JsonValue::Arr(
            cascade.infections().iter().map(infection_json).collect(),
        )]),
    )]);
    Op {
        method: "POST",
        target: "/v1/ingest".into(),
        body: Some(body.render()),
        ask: Ask::Ingest,
    }
}

/// The first `count` distinct early adopters found walking the held-out
/// cascades from index `from` (wrapping), shifted by `offset` node ids —
/// a query's infected seeds.
pub fn early_adopters(
    held_out: &CascadeSet,
    from: usize,
    count: usize,
    offset: u32,
) -> Vec<Infection> {
    let cascades = held_out.cascades();
    let mut seeds: Vec<Infection> = Vec::with_capacity(count);
    for step in 0..cascades.len() {
        for infection in cascades[(from + step) % cascades.len()].infections() {
            if seeds.len() == count {
                return seeds;
            }
            if !seeds.iter().any(|s| s.node.0 == infection.node.0 + offset) {
                seeds.push(Infection {
                    node: NodeId(infection.node.0 + offset),
                    time: infection.time,
                });
            }
        }
    }
    seeds
}

/// The first `cap` infections of `cascade` (at least its seed pair).
pub fn head(cascade: &Cascade, cap: usize) -> Cascade {
    let keep = cap.max(2).min(cascade.len());
    Cascade::new(cascade.infections()[..keep].to_vec())
        .expect("a prefix of a valid cascade is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worlds_repeat_per_seed_and_differ_across_seeds() {
        let a = sbm_local_world(200, 30, 10, 5);
        let b = sbm_local_world(200, 30, 10, 5);
        let c = sbm_local_world(200, 30, 10, 6);
        assert_eq!(a.train().cascades(), b.train().cascades());
        assert_eq!(a.test().cascades(), b.test().cascades());
        assert_ne!(a.train().cascades(), c.train().cascades());
        assert_eq!((a.train().len(), a.test().len()), (30, 10));
    }

    #[test]
    fn tiling_keeps_shape_and_sparsity() {
        let base =
            Embeddings::from_matrices(2, 2, vec![1.0, 0.0, 0.0, 2.0], vec![0.5, 0.0, 0.0, 0.5]);
        let tiled = tile(&base, 3, 1);
        assert_eq!((tiled.node_count(), tiled.topic_count()), (6, 2));
        for t in 0..3 {
            let row = tiled.influence(NodeId::new(2 * t));
            assert!((0.9..1.1).contains(&row[0]) && row[1] == 0.0);
        }
        assert_eq!(tile(&base, 3, 1), tiled);
    }

    /// The typed-JSON path the repository persists models through must
    /// work on the vendored serde stack, bit for bit.
    #[test]
    fn fitted_embeddings_round_trip_through_json() {
        let world = sbm_local_world(120, 40, 4, 9);
        let fitted = fit(world.train(), 4).embeddings;
        let text = serde_json::to_string(&fitted).unwrap();
        let back: Embeddings = serde_json::from_str(&text).unwrap();
        assert_eq!(back, fitted);
        let bits = |e: &Embeddings| {
            e.influence_matrix()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&back), bits(&fitted));
        let dir = crate::fixture::TempDir::create("json").unwrap();
        let path = dir.path().join("embeddings.json");
        fitted.save_json(&path).unwrap();
        assert_eq!(Embeddings::load_json(&path).unwrap(), fitted);
    }

    #[test]
    fn seeds_are_distinct_and_offset() {
        let world = sbm_local_world(200, 10, 10, 3);
        let seeds = early_adopters(world.test(), 4, 16, 1000);
        assert_eq!(seeds.len(), 16);
        let mut nodes: Vec<u32> = seeds.iter().map(|s| s.node.0).collect();
        assert!(nodes.iter().all(|&n| (1000..1200).contains(&n)));
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), 16);
    }

    #[test]
    fn predict_ops_normalise_the_infected_set() {
        let op = predict_op(
            &[
                Infection::new(7u32, 0.0),
                Infection::new(3u32, 0.1),
                Infection::new(7u32, 0.2),
            ],
            5,
        );
        let Ask::Predict { infected, top } = &op.ask else {
            panic!("not a predict");
        };
        assert_eq!(infected, &[NodeId(3), NodeId(7)]);
        assert_eq!(*top, 5);
        assert!(op.body.as_deref().unwrap().contains("\"top\":5"));
    }
}
