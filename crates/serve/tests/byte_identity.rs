//! The refactor's byte-identity contract for the embed backend.
//!
//! Before `CascadeModel`, the serving endpoints evaluated the concrete
//! `Embeddings` type directly. These tests pin the backend path to an
//! inline oracle that recomputes each answer from the raw matrices —
//! same candidate filters, same (score desc, node asc) comparator, same
//! JSON field order — and assert the rendered responses match **byte
//! for byte**, both at the codec layer and through a live daemon.
//! `/v1/influencers` and `/v1/hazard` are the pre-refactor algorithm
//! verbatim. `/v1/predict` is the *specified* summation order: `H` is a
//! copy of the first infected row (ascending node order) plus the
//! remaining infected rows added in that order, topic by topic, and a
//! candidate's rate is `sum_t H[t] * B_v[t]` in topic order. With one
//! infected node that is the pre-refactor rate bit for bit.

use std::sync::Arc;

use viralcast_embed::Embeddings;
use viralcast_graph::NodeId;
use viralcast_model::EmbeddingBackend;
use viralcast_obs::JsonValue;
use viralcast_serve::snapshot::ModelSnapshot;
use viralcast_serve::{api, RowBlock};

/// An asymmetric fixture: 6 nodes x 3 topics with irregular weights so
/// rates are distinct, irrational, and order-sensitive.
fn embeddings() -> Embeddings {
    let n = 6;
    let k = 3;
    let mut influence = Vec::with_capacity(n * k);
    let mut selectivity = Vec::with_capacity(n * k);
    for u in 0..n {
        for t in 0..k {
            influence.push(((u * k + t) as f64 * 0.37 + 0.11).sin().abs());
            selectivity.push(((u * k + t) as f64 * 0.53 + 0.29).cos().abs());
        }
    }
    Embeddings::from_matrices(n, k, influence, selectivity)
}

fn snapshot(version: u64) -> ModelSnapshot {
    ModelSnapshot {
        version,
        model: Arc::new(EmbeddingBackend::new(embeddings())),
        published_unix: 0,
    }
}

/// The pre-refactor pairwise rate: `sum_t A_u[t] * B_v[t]`, summed in
/// topic order exactly as `Embeddings::rate` always did.
fn oracle_rate(emb: &Embeddings, u: NodeId, v: NodeId) -> f64 {
    emb.influence(u)
        .iter()
        .zip(emb.selectivity(v))
        .map(|(a, b)| a * b)
        .sum()
}

/// The specified `/v1/predict` evaluation: sum the sorted infected
/// set's influence rows into `H` (first row copied, the rest added in
/// ascending node order), scan every row (optionally masked), skip
/// infected rows, score `H . B_v` in topic order, sort by (rate desc,
/// node asc), truncate.
fn oracle_predict(
    emb: &Embeddings,
    version: u64,
    infections: &[(u32, f64)],
    top: usize,
    owned: Option<&RowBlock>,
) -> String {
    let mut infected: Vec<NodeId> = infections.iter().map(|&(u, _)| NodeId(u)).collect();
    infected.sort_unstable();
    infected.dedup();
    let mut h: Vec<f64> = emb.influence(infected[0]).to_vec();
    for &u in &infected[1..] {
        for (t, a) in emb.influence(u).iter().enumerate() {
            h[t] += a;
        }
    }
    let mut scored: Vec<(NodeId, f64)> = (0..emb.node_count())
        .map(NodeId::new)
        .filter(|v| owned.map_or(true, |block| block.contains(*v)))
        .filter(|v| infected.binary_search(v).is_err())
        .map(|v| {
            let rate: f64 = h.iter().zip(emb.selectivity(v)).map(|(h, b)| h * b).sum();
            (v, rate)
        })
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    scored.truncate(top);
    let candidates = scored
        .into_iter()
        .map(|(v, rate)| {
            JsonValue::obj(vec![
                ("node", JsonValue::from(v.0 as u64)),
                ("rate", JsonValue::from(rate)),
            ])
        })
        .collect();
    JsonValue::obj(vec![
        ("snapshot_version", JsonValue::from(version)),
        ("observed", JsonValue::from(infections.len())),
        ("candidates", JsonValue::Arr(candidates)),
    ])
    .render()
}

/// The pre-refactor `/v1/influencers` evaluation, verbatim.
fn oracle_influencers(
    emb: &Embeddings,
    version: u64,
    topic: Option<usize>,
    top: usize,
    owned: Option<&RowBlock>,
) -> String {
    let mut scored: Vec<(NodeId, f64)> = (0..emb.node_count())
        .map(NodeId::new)
        .filter(|u| owned.map_or(true, |block| block.contains(*u)))
        .map(|u| {
            let row = emb.influence(u);
            let score = match topic {
                Some(t) => row[t],
                None => row.iter().map(|x| x * x).sum::<f64>().sqrt(),
            };
            (u, score)
        })
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    scored.truncate(top);
    let influencers = scored
        .into_iter()
        .map(|(u, score)| {
            JsonValue::obj(vec![
                ("node", JsonValue::from(u.0 as u64)),
                ("score", JsonValue::from(score)),
            ])
        })
        .collect();
    let mut fields = vec![("snapshot_version", JsonValue::from(version))];
    if let Some(t) = topic {
        fields.push(("topic", JsonValue::from(t)));
    }
    fields.push(("influencers", JsonValue::Arr(influencers)));
    JsonValue::obj(fields).render()
}

/// The pre-refactor `/v1/hazard` evaluation, verbatim.
fn oracle_hazard(emb: &Embeddings, version: u64, pairs: &[(u32, u32)], dt: Option<f64>) -> String {
    let results = pairs
        .iter()
        .map(|&(u, v)| {
            let rate = oracle_rate(emb, NodeId(u), NodeId(v));
            let mut fields = vec![
                ("source", JsonValue::from(u as u64)),
                ("target", JsonValue::from(v as u64)),
                ("rate", JsonValue::from(rate)),
            ];
            if let Some(dt) = dt {
                fields.push(("survival", JsonValue::from((-rate * dt).exp())));
            }
            JsonValue::obj(fields)
        })
        .collect();
    JsonValue::obj(vec![
        ("snapshot_version", JsonValue::from(version)),
        ("results", JsonValue::Arr(results)),
    ])
    .render()
}

fn parse(body: &str) -> JsonValue {
    viralcast_serve::json::parse(body).unwrap()
}

#[test]
fn predict_is_byte_identical_to_the_pre_refactor_algorithm() {
    let snap = snapshot(7);
    let emb = embeddings();
    for (body, infections, top) in [
        (
            r#"{"cascade":[{"node":0,"time":0.0}],"top":10}"#,
            vec![(0u32, 0.0)],
            10,
        ),
        (
            r#"{"cascade":[{"node":4,"time":0.5},{"node":1,"time":0.0},{"node":4,"time":1.5}],"top":3}"#,
            vec![(4, 0.5), (1, 0.0), (4, 1.5)],
            3,
        ),
        (
            r#"{"cascade":[{"node":5,"time":0.0},{"node":2,"time":2.0}],"top":1}"#,
            vec![(5, 0.0), (2, 2.0)],
            1,
        ),
    ] {
        let req = api::parse_predict(&parse(body)).unwrap();
        let refactored = api::predict_json(&snap, &req, None).unwrap().render();
        let oracle = oracle_predict(&emb, 7, &infections, top, None);
        assert_eq!(refactored, oracle, "for body {body}");
    }
}

/// With one infected node the request-wide sum *is* that node's row, so
/// every predicted rate is `hazard(u, v)` bit for bit — single-seed
/// responses did not move when the scan stopped summing per candidate.
/// Holds for both backends.
#[test]
fn single_seed_predict_rates_are_the_pairwise_hazards_bit_for_bit() {
    use viralcast_model::{CascadeModel, NetInfBackend, NetInfConfig};
    use viralcast_propagation::{Cascade, CascadeSet, Infection};
    use viralcast_serve::json::{as_arr, as_f64, as_u64, get};

    let chain = |nodes: [u32; 3], step: f64| {
        Cascade::new(
            nodes
                .iter()
                .enumerate()
                .map(|(i, &n)| Infection::new(n, i as f64 * step))
                .collect(),
        )
        .unwrap()
    };
    let corpus = CascadeSet::new(
        6,
        vec![
            chain([0, 1, 2], 0.4),
            chain([1, 3, 4], 0.3),
            chain([5, 4, 0], 0.7),
            chain([2, 5, 3], 0.2),
        ],
    );
    let models: [Arc<dyn CascadeModel>; 2] = [
        Arc::new(EmbeddingBackend::new(embeddings())),
        Arc::new(NetInfBackend::fit(&corpus, NetInfConfig::default())),
    ];
    for model in models {
        let id = model.backend_id();
        let snap = ModelSnapshot {
            version: 1,
            model: Arc::clone(&model),
            published_unix: 0,
        };
        for u in 0..6u32 {
            let body = format!(r#"{{"cascade":[{{"node":{u},"time":0.0}}],"top":6}}"#);
            let req = api::parse_predict(&parse(&body)).unwrap();
            let doc = api::predict_json(&snap, &req, None).unwrap();
            let candidates = as_arr(get(&doc, "candidates").unwrap()).unwrap();
            assert_eq!(candidates.len(), 5, "{id}: seed {u}");
            for c in candidates {
                let v = as_u64(get(c, "node").unwrap()).unwrap() as u32;
                let rate = as_f64(get(c, "rate").unwrap()).unwrap();
                assert_eq!(
                    rate.to_bits(),
                    model.hazard(NodeId(u), NodeId(v)).to_bits(),
                    "{id}: seed {u}, candidate {v}"
                );
            }
        }
    }
}

#[test]
fn sharded_predict_is_byte_identical_to_the_pre_refactor_algorithm() {
    let snap = snapshot(3);
    let emb = embeddings();
    let req = api::parse_predict(&parse(r#"{"cascade":[{"node":0,"time":0.0}],"top":6}"#)).unwrap();
    for shard in 0..3 {
        let block = RowBlock::round_robin(6, shard, 3).unwrap();
        let refactored = api::predict_json(&snap, &req, Some(&block))
            .unwrap()
            .render();
        let oracle = oracle_predict(&emb, 3, &[(0, 0.0)], 6, Some(&block));
        assert_eq!(refactored, oracle, "for shard {shard}");
    }
}

#[test]
fn influencers_is_byte_identical_to_the_pre_refactor_algorithm() {
    let snap = snapshot(9);
    let emb = embeddings();
    for (topic, top) in [(None, 6), (None, 2), (Some(0), 4), (Some(2), 6)] {
        let refactored = api::influencers_json(&snap, topic, top, None)
            .unwrap()
            .render();
        let oracle = oracle_influencers(&emb, 9, topic, top, None);
        assert_eq!(refactored, oracle, "for topic {topic:?} top {top}");
    }
    let block = RowBlock::round_robin(6, 1, 2).unwrap();
    let refactored = api::influencers_json(&snap, None, 6, Some(&block))
        .unwrap()
        .render();
    assert_eq!(
        refactored,
        oracle_influencers(&emb, 9, None, 6, Some(&block))
    );
}

#[test]
fn hazard_is_byte_identical_to_the_pre_refactor_algorithm() {
    let snap = snapshot(2);
    let emb = embeddings();
    let req = api::parse_hazard(&parse(r#"{"pairs":[[0,1],[5,2],[3,3]],"dt":0.75}"#)).unwrap();
    let refactored = api::hazard_json(&snap, &req).unwrap().render();
    assert_eq!(
        refactored,
        oracle_hazard(&emb, 2, &[(0, 1), (5, 2), (3, 3)], Some(0.75))
    );
    let req = api::parse_hazard(&parse(r#"{"pairs":[[1,0]]}"#)).unwrap();
    let refactored = api::hazard_json(&snap, &req).unwrap().render();
    assert_eq!(refactored, oracle_hazard(&emb, 2, &[(1, 0)], None));
}

#[test]
fn live_daemon_responses_are_byte_identical_to_the_oracle() {
    use std::time::Duration;
    use viralcast_serve::{client, start, trainer::TrainerConfig, ServeConfig};

    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        trainer: TrainerConfig {
            interval: Duration::from_secs(3600),
            min_batch: 1,
        },
        ..ServeConfig::default()
    };
    let handle = start(
        Arc::new(EmbeddingBackend::new(embeddings())),
        Box::new(|m, _| Ok(Arc::clone(m))),
        config,
    )
    .unwrap();
    let addr = handle.local_addr();
    let emb = embeddings();

    let resp = client::request(
        &addr,
        "POST",
        "/v1/predict",
        Some(r#"{"cascade":[{"node":0,"time":0.0},{"node":3,"time":1.0}],"top":4}"#),
    )
    .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.body,
        oracle_predict(&emb, 1, &[(0, 0.0), (3, 1.0)], 4, None)
    );

    let resp = client::request(&addr, "GET", "/v1/influencers?top=3", None).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, oracle_influencers(&emb, 1, None, 3, None));

    let resp = client::request(
        &addr,
        "POST",
        "/v1/hazard",
        Some(r#"{"pairs":[[2,4]],"dt":1.5}"#),
    )
    .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, oracle_hazard(&emb, 1, &[(2, 4)], Some(1.5)));

    handle.shutdown();
}
