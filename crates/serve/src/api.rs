//! Endpoint codecs: JSON bodies ⇄ typed requests, model reads → JSON.
//!
//! Parsing and model evaluation are split from the router so they unit
//! test without sockets. Every response object carries the
//! `snapshot_version` it was computed from — the contract that lets
//! clients detect hot swaps (and the integration tests assert on).

use crate::json;
use viralcast_graph::NodeId;
use viralcast_model::CascadeModel;
use viralcast_obs::JsonValue;
use viralcast_propagation::{Cascade, Infection};

use crate::shard::RowBlock;
use crate::snapshot::ModelSnapshot;

/// `POST /v1/hazard` body: pairwise rate queries.
#[derive(Clone, Debug, PartialEq)]
pub struct HazardRequest {
    /// `(source, target)` node pairs.
    pub pairs: Vec<(NodeId, NodeId)>,
    /// Optional delay for survival probabilities.
    pub dt: Option<f64>,
}

/// Parses a hazard request body.
pub fn parse_hazard(body: &JsonValue) -> Result<HazardRequest, String> {
    let pairs_json = json::as_arr(json::get(body, "pairs").ok_or("missing \"pairs\" array")?)
        .ok_or("\"pairs\" must be an array")?;
    let mut pairs = Vec::with_capacity(pairs_json.len());
    for (i, pair) in pairs_json.iter().enumerate() {
        let items = json::as_arr(pair).ok_or_else(|| format!("pairs[{i}] must be [u, v]"))?;
        if items.len() != 2 {
            return Err(format!("pairs[{i}] must have exactly two node ids"));
        }
        let u = parse_node(&items[0]).map_err(|e| format!("pairs[{i}][0]: {e}"))?;
        let v = parse_node(&items[1]).map_err(|e| format!("pairs[{i}][1]: {e}"))?;
        pairs.push((u, v));
    }
    let dt = match json::get(body, "dt") {
        None | Some(JsonValue::Null) => None,
        Some(v) => {
            let dt = json::as_f64(v).ok_or("\"dt\" must be a number")?;
            if !dt.is_finite() || dt < 0.0 {
                return Err("\"dt\" must be a non-negative finite number".into());
            }
            Some(dt)
        }
    };
    Ok(HazardRequest { pairs, dt })
}

/// Evaluates a hazard request against one snapshot.
pub fn hazard_json(snap: &ModelSnapshot, req: &HazardRequest) -> Result<JsonValue, String> {
    let model = snap.model.as_ref();
    let mut results = Vec::with_capacity(req.pairs.len());
    for &(u, v) in &req.pairs {
        check_node(u, model)?;
        check_node(v, model)?;
        // Constant hazard (eq. 6 for the embed backend) ⇒ exponential
        // delay, so S(Δt) = e^{−rate·Δt}; computed directly to allow
        // rate = 0.
        let rate = model.hazard(u, v);
        let mut fields = vec![
            ("source", JsonValue::from(u.0 as u64)),
            ("target", JsonValue::from(v.0 as u64)),
            ("rate", JsonValue::from(rate)),
        ];
        if let Some(dt) = req.dt {
            fields.push(("survival", JsonValue::from((-rate * dt).exp())));
        }
        results.push(JsonValue::obj(fields));
    }
    Ok(JsonValue::obj(vec![
        ("snapshot_version", JsonValue::from(snap.version)),
        ("results", JsonValue::Arr(results)),
    ]))
}

/// `POST /v1/predict` body: a partial cascade to extend.
#[derive(Clone, Debug)]
pub struct PredictRequest {
    /// The observed infections (any order; times need not be sorted).
    pub infections: Vec<Infection>,
    /// How many candidates to return.
    pub top: usize,
}

/// Parses a predict request body.
pub fn parse_predict(body: &JsonValue) -> Result<PredictRequest, String> {
    let events = json::as_arr(json::get(body, "cascade").ok_or("missing \"cascade\" array")?)
        .ok_or("\"cascade\" must be an array")?;
    if events.is_empty() {
        return Err("\"cascade\" must contain at least one infection".into());
    }
    let infections = events
        .iter()
        .enumerate()
        .map(|(i, e)| parse_infection(e).map_err(|err| format!("cascade[{i}]: {err}")))
        .collect::<Result<Vec<_>, _>>()?;
    let top = match json::get(body, "top") {
        None => 10,
        Some(v) => json::as_u64(v).ok_or("\"top\" must be a non-negative integer")? as usize,
    };
    Ok(PredictRequest { infections, top })
}

/// Ranks the next adopters of a partial cascade.
///
/// With constant hazards, the instantaneous rate at which an uninfected
/// node `v` gets infected is the sum of `hazard(u, v)` over the already
/// infected `u` — the exact quantity the simulator races on — so ranking
/// by that sum orders candidates by imminence.
///
/// `owned` restricts the candidate scan to the rows a shard owns (see
/// [`RowBlock`]); `None` scans every row. The infected set is sorted,
/// deduplicated and summed **once per request** in ascending node order
/// (the first source copied, the rest added to it), and each candidate
/// is scored against that sum, so the same request yields bit-identical
/// rates on every process — the property that lets a router's merged
/// shard rankings equal a single box's byte for byte — and a one-node
/// cascade yields exactly the pairwise hazards. Cost: O((|infected| +
/// n)·K + top·log top) for a K-topic model; memory follows the rows
/// scanned, never the client's `top`.
pub fn predict_json(
    snap: &ModelSnapshot,
    req: &PredictRequest,
    owned: Option<&RowBlock>,
) -> Result<JsonValue, String> {
    let model = snap.model.as_ref();
    for inf in &req.infections {
        check_node(inf.node, model)?;
    }
    let mut infected: Vec<NodeId> = req.infections.iter().map(|i| i.node).collect();
    infected.sort_unstable();
    infected.dedup();
    let scored = model.rank_candidates(&infected, req.top, owned);
    let candidates = scored
        .into_iter()
        .map(|(v, rate)| {
            JsonValue::obj(vec![
                ("node", JsonValue::from(v.0 as u64)),
                ("rate", JsonValue::from(rate)),
            ])
        })
        .collect();
    Ok(JsonValue::obj(vec![
        ("snapshot_version", JsonValue::from(snap.version)),
        ("observed", JsonValue::from(req.infections.len())),
        ("candidates", JsonValue::Arr(candidates)),
    ]))
}

/// Outcome of decoding one `POST /v1/ingest` body.
#[derive(Debug)]
pub struct IngestBatch {
    /// Cascades that validated against the node universe.
    pub cascades: Vec<Cascade>,
    /// Cascades rejected (bad shape, invalid times, out-of-range nodes).
    pub rejected: usize,
    /// First few rejection reasons, for the response body.
    pub errors: Vec<String>,
}

/// Parses an ingest body, validating each cascade against `node_count`.
/// Individually broken cascades are rejected (with reasons) without
/// failing the batch; a structurally malformed body is an `Err`.
pub fn parse_ingest(body: &JsonValue, node_count: usize) -> Result<IngestBatch, String> {
    let lists = json::as_arr(json::get(body, "cascades").ok_or("missing \"cascades\" array")?)
        .ok_or("\"cascades\" must be an array")?;
    let mut cascades = Vec::with_capacity(lists.len());
    let mut rejected = 0usize;
    let mut errors = Vec::new();
    for (i, list) in lists.iter().enumerate() {
        match parse_one_cascade(list, node_count) {
            Ok(c) => cascades.push(c),
            Err(e) => {
                rejected += 1;
                if errors.len() < 5 {
                    errors.push(format!("cascades[{i}]: {e}"));
                }
            }
        }
    }
    Ok(IngestBatch {
        cascades,
        rejected,
        errors,
    })
}

fn parse_one_cascade(list: &JsonValue, node_count: usize) -> Result<Cascade, String> {
    let events = json::as_arr(list).ok_or("must be an array of infections")?;
    let infections = events
        .iter()
        .enumerate()
        .map(|(i, e)| parse_infection(e).map_err(|err| format!("[{i}]: {err}")))
        .collect::<Result<Vec<_>, _>>()?;
    for inf in &infections {
        if inf.node.index() >= node_count {
            return Err(format!(
                "node {} outside the model universe (node_count {node_count})",
                inf.node
            ));
        }
    }
    Cascade::new(infections).map_err(|e| e.to_string())
}

/// `GET /v1/influencers` → top-k ranking, globally or per topic.
///
/// Scores are the backend's influencer metric (for the embed backend:
/// Euclidean norm of `A_u` globally, single component per topic,
/// matching `viralcast::influencers`). `owned` restricts the ranking to
/// a shard's rows, as in [`predict_json`].
pub fn influencers_json(
    snap: &ModelSnapshot,
    topic: Option<usize>,
    top: usize,
    owned: Option<&RowBlock>,
) -> Result<JsonValue, String> {
    let scored = snap.model.influencers(topic, top, owned)?;
    let influencers = scored
        .into_iter()
        .map(|(u, score)| {
            JsonValue::obj(vec![
                ("node", JsonValue::from(u.0 as u64)),
                ("score", JsonValue::from(score)),
            ])
        })
        .collect();
    let mut fields = vec![("snapshot_version", JsonValue::from(snap.version))];
    if let Some(t) = topic {
        fields.push(("topic", JsonValue::from(t)));
    }
    fields.push(("influencers", JsonValue::Arr(influencers)));
    Ok(JsonValue::obj(fields))
}

fn parse_node(value: &JsonValue) -> Result<NodeId, String> {
    let raw = json::as_u64(value).ok_or("node id must be a non-negative integer")?;
    if raw > u32::MAX as u64 {
        return Err(format!("node id {raw} overflows u32"));
    }
    Ok(NodeId(raw as u32))
}

fn parse_infection(value: &JsonValue) -> Result<Infection, String> {
    let node = parse_node(json::get(value, "node").ok_or("missing \"node\"")?)?;
    let time = json::as_f64(json::get(value, "time").ok_or("missing \"time\"")?)
        .ok_or("\"time\" must be a number")?;
    if !time.is_finite() || time < 0.0 {
        return Err("\"time\" must be a non-negative finite number".into());
    }
    Ok(Infection { node, time })
}

fn check_node(u: NodeId, model: &dyn CascadeModel) -> Result<(), String> {
    if u.index() >= model.node_count() {
        return Err(format!(
            "node {u} outside the model universe (node_count {})",
            model.node_count()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn snapshot() -> ModelSnapshot {
        // 3 nodes × 2 topics. rate(0,1) = 1*0 + 2*1 = 2; node 2 all-zero.
        ModelSnapshot {
            version: 7,
            model: std::sync::Arc::new(viralcast_model::EmbeddingBackend::new(
                viralcast_embed::Embeddings::from_matrices(
                    3,
                    2,
                    vec![1.0, 2.0, 0.5, 0.5, 0.0, 0.0],
                    vec![1.0, 0.0, 0.0, 1.0, 0.0, 0.0],
                ),
            )),
            published_unix: 0,
        }
    }

    #[test]
    fn hazard_round_trip() {
        let req = parse_hazard(&parse(r#"{"pairs":[[0,1]],"dt":1.0}"#).unwrap()).unwrap();
        assert_eq!(req.pairs, vec![(NodeId(0), NodeId(1))]);
        let out = hazard_json(&snapshot(), &req).unwrap().render();
        assert!(out.contains("\"snapshot_version\":7"), "{out}");
        assert!(out.contains("\"rate\":2"), "{out}");
        // survival = e^{-2·1}
        assert!(
            out.contains(&format!("\"survival\":{}", (-2.0f64).exp())),
            "{out}"
        );
    }

    #[test]
    fn hazard_rejects_bad_bodies() {
        for bad in [
            r#"{}"#,
            r#"{"pairs":[[0]]}"#,
            r#"{"pairs":[[0,1,2]]}"#,
            r#"{"pairs":[["a",1]]}"#,
            r#"{"pairs":[[0,1]],"dt":-1}"#,
        ] {
            assert!(
                parse_hazard(&parse(bad).unwrap()).is_err(),
                "accepted {bad}"
            );
        }
    }

    #[test]
    fn hazard_rejects_out_of_range_nodes() {
        let req = parse_hazard(&parse(r#"{"pairs":[[0,99]]}"#).unwrap()).unwrap();
        let err = hazard_json(&snapshot(), &req).unwrap_err();
        assert!(err.contains("outside the model universe"), "{err}");
    }

    #[test]
    fn predict_ranks_uninfected_by_total_rate() {
        let req = parse_predict(&parse(r#"{"cascade":[{"node":0,"time":0.0}],"top":5}"#).unwrap())
            .unwrap();
        let out = predict_json(&snapshot(), &req, None).unwrap();
        // Candidates are nodes 1 and 2: rate(0,1)=2, rate(0,2)=0.
        let candidates =
            crate::json::as_arr(crate::json::get(&out, "candidates").unwrap()).unwrap();
        assert_eq!(candidates.len(), 2);
        assert_eq!(
            crate::json::as_u64(crate::json::get(&candidates[0], "node").unwrap()),
            Some(1)
        );
        assert_eq!(
            crate::json::as_f64(crate::json::get(&candidates[0], "rate").unwrap()),
            Some(2.0)
        );
    }

    #[test]
    fn predict_requires_a_nonempty_cascade() {
        assert!(parse_predict(&parse(r#"{"cascade":[]}"#).unwrap()).is_err());
        assert!(parse_predict(&parse(r#"{"top":3}"#).unwrap()).is_err());
    }

    #[test]
    fn ingest_separates_good_from_bad() {
        let body = parse(
            r#"{"cascades":[
                [{"node":0,"time":0.0},{"node":1,"time":0.5}],
                [{"node":0,"time":0.0},{"node":0,"time":1.0}],
                [{"node":9,"time":0.0}],
                []
            ]}"#,
        )
        .unwrap();
        let batch = parse_ingest(&body, 3).unwrap();
        assert_eq!(batch.cascades.len(), 1);
        assert_eq!(batch.rejected, 3);
        assert_eq!(batch.errors.len(), 3);
        assert!(
            batch.errors[0].contains("infected more than once"),
            "{:?}",
            batch.errors
        );
        assert!(batch.errors[1].contains("outside the model universe"));
        assert!(batch.errors[2].contains("no infections"));
    }

    #[test]
    fn influencers_global_and_topic_rankings() {
        let snap = snapshot();
        // Norms: n0 = √5, n1 = √0.5, n2 = 0.
        let out = influencers_json(&snap, None, 2, None).unwrap().render();
        let n0 = (5.0f64).sqrt();
        assert!(
            out.contains(&format!("{{\"node\":0,\"score\":{n0}}}")),
            "{out}"
        );
        // Topic 1: n0 = 2.0 leads.
        let out = influencers_json(&snap, Some(1), 1, None).unwrap().render();
        assert!(out.contains("\"topic\":1"), "{out}");
        assert!(out.contains("{\"node\":0,\"score\":2}"), "{out}");
        assert!(influencers_json(&snap, Some(9), 1, None).is_err());
    }

    #[test]
    fn shard_filter_restricts_candidates_to_owned_rows() {
        use crate::shard::RowBlock;
        let snap = snapshot();
        // Shard 1 of 2 (round-robin over 3 nodes) owns only node 1.
        let block = RowBlock::round_robin(3, 1, 2).unwrap();
        let req = parse_predict(&parse(r#"{"cascade":[{"node":0,"time":0.0}],"top":5}"#).unwrap())
            .unwrap();
        let out = predict_json(&snap, &req, Some(&block)).unwrap();
        let candidates =
            crate::json::as_arr(crate::json::get(&out, "candidates").unwrap()).unwrap();
        assert_eq!(candidates.len(), 1);
        assert_eq!(
            crate::json::as_u64(crate::json::get(&candidates[0], "node").unwrap()),
            Some(1)
        );
        // Influencers under the same mask: only node 1 is ranked.
        let out = influencers_json(&snap, None, 5, Some(&block))
            .unwrap()
            .render();
        assert!(out.contains("\"node\":1"), "{out}");
        assert!(!out.contains("\"node\":0"), "{out}");
        assert!(!out.contains("\"node\":2"), "{out}");
    }

    #[test]
    fn shard_filtered_rankings_tile_the_unsharded_ranking() {
        use crate::shard::RowBlock;
        let snap = snapshot();
        let req = parse_predict(&parse(r#"{"cascade":[{"node":0,"time":0.0}],"top":3}"#).unwrap())
            .unwrap();
        let full = predict_json(&snap, &req, None).unwrap().render();
        // Every candidate object a shard emits appears verbatim in the
        // single-box response — the byte-identity the router relies on.
        for shard in 0..2 {
            let block = RowBlock::round_robin(3, shard, 2).unwrap();
            let part = predict_json(&snap, &req, Some(&block)).unwrap();
            let candidates =
                crate::json::as_arr(crate::json::get(&part, "candidates").unwrap()).unwrap();
            for c in candidates {
                assert!(full.contains(&c.render()), "{} not in {full}", c.render());
            }
        }
    }
}
