//! Correctness oracles. Every run checks its outputs against answers
//! computed in-process from the same model by calling the model layer
//! directly; a miss fails the run. Each oracle is a pure function so the
//! unit tests can hand it a deliberately wrong answer.

use std::sync::Arc;

use viralcast::embed::{Embeddings, InferenceReport};
use viralcast::model::CascadeModel;
use viralcast::obs::JsonValue;
use viralcast::propagation::{Cascade, Infection};
use viralcast::serve::api::{self, HazardRequest, PredictRequest};
use viralcast::serve::{json, ModelSnapshot};

use crate::gen::Ask;

/// The snapshot a daemon booted with `model` serves until a retrain.
pub fn boot_snapshot(model: &Arc<dyn CascadeModel>) -> ModelSnapshot {
    ModelSnapshot {
        version: 1,
        model: Arc::clone(model),
        published_unix: 0,
    }
}

/// The body a single unsharded daemon holding `snapshot` returns for
/// `ask`, produced by the same codec functions the daemon calls on top
/// of `rank_candidates` / `influencers` / `hazard`.
pub fn single_box_answer(snapshot: &ModelSnapshot, ask: &Ask) -> Result<JsonValue, String> {
    match ask {
        Ask::Predict { infected, top } => {
            let request = PredictRequest {
                infections: infected
                    .iter()
                    .map(|&node| Infection { node, time: 0.0 })
                    .collect(),
                top: *top,
            };
            api::predict_json(snapshot, &request, None)
        }
        Ask::Influencers { top } => api::influencers_json(snapshot, None, *top, None),
        Ask::Hazard { pairs } => api::hazard_json(
            snapshot,
            &HazardRequest {
                pairs: pairs.clone(),
                dt: None,
            },
        ),
        Ask::Ingest => Err("ingest acknowledgements have no model oracle".into()),
    }
}

fn first_difference(got: &str, want: &str) -> String {
    let at = got
        .bytes()
        .zip(want.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| got.len().min(want.len()));
    let clip = |s: &str| {
        s.chars()
            .skip(at.saturating_sub(20))
            .take(60)
            .collect::<String>()
    };
    format!(
        "first difference at byte {at}: got …{}… want …{}…",
        clip(got),
        clip(want)
    )
}

/// A response from a single daemon must equal the oracle byte for byte.
pub fn check_single_box(body: &str, snapshot: &ModelSnapshot, ask: &Ask) -> Result<(), String> {
    let want = single_box_answer(snapshot, ask)?.render();
    if body == want {
        Ok(())
    } else {
        Err(format!(
            "response differs from the in-process answer; {}",
            first_difference(body, &want)
        ))
    }
}

/// A response through the router must carry the single-box ranking (or
/// hazard table) and must not be partial.
pub fn check_routed(body: &str, snapshot: &ModelSnapshot, ask: &Ask) -> Result<(), String> {
    let key = match ask {
        Ask::Predict { .. } => "candidates",
        Ask::Influencers { .. } => "influencers",
        // Hazard is forwarded to one daemon, envelope and all.
        Ask::Hazard { .. } | Ask::Ingest => return check_single_box(body, snapshot, ask),
    };
    let got = json::parse(body).map_err(|e| format!("router response is not JSON: {e}"))?;
    if json::get(&got, "partial") != Some(&JsonValue::Bool(false)) {
        return Err("router response is partial (or lacks the `partial` field)".into());
    }
    let want = single_box_answer(snapshot, ask)?;
    let ranking = |doc: &JsonValue| json::get(doc, key).map(JsonValue::render);
    match (ranking(&got), ranking(&want)) {
        (Some(got), Some(want)) if got == want => Ok(()),
        (Some(got), Some(want)) => Err(format!(
            "merged `{key}` differs from the single-box answer; {}",
            first_difference(&got, &want)
        )),
        _ => Err(format!("response lacks `{key}`")),
    }
}

/// An ingest of one cascade must be acknowledged whole: one accepted,
/// none dropped.
pub fn check_ack(body: &str) -> Result<(), String> {
    let doc = json::parse(body).map_err(|e| format!("ingest response is not JSON: {e}"))?;
    let count = |key| json::get(&doc, key).and_then(json::as_u64);
    if count("accepted") == Some(1) && count("dropped") == Some(0) {
        Ok(())
    } else {
        Err(format!("ingest was not fully accepted: {body}"))
    }
}

/// While the trainer publishes new snapshots the exact ranking depends
/// on which version answered, so the reader beside the ingest stream is
/// held to the response's shape: a version no older than boot and
/// exactly `top` distinct, not-infected, in-universe candidates in
/// non-increasing rate order.
pub fn check_reader_shape(
    body: &str,
    ask: &Ask,
    node_count: usize,
    boot_version: u64,
) -> Result<(), String> {
    let Ask::Predict { infected, top } = ask else {
        return Err("the reader only predicts".into());
    };
    let doc = json::parse(body).map_err(|e| format!("reader response is not JSON: {e}"))?;
    let version = json::get(&doc, "snapshot_version").and_then(json::as_u64);
    if version < Some(boot_version) {
        return Err(format!(
            "snapshot_version {version:?} is older than boot version {boot_version}"
        ));
    }
    let candidates = json::get(&doc, "candidates")
        .and_then(json::as_arr)
        .ok_or("response lacks `candidates`")?;
    let want = (*top).min(node_count - infected.len());
    if candidates.len() != want {
        return Err(format!(
            "{} candidate(s), expected {want}",
            candidates.len()
        ));
    }
    let mut seen = Vec::with_capacity(candidates.len());
    let mut last_rate = f64::INFINITY;
    for entry in candidates {
        let node = json::get(entry, "node")
            .and_then(json::as_u64)
            .ok_or("candidate lacks `node`")?;
        let rate = json::get(entry, "rate")
            .and_then(json::as_f64)
            .ok_or("candidate lacks `rate`")?;
        if node as usize >= node_count || infected.iter().any(|i| u64::from(i.0) == node) {
            return Err(format!(
                "candidate {node} is infected or outside the universe"
            ));
        }
        if !rate.is_finite() || rate > last_rate {
            return Err(format!(
                "rate {rate} after {last_rate}: not a descending finite ranking"
            ));
        }
        if seen.contains(&node) {
            return Err(format!("candidate {node} listed twice"));
        }
        seen.push(node);
        last_rate = rate;
    }
    Ok(())
}

/// What the ingest workload knows after shutdown and a reopen of the
/// event store.
pub struct RecoveryFacts<'a> {
    /// The cascades the writer cycles through; its `j`-th ingest carried
    /// `sent[j % sent.len()]`.
    pub sent: &'a [Cascade],
    /// WAL records that existed before the writer's first ingest.
    pub tail: u64,
    /// Ingests acknowledged with 200, all of them in issue order
    /// (`None` when the writer saw any failure, which breaks the
    /// position ↔ record mapping).
    pub acked_in_order: Option<u64>,
    /// `wal_offset` of the manifest found at reopen: records below it
    /// are folded into the checkpointed model.
    pub checkpoint_offset: u64,
    /// Records the reopen recovered beyond the checkpoint, in index order.
    pub pending: &'a [Cascade],
    /// Index the next append would get.
    pub next_index: u64,
    /// Snapshot version the daemon booted at.
    pub boot_version: u64,
    /// Snapshot version in the manifest found at reopen.
    pub recovered_version: u64,
}

/// Recovered ⊇ acked, and the snapshot lineage advanced: every
/// acknowledged ingest is either covered by the recovered checkpoint or
/// present, byte-equal, among the recovered pending records.
pub fn check_recovery(facts: &RecoveryFacts<'_>) -> Result<(), String> {
    let acked = facts
        .acked_in_order
        .ok_or("an ingest failed, so acknowledged records cannot be matched to WAL positions")?;
    if facts.next_index < facts.tail + acked {
        return Err(format!(
            "the log ends at record {} but {} tail + {acked} acknowledged records were written",
            facts.next_index, facts.tail
        ));
    }
    if facts.checkpoint_offset + facts.pending.len() as u64 != facts.next_index {
        return Err(format!(
            "checkpoint offset {} + {} recovered record(s) ≠ log end {}",
            facts.checkpoint_offset,
            facts.pending.len(),
            facts.next_index
        ));
    }
    for j in 0..acked {
        let index = facts.tail + j;
        if index < facts.checkpoint_offset {
            continue;
        }
        let recovered = &facts.pending[(index - facts.checkpoint_offset) as usize];
        if *recovered != facts.sent[j as usize % facts.sent.len()] {
            return Err(format!(
                "acknowledged ingest {j} (WAL record {index}) was recovered altered"
            ));
        }
    }
    if facts.recovered_version <= facts.boot_version {
        return Err(format!(
            "snapshot version did not advance: booted at {}, recovered {}",
            facts.boot_version, facts.recovered_version
        ));
    }
    Ok(())
}

/// F1 at the top-20 % operating point that the median training job must
/// reach. In the local regime sizes follow the seed's community more
/// than its embedding, so F1 sits near 0.4; a collapsed or non-finite
/// fit scores 0.
pub const F1_FLOOR: f64 = 0.2;

/// A fit is sane when every embedding entry is finite and non-negative
/// and the leaf level's optimisers, summed, ended above where they
/// started.
pub fn check_fit(embeddings: &Embeddings, report: &InferenceReport) -> Result<(), String> {
    let entries = embeddings
        .influence_matrix()
        .iter()
        .chain(embeddings.selectivity_matrix());
    if let Some(bad) = entries.clone().find(|x| !x.is_finite() || **x < 0.0) {
        return Err(format!(
            "embedding entry {bad} is not a finite non-negative number"
        ));
    }
    let leaf = report.levels.first().ok_or("the fit ran no level")?;
    let initial: f64 = leaf.group_reports.iter().map(|g| g.initial_ll).sum();
    let fitted: f64 = leaf.group_reports.iter().map(|g| g.final_ll).sum();
    if !(fitted.is_finite() && fitted > initial) {
        return Err(format!(
            "log-likelihood did not improve: {initial} → {fitted}"
        ));
    }
    Ok(())
}

/// The run-level prediction check: the median job F1 clears [`F1_FLOOR`].
pub fn check_f1(job_f1: &[f64]) -> Result<(), String> {
    let median = crate::stats::median(job_f1).ok_or("no job produced an F1")?;
    if !(median.is_finite() && median >= F1_FLOOR) {
        return Err(format!(
            "median cross-validated F1 {median:.3} is below the floor {F1_FLOOR}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use viralcast::embed::{LevelSummary, PgdReport};
    use viralcast::graph::NodeId;

    fn model() -> Arc<dyn CascadeModel> {
        // rate(u, v) = A_u · B_v
        crate::gen::backend(Embeddings::from_matrices(
            4,
            2,
            vec![1.0, 2.0, 0.5, 0.5, 0.0, 1.0, 3.0, 0.0],
            vec![1.0, 0.0, 0.0, 1.0, 0.5, 0.5, 0.2, 0.1],
        ))
    }

    fn predict() -> Ask {
        Ask::Predict {
            infected: vec![NodeId(0)],
            top: 2,
        }
    }

    #[test]
    fn single_box_oracle_accepts_the_true_answer_and_rejects_a_wrong_one() {
        let snapshot = boot_snapshot(&model());
        for ask in [
            predict(),
            Ask::Influencers { top: 3 },
            Ask::Hazard {
                pairs: vec![(NodeId(0), NodeId(1)), (NodeId(3), NodeId(2))],
            },
        ] {
            let truth = single_box_answer(&snapshot, &ask).unwrap().render();
            check_single_box(&truth, &snapshot, &ask).unwrap();
            // One digit of one score changed.
            let wrong = truth.replacen("0.5", "0.6", 1).replacen(":2", ":7", 1);
            assert_ne!(wrong, truth);
            assert!(
                check_single_box(&wrong, &snapshot, &ask).is_err(),
                "{wrong}"
            );
        }
    }

    #[test]
    fn routed_oracle_rejects_partial_reordered_and_altered_rankings() {
        let snapshot = boot_snapshot(&model());
        let ask = predict();
        let truth = single_box_answer(&snapshot, &ask).unwrap();
        let ranking = json::get(&truth, "candidates").unwrap().clone();
        let envelope = |ranking: JsonValue, partial: bool| {
            JsonValue::obj(vec![
                ("snapshot_version", JsonValue::from(1u64)),
                ("observed", JsonValue::from(1u64)),
                ("candidates", ranking),
                ("partial", JsonValue::Bool(partial)),
                ("shards_responding", JsonValue::from(2u64)),
                ("shards_total", JsonValue::from(2u64)),
            ])
            .render()
        };
        check_routed(&envelope(ranking.clone(), false), &snapshot, &ask).unwrap();
        assert!(check_routed(&envelope(ranking.clone(), true), &snapshot, &ask).is_err());
        let JsonValue::Arr(mut entries) = ranking else {
            panic!("ranking is an array");
        };
        entries.reverse();
        assert!(check_routed(
            &envelope(JsonValue::Arr(entries.clone()), false),
            &snapshot,
            &ask
        )
        .is_err());
        entries.pop();
        assert!(check_routed(&envelope(JsonValue::Arr(entries), false), &snapshot, &ask).is_err());
        assert!(check_routed("{\"partial\":false}", &snapshot, &ask).is_err());
        assert!(check_routed("not json", &snapshot, &ask).is_err());
    }

    #[test]
    fn reader_shape_oracle_rejects_malformed_rankings() {
        let ask = predict();
        let entry = |node: u64, rate: f64| {
            JsonValue::obj(vec![
                ("node", JsonValue::from(node)),
                ("rate", JsonValue::from(rate)),
            ])
        };
        let body = |version: u64, entries: Vec<JsonValue>| {
            JsonValue::obj(vec![
                ("snapshot_version", JsonValue::from(version)),
                ("candidates", JsonValue::Arr(entries)),
            ])
            .render()
        };
        check_reader_shape(&body(3, vec![entry(1, 2.0), entry(2, 0.5)]), &ask, 4, 2).unwrap();
        for (wrong, why) in [
            (body(1, vec![entry(1, 2.0), entry(2, 0.5)]), "stale version"),
            (body(3, vec![entry(1, 2.0)]), "too short"),
            (body(3, vec![entry(1, 0.5), entry(2, 2.0)]), "ascending"),
            (
                body(3, vec![entry(0, 2.0), entry(2, 0.5)]),
                "infected candidate",
            ),
            (
                body(3, vec![entry(1, 2.0), entry(9, 0.5)]),
                "outside the universe",
            ),
            (body(3, vec![entry(1, 2.0), entry(1, 0.5)]), "duplicate"),
        ] {
            assert!(check_reader_shape(&wrong, &ask, 4, 2).is_err(), "{why}");
        }
    }

    #[test]
    fn ack_oracle_rejects_shed_and_rejected_ingests() {
        check_ack(r#"{"snapshot_version":2,"accepted":1,"rejected":0,"dropped":0,"buffered":3,"errors":[]}"#).unwrap();
        assert!(check_ack(r#"{"accepted":0,"rejected":1,"dropped":0}"#).is_err());
        assert!(check_ack(r#"{"accepted":0,"rejected":0,"dropped":1}"#).is_err());
        assert!(check_ack("oops").is_err());
    }

    fn cascade(seed: u32) -> Cascade {
        Cascade::new(vec![
            Infection::new(seed, 0.0),
            Infection::new(seed + 1, 0.5),
        ])
        .unwrap()
    }

    fn facts<'a>(
        sent: &'a [Cascade],
        pending: &'a [Cascade],
        next_index: u64,
        version: u64,
    ) -> RecoveryFacts<'a> {
        RecoveryFacts {
            sent,
            tail: 3,
            acked_in_order: Some(6),
            checkpoint_offset: 5,
            pending,
            next_index,
            boot_version: 2,
            recovered_version: version,
        }
    }

    #[test]
    fn recovery_oracle_rejects_loss_alteration_and_a_stuck_lineage() {
        let sent: Vec<Cascade> = (0..4).map(|i| cascade(10 * i)).collect();
        // 3 tail records, then 6 acknowledged ingests cycling `sent`;
        // the checkpoint covers the first 5 records.
        let log: Vec<Cascade> = (0..3)
            .map(|i| cascade(100 + i))
            .chain((0..6).map(|j| sent[j % 4].clone()))
            .collect();
        let good = &log[5..];
        check_recovery(&facts(&sent, good, 9, 7)).unwrap();
        // The last acknowledged record is missing.
        assert!(check_recovery(&facts(&sent, &log[5..8], 8, 7)).is_err());
        // A recovered record differs from what was sent.
        let mut altered = good.to_vec();
        altered[1] = cascade(999);
        assert!(check_recovery(&facts(&sent, &altered, 9, 7)).is_err());
        // Offset and pending disagree with the log end.
        assert!(check_recovery(&facts(&sent, good, 10, 7)).is_err());
        // The snapshot never advanced.
        assert!(check_recovery(&facts(&sent, good, 9, 2)).is_err());
        // A failed ingest voids the positional argument.
        let mut voided = facts(&sent, good, 9, 7);
        voided.acked_in_order = None;
        assert!(check_recovery(&voided).is_err());
    }

    fn report(initial: f64, fitted: f64) -> InferenceReport {
        InferenceReport {
            levels: vec![LevelSummary {
                level: 0,
                groups: 1,
                subcascades: 1,
                epochs: 1,
                final_ll: fitted,
                group_reports: vec![PgdReport {
                    epochs: 1,
                    initial_ll: initial,
                    final_ll: fitted,
                    ll_history: Vec::new(),
                }],
            }],
            timings: Default::default(),
        }
    }

    #[test]
    fn fit_oracle_rejects_non_finite_entries_and_a_falling_likelihood() {
        let good = Embeddings::from_matrices(2, 1, vec![0.5, 0.0], vec![1.0, 0.25]);
        check_fit(&good, &report(-10.0, -4.0)).unwrap();
        assert!(check_fit(&good, &report(-4.0, -10.0)).is_err());
        assert!(check_fit(&good, &report(-4.0, f64::NAN)).is_err());
        let nan = Embeddings::from_matrices(2, 1, vec![0.5, f64::NAN], vec![1.0, 0.25]);
        assert!(check_fit(&nan, &report(-10.0, -4.0)).is_err());
        assert!(check_fit(
            &good,
            &InferenceReport {
                levels: vec![],
                timings: Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn f1_oracle_uses_the_median_job() {
        check_f1(&[0.1, 0.4, 0.5]).unwrap();
        assert!(check_f1(&[0.1, 0.15, 0.5]).is_err());
        assert!(check_f1(&[f64::NAN, f64::NAN, 0.5]).is_err());
        assert!(check_f1(&[]).is_err());
    }
}
