//! The benchmark's vocabulary: workload names, end-to-end metrics with
//! their regression bounds, and per-layer metric names. `BENCHMARK.json`
//! at the repository root is generated from these tables
//! (`viralbench manifest`), and a unit test keeps the committed file in
//! step, so a later issue can cite a name and find it here.

use viralcast::obs::JsonValue;

use crate::stats::Better;

/// How long one run measures, in seconds — the `--seconds` the driver
/// passes. The issue's 30 s windows would put 92 driver runs past the
/// contract's 3420 s cap, so every window is shortened uniformly to the
/// 20 s floor the issue allows.
pub const RUN_SECONDS: u64 = 20;

/// One named workload.
pub struct WorkloadDef {
    /// The name later issues cite.
    pub name: &'static str,
    /// Why it exists: which layers it stresses and which it bypasses.
    pub why: &'static str,
}

/// The four workloads, in suite order.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "train_sbm",
        why: "offline pipeline, no sockets: cooccurrence, SLPA, hierarchical PGD fit, then feature extraction and SVM CV per SBM corpus; graph/community/embed/predict do all the work, serve/store/cluster none",
    },
    WorkloadDef {
        name: "read_scan",
        why: "one daemon, 60000x16 model tiled from a 2000-node fit, 64-seed top-100 predicts: the O(|infected|*n*K) scan plus full sort dominates latency, so scan/top-k work shows and transport work barely does",
    },
    WorkloadDef {
        name: "cluster_read",
        why: "router over 2 shards x (leader+follower), small model, 70/20/10 predict/influencers/hazard mix: scan under 5% of latency, cost is connection-per-hop and accept polling; scan work shows nothing",
    },
    WorkloadDef {
        name: "ingest_mixed",
        why: "durable daemon recovered from checkpoint+WAL tail, fsync-always ingests beside small predicts while the trainer retrains and checkpoints: write path, store lock and retrain CPU contention",
    },
];

/// An end-to-end metric and the share of the parent's median by which
/// it may worsen before a change counts as a regression.
///
/// The issue asked for bounds between 3 % and 10 %. The driver refused
/// 10 %: on its box ten runs of unchanged code spread by 8 to 12 % on
/// the CPU-bound pairs and by 26 % on `cluster_read`'s CPU per
/// operation. Think times and idle spinners (README, "Workloads") took
/// out what the benchmark itself added to that; what is left is the
/// speed of a shared host, which moves every timing by 10 to 30 % over
/// minutes (README, "Calibration"). The four timing metrics therefore
/// carry the contract's ceiling, 25 %, and memory, which repeats within
/// 3 %, carries 10 %.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound (calibrated, see README "Calibration").
    pub bound: f64,
}

/// The same five on every workload, measured with tracing off.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_rps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// Looks an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A per-layer metric: reported by the traced run, never gated.
pub struct Layer {
    /// `<crate>.<what>_<unit>`; the prefix is the layer.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Every per-layer metric a traced run prints. A layer the workload
/// does not exercise reads 0 (see README, "Reading a traced run").
pub const PER_LAYER: [Layer; 65] = [
    // The load generator's own view of a request.
    lower("bench.connect_us", "us"),
    lower("bench.first_byte_us", "us"),
    lower("bench.read_us", "us"),
    lower("bench.latency_p95_ms", "ms"),
    lower("bench.latency_p99_ms", "ms"),
    higher("bench.samples", "count"),
    lower("bench.connect_errors", "count"),
    lower("bench.reader_p50_ms", "ms"),
    higher("bench.reader_rps", "1/s"),
    // serve: transport and codecs.
    lower("serve.transport_floor_us", "us"),
    lower("serve.read_request_us", "us"),
    lower("serve.json_parse_us", "us"),
    lower("serve.predict_json_us", "us"),
    lower("serve.write_response_us", "us"),
    lower("serve.ingest_push_us", "us"),
    // serve: registry deltas over the window.
    lower("serve.requests", "count"),
    lower("serve.overload", "count"),
    lower("serve.errors", "count"),
    lower("serve.ingest_shed", "count"),
    higher("serve.retrain_runs", "count"),
    higher("serve.retrain_cascades", "count"),
    lower("serve.retrain_mean_ms", "ms"),
    lower("serve.trainer_busy_share", "share"),
    lower("serve.publish_lag_p50_ms", "ms"),
    // model: the scan and the retrain.
    lower("model.rank_us", "us"),
    lower("model.rank_shard_us", "us"),
    lower("model.rank_small_us", "us"),
    lower("model.rate_ops", "count"),
    lower("model.influencers_us", "us"),
    lower("model.hazard_ns", "ns"),
    lower("model.netinf_rank_us", "us"),
    lower("model.update_ms", "ms"),
    lower("model.encode_us", "us"),
    lower("model.decode_us", "us"),
    lower("model.bytes", "bytes"),
    // store: the write path.
    lower("store.append_always_us", "us"),
    lower("store.append_interval_us", "us"),
    lower("store.wal_fsyncs_per_ingest", "count"),
    lower("store.wal_bytes_per_cascade", "bytes"),
    lower("store.checkpoint_ms", "ms"),
    lower("store.recover_ms", "ms"),
    // cluster and replica: the hops.
    lower("cluster.shard_rtt_us", "us"),
    lower("cluster.router_overhead_ms", "ms"),
    lower("cluster.merge_topk_us", "us"),
    lower("cluster.partial_share", "share"),
    lower("replica.poll_current_us", "us"),
    lower("replica.fetch_ms", "ms"),
    lower("replica.catchup_ms", "ms"),
    // The offline pipeline, stage by stage.
    lower("graph.cooccurrence_ms", "ms"),
    lower("graph.cooccurrence_edges", "count"),
    lower("community.slpa_ms", "ms"),
    higher("community.count", "count"),
    lower("embed.infer_ms", "ms"),
    lower("embed.levels", "count"),
    higher("embed.final_ll", "nats"),
    lower("predict.features_ms", "ms"),
    lower("predict.svm_cv_ms", "ms"),
    higher("predict.f1", "share"),
    lower("propagation.simulate_ms", "ms"),
    lower("core.infer_ms", "ms"),
    // obs: what every request pays for being counted.
    lower("obs.metrics_snapshot_us", "us"),
    lower("obs.render_prometheus_us", "us"),
    lower("obs.histogram_record_ns", "ns"),
    // The traced run's own end-to-end numbers.
    higher("traced.throughput_rps", "1/s"),
    lower("traced.latency_p50_ms", "ms"),
];

/// Looks a per-layer metric up by name.
pub fn per_layer(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// The unit of any known metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| per_layer(name).map(|m| m.unit))
}

/// `BENCHMARK.json`, per the builder's contract.
pub fn manifest() -> JsonValue {
    let text = JsonValue::from;
    JsonValue::obj(vec![
        (
            "command",
            JsonValue::Arr(vec![text("bash"), text("benchmark/run.sh")]),
        ),
        ("paths", JsonValue::Arr(vec![text("benchmark")])),
        ("run_seconds", JsonValue::from(RUN_SECONDS)),
        (
            "workloads",
            JsonValue::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| JsonValue::obj(vec![("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            JsonValue::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        JsonValue::obj(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                            ("bound", JsonValue::from(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            JsonValue::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        JsonValue::obj(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name));
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            // The issue's floor and the contract's ceiling.
            assert!(
                (0.03..=0.25).contains(&m.bound),
                "{} bound {}",
                m.name,
                m.bound
            );
            assert!(seen.insert(m.name));
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    /// The committed `BENCHMARK.json` is this table, nothing else. (The
    /// file is absent when the benchmark directory is checked out alone.)
    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let Ok(committed) = std::fs::read_to_string(&path) else {
            return;
        };
        let parsed = viralcast::serve::json::parse(&committed).expect("BENCHMARK.json parses");
        assert_eq!(parsed, manifest(), "regenerate with `viralbench manifest`");
    }
}
