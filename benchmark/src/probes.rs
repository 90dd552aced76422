//! Per-layer probes for the traced run.
//!
//! Every layer is measured from outside: a probe calls one public
//! function of one crate a fixed number of times, records each call as
//! a span, and reports the median. The *offline* probes need no socket
//! and run on every workload against that workload's own model and
//! corpus; the *live* probes split or route real requests and run only
//! where the workload has that topology (elsewhere the metric reads 0).

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use viralcast::cluster::{merge_topk, Ranked};
use viralcast::community::{Slpa, SlpaConfig};
use viralcast::embed::{self, HierarchicalConfig};
use viralcast::graph::cooccurrence::{CooccurrenceGraph, CooccurrenceOptions};
use viralcast::graph::NodeId;
use viralcast::model::{decode_model, CascadeModel, NetInfBackend, NetInfConfig, RowBlock};
use viralcast::obs::{self, Histogram};
use viralcast::pipeline::InferOptions;
use viralcast::predict::pipeline::{extract_dataset, threshold_sweep, PredictionTask};
use viralcast::propagation::{Cascade, CascadeSet, SimulationConfig, Simulator};
use viralcast::replica::{poll_snapshot, FollowerHandle};
use viralcast::serve::http::{self, HttpLimits, Response};
use viralcast::serve::{api, client, json, IngestBuffer, ServerHandle};
use viralcast::store::{EventStore, FsyncPolicy, WalOptions};
use viralcast::SbmExperiment;

use crate::fixture::TempDir;
use crate::gen::{self, Ask, Op};
use crate::metrics;
use crate::oracle;
use crate::stats;
use crate::trace::Trace;

/// Calls per probe, by the cost class of one call.
const FAST: usize = 200; // microseconds
const MEDIUM: usize = 15; // milliseconds
const SLOW: usize = 3; // a tenth of a second and up

/// Per-layer metric values, one slot per name in
/// [`metrics::PER_LAYER`], all starting at 0.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Every per-layer metric at 0.
    pub fn zeroed() -> Layers {
        Layers(metrics::PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    /// Sets one metric; the name must be in the table.
    pub fn set(&mut self, name: &str, value: f64) {
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric")) = value;
    }

    /// The value of one metric.
    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }

    /// `(name, value)` in table order.
    pub fn in_table_order(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        metrics::PER_LAYER.iter().map(|m| (m.name, self.0[m.name]))
    }
}

/// Runs `f` `calls` times under a `bench.probe` parent span, each call a
/// span named `name`, and returns the median call time in seconds.
fn median_call<T>(trace: &mut Trace, name: &str, calls: usize, mut f: impl FnMut() -> T) -> f64 {
    let outer_start = Instant::now();
    let mut timed = Vec::with_capacity(calls);
    for _ in 0..calls {
        let start = Instant::now();
        std::hint::black_box(f());
        timed.push((start, Instant::now()));
    }
    let parent = trace.record("bench.probe", outer_start, Instant::now(), None, 0);
    let mut seconds = Vec::with_capacity(calls);
    for (call, (start, end)) in timed.into_iter().enumerate() {
        trace.record(name, start, end, Some(parent), call as u64);
        seconds.push(end.duration_since(start).as_secs_f64());
    }
    stats::median(&seconds).unwrap_or(0.0)
}

/// What the offline probes measure against.
pub struct ProbeInputs<'a> {
    /// The workload's model (served, or job 0's fit on `train_sbm`).
    pub model: &'a Arc<dyn CascadeModel>,
    /// The model as fitted on `world` — the same as `model` except on
    /// `read_scan`, whose served model is tiled from it. The retrain
    /// probe updates this one (a retrain needs the corpus's universe).
    pub fitted: &'a Arc<dyn CascadeModel>,
    /// The world the model was fitted on.
    pub world: &'a SbmExperiment,
    /// Latent dimensions of the fit.
    pub topics: usize,
    /// The workload's scan-sized predict (`read_scan`'s request shape).
    pub scan: &'a Op,
    /// The small predict (`cluster_read`'s request shape).
    pub small: &'a Op,
}

fn infected_of(op: &Op) -> (&[NodeId], usize) {
    match &op.ask {
        Ask::Predict { infected, top } => (infected, *top),
        _ => panic!("probe operations are predicts"),
    }
}

fn wire_bytes(op: &Op) -> Vec<u8> {
    let body = op.body.as_deref().unwrap_or("");
    format!(
        "{} {} HTTP/1.1\r\nHost: viralcast\r\nContent-Length: {}\r\n\r\n{body}",
        op.method,
        op.target,
        body.len()
    )
    .into_bytes()
}

fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Infections per ingested cascade: held-out cascades cut to this many
/// early adopters. Sized so that, at the ~95 ingests/s one closed-loop
/// writer reaches, the ~48 cascades each 500 ms trainer tick drains
/// keep the trainer busy for a third of the window.
pub const INGEST_HEAD: usize = 80;

/// Infections per cascade in the recovered WAL tail — short, so the one
/// retrain over the whole tail finishes inside the warm-up.
pub const TAIL_HEAD: usize = 12;

/// Records in the WAL tail that `ingest_mixed` recovers at boot.
pub const WAL_TAIL: usize = 2000;

/// Held-out cascades cut to their first `head` infections.
pub fn cascade_heads(held_out: &CascadeSet, head: usize) -> Vec<Cascade> {
    held_out
        .cascades()
        .iter()
        .map(|c| gen::head(c, head))
        .collect()
}

/// Writes the durable state `ingest_mixed` boots from into `dir`: a
/// checkpoint of `model` at snapshot version 2 covering nothing, then a
/// [`WAL_TAIL`]-record tail cycling `cascades`.
pub fn seed_data_dir(
    dir: &std::path::Path,
    model: &dyn CascadeModel,
    cascades: &[Cascade],
) -> std::io::Result<()> {
    // Rotation-only fsync while seeding: the final `sync` makes it durable.
    let options = WalOptions {
        fsync: FsyncPolicy::OnRotate,
        ..WalOptions::default()
    };
    let (mut store, _) = EventStore::open(dir, options)?;
    store.checkpoint(2, 0, model)?;
    let tail: Vec<Cascade> = cascades.iter().cycle().take(WAL_TAIL).cloned().collect();
    store.append_batch(&tail)?;
    store.sync()
}

/// The socket-free probes.
pub fn offline(
    inputs: &ProbeInputs<'_>,
    trace: &mut Trace,
    layers: &mut Layers,
) -> Result<(), String> {
    let model = inputs.model;
    let snapshot = oracle::boot_snapshot(model);
    let (scan_infected, scan_top) = infected_of(inputs.scan);
    let (small_infected, small_top) = infected_of(inputs.small);
    let us = 1e6;
    let ms = 1e3;

    // serve: the codecs one request passes through.
    let wire = wire_bytes(inputs.scan);
    let limits = HttpLimits::default();
    let t = median_call(trace, "serve.read_request", FAST, || {
        http::read_request(&mut &wire[..], &limits).expect("a well-formed request")
    });
    layers.set("serve.read_request_us", t * us);
    let body = inputs.scan.body.as_deref().unwrap_or("");
    let t = median_call(trace, "serve.json_parse", FAST, || {
        json::parse(body).expect("valid JSON")
    });
    layers.set("serve.json_parse_us", t * us);
    let parsed = json::parse(body)?;
    let t = median_call(trace, "serve.predict_json", MEDIUM, || {
        let request = api::parse_predict(&parsed).expect("a valid predict body");
        api::predict_json(&snapshot, &request, None).expect("in-universe nodes")
    });
    layers.set("serve.predict_json_us", t * us);
    let answer = oracle::single_box_answer(&snapshot, &inputs.scan.ask)?;
    let t = median_call(trace, "serve.write_response", FAST, || {
        let mut out = Vec::with_capacity(8192);
        Response::json(200, &answer)
            .write_to(&mut out)
            .expect("Vec writes cannot fail");
        out
    });
    layers.set("serve.write_response_us", t * us);
    let cascades = cascade_heads(inputs.world.test(), INGEST_HEAD);
    let buffer = IngestBuffer::new(1 << 20);
    let mut next = cascades.iter().cycle();
    let t = median_call(trace, "serve.ingest_push", FAST, || {
        buffer.push_batch(vec![next.next().expect("cycle").clone()], Some("probe"))
    });
    layers.set("serve.ingest_push_us", t * us);

    // model: the scan, whole and sharded, and the small request.
    let t = median_call(trace, "model.rank_candidates", MEDIUM, || {
        model.rank_candidates(scan_infected, scan_top, None)
    });
    layers.set("model.rank_us", t * us);
    let candidates = model.node_count() - scan_infected.len();
    layers.set(
        "model.rate_ops",
        (scan_infected.len() * candidates * model.topic_count()) as f64,
    );
    let half = RowBlock::round_robin(model.node_count(), 0, 2)?;
    let t = median_call(trace, "model.rank_candidates_shard", MEDIUM, || {
        model.rank_candidates(scan_infected, scan_top, Some(&half))
    });
    layers.set("model.rank_shard_us", t * us);
    let t = median_call(trace, "model.rank_candidates_small", FAST, || {
        model.rank_candidates(small_infected, small_top, None)
    });
    layers.set("model.rank_small_us", t * us);
    let t = median_call(trace, "model.influencers", MEDIUM, || {
        model.influencers(None, 10, None).expect("no topic filter")
    });
    layers.set("model.influencers_us", t * us);
    let n = model.node_count() as u32;
    let t = median_call(trace, "model.hazard_x10000", MEDIUM, || {
        (0..10_000u32)
            .map(|i| model.hazard(NodeId(i % n), NodeId((i.wrapping_mul(7919) + 1) % n)))
            .sum::<f64>()
    });
    layers.set("model.hazard_ns", t * 1e9 / 10_000.0);
    let heads: Vec<Cascade> = inputs
        .world
        .train()
        .cascades()
        .iter()
        .take(64)
        .map(|c| gen::head(c, 16))
        .collect();
    let netinf = NetInfBackend::fit(
        &CascadeSet::new(inputs.world.train().node_count(), heads),
        NetInfConfig::default(),
    );
    // The small request's seeds lie in the fitted world on every workload.
    let t = median_call(trace, "model.netinf_rank_candidates", FAST, || {
        netinf.rank_candidates(small_infected, small_top, None)
    });
    layers.set("model.netinf_rank_us", t * us);

    // model: the retrain and the snapshot codec.
    let fresh = CascadeSet::new(
        inputs.world.train().node_count(),
        cascades.iter().take(32).cloned().collect(),
    );
    let t = median_call(trace, "model.update", SLOW, || {
        inputs.fitted.update(&fresh).expect("same universe")
    });
    layers.set("model.update_ms", t * ms);
    let t = median_call(trace, "model.encode", MEDIUM, || model.encode());
    layers.set("model.encode_us", t * us);
    let payload = model.encode();
    layers.set("model.bytes", payload.len() as f64);
    let t = median_call(trace, "model.decode", MEDIUM, || {
        decode_model(model.backend_id(), &payload).expect("own encoding")
    });
    layers.set("model.decode_us", t * us);

    // store: appends under both fsync policies, checkpoint, recovery.
    for (metric, span, fsync) in [
        (
            "store.append_always_us",
            "store.append_batch_always",
            FsyncPolicy::Always,
        ),
        (
            "store.append_interval_us",
            "store.append_batch_interval",
            FsyncPolicy::Interval(Duration::from_millis(200)),
        ),
    ] {
        let dir = TempDir::create("probe-wal").map_err(|e| e.to_string())?;
        let options = WalOptions {
            fsync,
            ..WalOptions::default()
        };
        let (mut store, _) = EventStore::open(dir.path(), options).map_err(|e| e.to_string())?;
        let before = dir_bytes(dir.path());
        let mut next = cascades.iter().cycle();
        let t = median_call(trace, span, FAST, || {
            store
                .append_batch(std::slice::from_ref(next.next().expect("cycle")))
                .expect("append to a fresh log")
        });
        layers.set(metric, t * us);
        if fsync == FsyncPolicy::Always {
            let grown = dir_bytes(dir.path()) - before;
            layers.set("store.wal_bytes_per_cascade", grown as f64 / FAST as f64);
            let offset = store.next_index();
            let mut version = 2;
            let t = median_call(trace, "store.checkpoint", SLOW, || {
                version += 1;
                store
                    .checkpoint(version, offset, model.as_ref())
                    .expect("checkpoint")
            });
            layers.set("store.checkpoint_ms", t * ms);
        }
    }
    let dir = TempDir::create("probe-recover").map_err(|e| e.to_string())?;
    let tail = cascade_heads(inputs.world.test(), TAIL_HEAD);
    seed_data_dir(dir.path(), model.as_ref(), &tail).map_err(|e| e.to_string())?;
    let t = median_call(trace, "store.open", SLOW, || {
        EventStore::open(dir.path(), WalOptions::default()).expect("reopen")
    });
    layers.set("store.recover_ms", t * ms);

    // cluster: the merge of two shard rankings.
    let lists: Vec<Vec<Ranked>> = (0..2u64)
        .map(|shard| {
            (0..10u64)
                .map(|i| Ranked::bare(2 * i + shard, 1.0 / (1.0 + (2 * i + shard) as f64)))
                .collect()
        })
        .collect();
    let t = median_call(trace, "cluster.merge_topk", FAST, || merge_topk(&lists, 10));
    layers.set("cluster.merge_topk_us", t * us);

    // The offline pipeline, stage by stage, on the fitted corpus.
    let train = inputs.world.train();
    let options = InferOptions {
        topics: inputs.topics,
        ..InferOptions::default()
    };
    let sequences = train.node_sequences();
    let cooccurrence = || {
        CooccurrenceGraph::build(
            train.node_count(),
            &sequences,
            CooccurrenceOptions {
                successor_window: None,
                min_weight: options.min_cooccurrence_weight,
            },
        )
    };
    let t = median_call(trace, "graph.cooccurrence_build", SLOW, cooccurrence);
    layers.set("graph.cooccurrence_ms", t * ms);
    let cooc = cooccurrence();
    layers.set("graph.cooccurrence_edges", cooc.graph().edge_count() as f64);
    let undirected = cooc.undirected();
    let slpa = Slpa::new(SlpaConfig::default());
    let t = median_call(trace, "community.slpa_run", SLOW, || slpa.run(&undirected));
    layers.set("community.slpa_ms", t * ms);
    let partition = slpa.run(&undirected).partition;
    layers.set("community.count", partition.community_count() as f64);
    let config = HierarchicalConfig {
        topics: inputs.topics,
        ..options.hierarchical
    };
    let t = median_call(trace, "embed.infer", SLOW, || {
        embed::infer(train, &partition, &config)
    });
    layers.set("embed.infer_ms", t * ms);
    let (fitted, report) = embed::infer(train, &partition, &config);
    layers.set("embed.levels", report.levels.len() as f64);
    layers.set("embed.final_ll", report.final_ll());
    let task = PredictionTask::default();
    let held_out = inputs.world.test();
    let t = median_call(trace, "predict.extract_dataset", MEDIUM, || {
        extract_dataset(&fitted, held_out, &task)
    });
    layers.set("predict.features_ms", t * ms);
    let dataset = extract_dataset(&fitted, held_out, &task);
    let threshold = dataset.top_fraction_threshold(0.2);
    let t = median_call(trace, "predict.threshold_sweep", MEDIUM, || {
        threshold_sweep(&dataset, &[threshold], &task)
    });
    layers.set("predict.svm_cv_ms", t * ms);
    let f1 = threshold_sweep(&dataset, &[threshold], &task)
        .first()
        .map_or(0.0, |p| p.f1);
    layers.set("predict.f1", f1);
    let simulator = Simulator::new(
        inputs.world.graph(),
        inputs.world.ground_truth().clone(),
        SimulationConfig {
            observation_window: 1.0,
            max_cascade_size: None,
            min_cascade_size: 2,
            max_retries: 20,
        },
    );
    let mut sim_seed = 0;
    let t = median_call(trace, "propagation.simulate_corpus_x100", MEDIUM, || {
        sim_seed += 1;
        simulator.simulate_corpus_parallel(100, sim_seed)
    });
    layers.set("propagation.simulate_ms", t * ms);
    let t = median_call(trace, "core.infer_embeddings", SLOW, || {
        gen::fit(train, inputs.topics)
    });
    layers.set("core.infer_ms", t * ms);

    // obs: what being counted costs.
    let t = median_call(trace, "obs.metrics_snapshot", FAST, || {
        obs::metrics().snapshot()
    });
    layers.set("obs.metrics_snapshot_us", t * us);
    let registry = obs::metrics().snapshot();
    let t = median_call(trace, "obs.render_prometheus", FAST, || {
        registry.render_prometheus()
    });
    layers.set("obs.render_prometheus_us", t * us);
    let histogram: Arc<Histogram> =
        obs::MetricsRegistry::new().histogram_exponential("probe", 0.25, 2.0, 12);
    let t = median_call(trace, "obs.histogram_record_x10000", MEDIUM, || {
        for i in 0..10_000u32 {
            histogram.record(f64::from(i % 700));
        }
    });
    layers.set("obs.histogram_record_ns", t * 1e9 / 10_000.0);
    Ok(())
}

/// One request over a raw socket, timed phase by phase.
struct SplitTiming {
    start: Instant,
    connected: Instant,
    sent: Instant,
    first_byte: Instant,
    end: Instant,
}

fn split_request(addr: &SocketAddr, op: &Op) -> std::io::Result<SplitTiming> {
    let timeout = Duration::from_secs(10);
    let start = Instant::now();
    let mut stream = TcpStream::connect_timeout(addr, timeout)?;
    let connected = Instant::now();
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(&wire_bytes(op))?;
    stream.flush()?;
    let sent = Instant::now();
    let mut first = [0u8; 1];
    stream.read_exact(&mut first)?;
    let first_byte = Instant::now();
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest)?;
    let end = Instant::now();
    if !rest.starts_with(b"TTP/1.1 200") {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "probe request was not answered 200",
        ));
    }
    Ok(SplitTiming {
        start,
        connected,
        sent,
        first_byte,
        end,
    })
}

/// Splits `op` against the workload's front door (`front_layer` names
/// what answers there: `serve` or `cluster`) and measures the idle
/// transport floor of `daemon`.
pub fn live_transport(
    front: &SocketAddr,
    front_layer: &str,
    op: &Op,
    daemon: &SocketAddr,
    trace: &mut Trace,
    layers: &mut Layers,
) -> Result<(), String> {
    const CALLS: usize = 100;
    let (mut connect, mut first_byte, mut read) = (Vec::new(), Vec::new(), Vec::new());
    for call in 0..CALLS {
        let t = split_request(front, op).map_err(|e| format!("split probe failed: {e}"))?;
        let id = call as u64;
        let parent = trace.record("bench.request", t.start, t.end, None, id);
        trace.record("bench.connect", t.start, t.connected, Some(parent), id);
        trace.record("bench.send", t.connected, t.sent, Some(parent), id);
        trace.record(
            &format!("{front_layer}.until_first_byte"),
            t.sent,
            t.first_byte,
            Some(parent),
            id,
        );
        trace.record("bench.read", t.first_byte, t.end, Some(parent), id);
        connect.push(t.connected.duration_since(t.start).as_secs_f64());
        first_byte.push(t.first_byte.duration_since(t.sent).as_secs_f64());
        read.push(t.end.duration_since(t.first_byte).as_secs_f64());
    }
    layers.set(
        "bench.connect_us",
        stats::median(&connect).unwrap_or(0.0) * 1e6,
    );
    layers.set(
        "bench.first_byte_us",
        stats::median(&first_byte).unwrap_or(0.0) * 1e6,
    );
    layers.set("bench.read_us", stats::median(&read).unwrap_or(0.0) * 1e6);
    let t = median_call(trace, "serve.transport_floor", CALLS, || {
        client::request(daemon, "GET", "/nope", None).expect("an idle daemon answers")
    });
    layers.set("serve.transport_floor_us", t * 1e6);
    Ok(())
}

/// Routed versus direct, and the replication stream — `cluster_read`.
pub fn live_cluster(
    router: &SocketAddr,
    leader: &ServerHandle,
    follower: &FollowerHandle,
    op: &Op,
    trace: &mut Trace,
    layers: &mut Layers,
) -> Result<(), String> {
    const CALLS: usize = 100;
    let ask = |addr: &SocketAddr| {
        client::request_with_headers(addr, op.method, &op.target, op.body.as_deref(), &[])
            .expect("an idle cluster answers")
    };
    let leader_addr = leader.local_addr();
    let direct = median_call(trace, "serve.direct_shard_request", CALLS, || {
        ask(&leader_addr)
    });
    let routed = median_call(trace, "cluster.routed_request", CALLS, || ask(router));
    layers.set("cluster.shard_rtt_us", direct * 1e6);
    layers.set("cluster.router_overhead_ms", (routed - direct) * 1e3);

    let timeout = Duration::from_secs(5);
    let current = leader.snapshots().version();
    let t = median_call(trace, "replica.poll_snapshot_current", CALLS, || {
        poll_snapshot(&leader_addr, Some(current), timeout).expect("leader answers")
    });
    layers.set("replica.poll_current_us", t * 1e6);
    let t = median_call(trace, "replica.poll_snapshot_fetch", MEDIUM, || {
        poll_snapshot(&leader_addr, None, timeout).expect("leader answers")
    });
    layers.set("replica.fetch_ms", t * 1e3);
    let model = Arc::clone(&leader.snapshots().current().model);
    let status = follower.status();
    let mut stuck = false;
    let t = median_call(trace, "replica.publish_to_applied", 5, || {
        let version = leader.snapshots().publish(Arc::clone(&model));
        let deadline = Instant::now() + Duration::from_secs(5);
        while status.applied_version() < version {
            if Instant::now() > deadline {
                stuck = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    if stuck {
        return Err("a follower never applied a published snapshot".into());
    }
    layers.set("replica.catchup_ms", t * 1e3);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_start_at_zero_and_refuse_unknown_names() {
        let mut layers = Layers::zeroed();
        assert_eq!(layers.in_table_order().count(), metrics::PER_LAYER.len());
        assert!(layers.in_table_order().all(|(_, v)| v == 0.0));
        layers.set("model.rank_us", 12.5);
        assert_eq!(layers.get("model.rank_us"), 12.5);
        assert!(std::panic::catch_unwind(move || layers.set("model.nope", 1.0)).is_err());
    }

    #[test]
    fn median_call_records_one_child_span_per_call() {
        let mut trace = Trace::new(Instant::now());
        let seconds = median_call(&mut trace, "obs.noop", 5, || 1 + 1);
        assert!(seconds >= 0.0);
        assert_eq!(trace.spans().len(), 6);
        assert_eq!(trace.spans()[0].name, "bench.probe");
        assert!(trace.spans()[1..]
            .iter()
            .all(|s| s.name == "obs.noop" && s.parent == Some(0)));
    }
}
