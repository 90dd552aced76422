//! Reads every JSON document the obs crate emits back through its own
//! strict parser, proving the hand-rolled writer produces strict JSON
//! and that the expected span/metric names survive serialisation.

use std::path::PathBuf;
use viralcast_obs as obs;
use viralcast_obs::json::{as_arr, as_f64, get, parse};
use viralcast_obs::JsonValue;

/// The value at `path` (object keys, outermost first).
fn at<'a>(value: &'a JsonValue, path: &[&str]) -> &'a JsonValue {
    path.iter().fold(value, |v, key| {
        get(v, key).unwrap_or_else(|| panic!("no key {key:?} along {path:?}"))
    })
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("viralcast-obs-roundtrip")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn jsonl_event_log_parses_back() {
    let dir = temp_dir("jsonl");
    let path = dir.join("trace.jsonl");

    // A private logger would be ideal, but the global one is what the
    // pipeline uses; exercise the same path with a dedicated file sink.
    let logger = {
        // Logger::new is private; go through the sink directly.
        obs::JsonlSink::create(&path).unwrap()
    };
    use obs::Sink as _;
    for (stage, msg, n) in [("slpa", "converged", 14u64), ("pgd", "epoch", 3)] {
        logger.emit(&obs::Event {
            level: obs::Level::Info,
            stage,
            message: msg,
            fields: &[
                ("n", n.into()),
                ("weird", "quote\" and \\ backslash".into()),
            ],
            elapsed_secs: 0.125,
        });
    }
    logger.flush();

    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2);
    let stages: Vec<String> = lines
        .iter()
        .map(|line| {
            let v = parse(line).expect("line must be strict JSON");
            assert_eq!(at(&v, &["level"]), &JsonValue::from("info"));
            assert_eq!(
                at(&v, &["fields", "weird"]),
                &JsonValue::from("quote\" and \\ backslash")
            );
            match at(&v, &["stage"]) {
                JsonValue::Str(stage) => stage.clone(),
                other => panic!("stage is {other:?}"),
            }
        })
        .collect();
    assert_eq!(stages, vec!["slpa", "pgd"]);
}

#[test]
fn metrics_snapshot_parses_back() {
    let registry = obs::MetricsRegistry::new();
    registry.counter("slpa.iterations").incr(14);
    registry.gauge("pgd.objective").set(-1234.5);
    let h = registry.histogram("split.fanout", &[2.0, 8.0]);
    for v in [1.0, 4.0, 100.0] {
        h.record(v);
    }

    let json = registry.snapshot().to_json().render();
    let v = parse(&json).expect("snapshot must be strict JSON");
    assert_eq!(
        at(&v, &["counters", "slpa.iterations"]),
        &JsonValue::U64(14)
    );
    assert_eq!(
        at(&v, &["gauges", "pgd.objective"]),
        &JsonValue::F64(-1234.5)
    );
    let fanout = at(&v, &["histograms", "split.fanout"]);
    assert_eq!(at(fanout, &["count"]), &JsonValue::U64(3));
    assert_eq!(at(fanout, &["buckets"]), &JsonValue::from(vec![1u64, 1, 1]));
}

#[test]
fn run_report_file_parses_back_with_expected_span_names() {
    let dir = temp_dir("report");
    let path = dir.join("run.json");

    // Build a timing tree shaped like a real `viralcast infer` run.
    let recorder = obs::Recorder::new("viralcast");
    {
        let _g = recorder.install();
        {
            let _infer = obs::Span::enter("infer");
            let _c = obs::Span::enter("cooccurrence");
        }
        {
            let _infer = obs::Span::enter("infer");
            let _s = obs::Span::enter("slpa");
        }
    }
    let registry = obs::MetricsRegistry::new();
    registry.counter("pgd.epochs").incr(40);

    obs::RunReport::new(recorder.finish(), registry.snapshot())
        .attr("command", "infer")
        .attr("ll_trajectory", vec![-10.0, -5.0, -2.5])
        .attr("nan_guard", f64::NAN) // must serialise as null, not NaN
        .save(&path)
        .unwrap();

    let text = std::fs::read_to_string(&path).unwrap();
    let v = parse(&text).expect("report must be strict JSON");
    assert_eq!(
        at(&v, &["schema"]),
        &JsonValue::from("viralcast-run-report/v1")
    );
    assert_eq!(at(&v, &["command"]), &JsonValue::from("infer"));
    let trajectory: Vec<f64> = as_arr(at(&v, &["ll_trajectory"]))
        .unwrap()
        .iter()
        .map(|x| as_f64(x).unwrap())
        .collect();
    assert_eq!(trajectory, vec![-10.0, -5.0, -2.5]);
    assert_eq!(at(&v, &["nan_guard"]), &JsonValue::Null);
    assert_eq!(
        at(&v, &["metrics", "counters", "pgd.epochs"]),
        &JsonValue::U64(40)
    );

    // Expected span names present in the nested tree.
    assert_eq!(at(&v, &["timings", "name"]), &JsonValue::from("viralcast"));
    let infer = &as_arr(at(&v, &["timings", "children"])).unwrap()[0];
    assert_eq!(at(infer, &["name"]), &JsonValue::from("infer"));
    assert_eq!(
        at(infer, &["count"]),
        &JsonValue::U64(2),
        "repeated spans must aggregate"
    );
    let child_names: Vec<&JsonValue> = as_arr(at(infer, &["children"]))
        .unwrap()
        .iter()
        .map(|c| at(c, &["name"]))
        .collect();
    assert_eq!(
        child_names,
        vec![&JsonValue::from("cooccurrence"), &JsonValue::from("slpa")]
    );
}
