//! Integration tests of the `viralcast` command-line binary: the full
//! simulate → infer → predict → influencers loop through files and
//! process boundaries.

use std::path::PathBuf;
use std::process::Command;
use viralcast::obs::json::{as_arr, as_u64, get, parse};
use viralcast::obs::JsonValue;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_viralcast"))
}

/// The string under `key` of a run-report object.
fn text_of<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    match get(v, key) {
        Some(JsonValue::Str(s)) => s,
        other => panic!("{key} is {other:?}"),
    }
}

/// The child spans of a timing-tree node.
fn children(span: &JsonValue) -> &[JsonValue] {
    as_arr(get(span, "children").unwrap()).unwrap()
}

fn child_names(span: &JsonValue) -> Vec<&str> {
    children(span).iter().map(|c| text_of(c, "name")).collect()
}

fn child<'a>(span: &'a JsonValue, name: &str) -> &'a JsonValue {
    children(span)
        .iter()
        .find(|c| text_of(c, "name") == name)
        .unwrap_or_else(|| panic!("no span {name:?} among {:?}", child_names(span)))
}

fn temp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("viralcast-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn full_cli_round_trip() {
    let corpus = temp("corpus.jsonl");
    let embeddings = temp("embeddings.json");

    let out = bin()
        .args([
            "simulate-sbm",
            "--nodes",
            "150",
            "--cascades",
            "80",
            "--local",
        ])
        .args(["--seed", "5", "--out", corpus.to_str().unwrap()])
        .output()
        .expect("simulate-sbm runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(corpus.exists());

    let out = bin()
        .args(["infer", "--corpus", corpus.to_str().unwrap()])
        .args(["--topics", "4", "--out", embeddings.to_str().unwrap()])
        .output()
        .expect("infer runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("communities"),
        "unexpected output: {stdout}"
    );

    let out = bin()
        .args(["predict", "--corpus", corpus.to_str().unwrap()])
        .args(["--embeddings", embeddings.to_str().unwrap()])
        .output()
        .expect("predict runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("F1"), "missing F1 table: {stdout}");

    let out = bin()
        .args(["influencers", "--embeddings", embeddings.to_str().unwrap()])
        .args(["--top", "5"])
        .output()
        .expect("influencers runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Header plus five ranked rows.
    assert_eq!(stdout.lines().count(), 6, "output: {stdout}");

    std::fs::remove_file(&corpus).ok();
    std::fs::remove_file(&embeddings).ok();
}

#[test]
fn gdelt_csv_export() {
    let mentions = temp("mentions.csv");
    let out = bin()
        .args(["simulate-gdelt", "--sites", "300", "--events", "50"])
        .args(["--seed", "2", "--out", mentions.to_str().unwrap()])
        .output()
        .expect("simulate-gdelt runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&mentions).unwrap();
    assert!(text.starts_with("site,event,hour"));
    assert!(text.lines().count() > 50);
    std::fs::remove_file(&mentions).ok();
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("USAGE"), "stderr: {stderr}");
}

#[test]
fn infer_writes_run_report_and_trace() {
    let corpus = temp("obs-corpus.jsonl");
    let embeddings = temp("obs-emb.json");
    let metrics = temp("obs-run.json");
    let trace = temp("obs-trace.jsonl");

    let out = bin()
        .args([
            "simulate-sbm",
            "--nodes",
            "120",
            "--cascades",
            "60",
            "--local",
        ])
        .args(["--seed", "7", "--out", corpus.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = bin()
        .args(["infer", "--corpus", corpus.to_str().unwrap()])
        .args(["--topics", "4", "--out", embeddings.to_str().unwrap()])
        .args(["--metrics-out", metrics.to_str().unwrap()])
        .args(["--trace", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The run report is valid JSON with the nested stage-timing tree.
    let text = std::fs::read_to_string(&metrics).unwrap();
    let report = parse(&text).unwrap();
    assert_eq!(text_of(&report, "schema"), "viralcast-run-report/v1");
    assert_eq!(text_of(&report, "command"), "infer");
    let timings = get(&report, "timings").unwrap();
    assert_eq!(text_of(timings, "name"), "viralcast");
    let infer = child(timings, "infer");
    let stages = child_names(infer);
    for stage in ["cooccurrence", "slpa", "hierarchical"] {
        assert!(stages.contains(&stage), "stages: {stages:?}");
    }
    let level0 = &children(child(infer, "hierarchical"))[0];
    assert!(text_of(level0, "name").starts_with("level."));
    let phases = child_names(level0);
    for phase in ["split", "optimize"] {
        assert!(phases.contains(&phase), "phases: {phases:?}");
    }

    // Metric counters and the per-epoch objective trajectory made it in.
    let counters = get(get(&report, "metrics").unwrap(), "counters").unwrap();
    let epochs = as_u64(get(counters, "pgd.epochs").unwrap()).unwrap();
    assert!(epochs > 0);
    // Every epoch sweeps its whole group: more infections than epochs.
    assert!(as_u64(get(counters, "pgd.infections_swept").unwrap()).unwrap() > epochs);
    let levels = as_arr(get(&report, "levels").unwrap()).unwrap();
    assert!(!levels.is_empty());
    let trajectory = as_arr(get(&levels[0], "ll_trajectory").unwrap()).unwrap();
    assert!(!trajectory.is_empty(), "empty objective trajectory");

    // Every trace line is a standalone JSON event.
    let trace_text = std::fs::read_to_string(&trace).unwrap();
    assert!(trace_text.lines().count() > 0);
    for line in trace_text.lines() {
        let event = parse(line).unwrap();
        for key in ["stage", "level"] {
            assert!(
                matches!(get(&event, key), Some(JsonValue::Str(_))),
                "bad event: {line}"
            );
        }
    }

    for p in [corpus, embeddings, metrics, trace] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn predict_rejects_mismatched_universes() {
    let corpus = temp("mismatch-corpus.jsonl");
    let embeddings = temp("mismatch-emb.json");
    bin()
        .args([
            "simulate-sbm",
            "--nodes",
            "150",
            "--cascades",
            "30",
            "--local",
        ])
        .args(["--seed", "1", "--out", corpus.to_str().unwrap()])
        .output()
        .unwrap();
    // Embeddings over a smaller universe.
    let small = temp("small-corpus.jsonl");
    bin()
        .args([
            "simulate-sbm",
            "--nodes",
            "50",
            "--cascades",
            "30",
            "--local",
        ])
        .args(["--seed", "1", "--out", small.to_str().unwrap()])
        .output()
        .unwrap();
    bin()
        .args(["infer", "--corpus", small.to_str().unwrap()])
        .args(["--topics", "2", "--out", embeddings.to_str().unwrap()])
        .output()
        .unwrap();
    let out = bin()
        .args(["predict", "--corpus", corpus.to_str().unwrap()])
        .args(["--embeddings", embeddings.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("nodes"), "stderr: {stderr}");
    for p in [corpus, embeddings, small] {
        std::fs::remove_file(p).ok();
    }
}

/// Every CLI usage rule, one row each: the command line breaks exactly
/// one rule and must exit 2 with an `error:` line naming the flag (or
/// quoting the rule's message) and the usage text after it. File
/// arguments name paths that do not exist, so a rule checked only after
/// a file is read would fail the row with a runtime error (exit 1)
/// instead; the router rows get a real manifest because the router
/// needs one before its flags mean anything, and so does the follower
/// row whose manifest plans two followers for its shard.
#[test]
fn every_usage_rule_exits_2_naming_its_flag() {
    let manifest = temp("usage-rules-manifest.json");
    viralcast::cluster::ClusterManifest::round_robin(&["127.0.0.1:9".parse().unwrap()])
        .unwrap()
        .save(&manifest)
        .unwrap();
    let manifest = manifest.to_str().unwrap();
    let two_followers = temp("usage-rules-two-followers.json");
    viralcast::cluster::ClusterManifest::round_robin(&["127.0.0.1:9".parse().unwrap()])
        .unwrap()
        .with_followers(vec![vec![
            "127.0.0.1:10".parse().unwrap(),
            "127.0.0.1:11".parse().unwrap(),
        ]])
        .unwrap()
        .save(&two_followers)
        .unwrap();
    let two_followers = two_followers.to_str().unwrap();
    let absent = "absent-input-file";
    let follow = ["serve", "--follow", "127.0.0.1:9"];

    let chaos = ["chaos", "--embeddings", absent, "--data-dir", absent];

    let mut rows: Vec<(Vec<&str>, &str)> = vec![
        // The flag parser, shared by every command.
        (vec!["infer"], "--corpus"),
        (
            vec!["infer", "--corpus", absent, "--frobnicate", "3"],
            "--frobnicate",
        ),
        (
            vec!["simulate-sbm", "--out", absent, "--nodes", "many"],
            "malformed value \"many\" for --nodes",
        ),
        (vec!["simulate-sbm", "--seed", "--out", absent], "--seed"),
        (
            vec!["infer", "--corpus", absent, "stray"],
            "unexpected argument \"stray\"",
        ),
        (
            vec![
                "simulate-sbm",
                "--seed",
                "1",
                "--seed",
                "2",
                "--out",
                absent,
            ],
            "--seed",
        ),
        (
            vec!["influencers", "--embeddings", absent, "--log-level", "loud"],
            "--log-level",
        ),
        // Command rules.
        (
            vec!["infer", "--corpus", absent, "--out", absent, "--seed", "3"],
            "--seed",
        ),
        (vec!["serve", "--backend", "bogus"], "--backend"),
        (vec!["chaos", "--backend", "bogus"], "--backend"),
        (
            vec!["serve", "--embeddings", absent, "--corpus", absent],
            "--corpus",
        ),
        (
            vec!["chaos", "--embeddings", absent, "--corpus", absent],
            "--corpus",
        ),
        (
            vec![
                "serve",
                "--backend",
                "netinf",
                "--corpus",
                absent,
                "--embeddings",
                absent,
            ],
            "--embeddings",
        ),
        (
            vec![
                "chaos",
                "--backend",
                "netinf",
                "--corpus",
                absent,
                "--embeddings",
                absent,
            ],
            "--embeddings",
        ),
        (vec!["serve", "--backend", "netinf"], "--corpus"),
        (vec!["chaos", "--backend", "netinf"], "--corpus"),
        (vec!["serve", "--poll-interval", "1"], "--poll-interval"),
        (
            vec!["serve", "--embeddings", absent, "--fsync", "always"],
            "--fsync",
        ),
        (
            vec!["serve", "--embeddings", absent, "--shard", "0/2"],
            "--shard",
        ),
        (
            vec![
                "serve",
                "--embeddings",
                absent,
                "--shard",
                "2/2",
                "--cluster-manifest",
                manifest,
            ],
            "--shard",
        ),
        (
            vec!["serve", "--embeddings", absent, "--segment-bytes", "0"],
            "--segment-bytes",
        ),
        (vec!["serve", "--follow", "nowhere"], "--follow"),
        // A shard follower binds the manifest's one planned follower
        // address; with two planned, --addr must pick.
        (
            vec![
                "serve",
                "--follow",
                "127.0.0.1:9",
                "--shard",
                "0/1",
                "--cluster-manifest",
                two_followers,
            ],
            "--addr",
        ),
        (
            vec!["router", "--cluster-manifest", manifest, "--workers", "0"],
            "--workers",
        ),
        (vec!["cluster-plan", "--out", absent], "--shards"),
        (
            vec!["cluster-plan", "--out", absent, "--shards", "nowhere"],
            "--shards",
        ),
        (
            vec![
                "cluster-plan",
                "--out",
                absent,
                "--shards",
                "127.0.0.1:9",
                "--backend",
                "bogus",
            ],
            "--backend",
        ),
        (
            vec![
                "cluster-plan",
                "--out",
                absent,
                "--shards",
                "127.0.0.1:9",
                "--followers",
                "nowhere",
            ],
            "--followers",
        ),
        // Round-robin is the only placement: no corpus, no SLPA topics.
        (
            vec![
                "cluster-plan",
                "--out",
                absent,
                "--shards",
                "127.0.0.1:9",
                "--corpus",
                absent,
            ],
            "--corpus",
        ),
        (
            vec![
                "cluster-plan",
                "--out",
                absent,
                "--shards",
                "127.0.0.1:9",
                "--topics",
                "8",
            ],
            "--topics",
        ),
    ];
    // `chaos` has one kill loop, the single-box one: `--cluster` and
    // `--followers` are unknown flags.
    for (flag, value) in [
        ("--cycles", "0"),
        ("--workers", "0"),
        ("--cluster", "2"),
        ("--followers", "1"),
    ] {
        let mut args = chaos.to_vec();
        args.extend([flag, value]);
        rows.push((args, flag));
    }
    rows.push((
        vec!["serve", "--embeddings", absent, "--workers", "0"],
        "--workers",
    ));
    let mut args = follow.to_vec();
    args.extend(["--workers", "0"]);
    rows.push((args, "--workers"));
    for value in ["0", "-1"] {
        rows.push((
            vec!["serve", "--embeddings", absent, "--retrain-interval", value],
            "--retrain-interval",
        ));
        let mut poll = follow.to_vec();
        poll.extend(["--poll-interval", value]);
        rows.push((poll, "--poll-interval"));
        for flag in ["--probe-interval", "--shard-timeout"] {
            rows.push((
                vec!["router", "--cluster-manifest", manifest, flag, value],
                flag,
            ));
        }
        for flag in ["--steady", "--recovery-timeout"] {
            let mut args = chaos.to_vec();
            args.extend([flag, value]);
            rows.push((args, flag));
        }
    }
    for (flag, value) in [
        ("--embeddings", absent),
        ("--corpus", absent),
        ("--backend", "embed"),
        ("--data-dir", absent),
        ("--fsync", "always"),
        ("--segment-bytes", "4096"),
        ("--retrain-interval", "1"),
        ("--min-retrain-batch", "1"),
    ] {
        let mut args = follow.to_vec();
        args.extend([flag, value]);
        rows.push((args, flag));
    }

    for (args, flag) in rows {
        let out = bin().args(&args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let first = stderr.lines().next().unwrap_or("");
        assert!(
            first.starts_with("error:") && first.contains(flag),
            "{args:?}: the error line does not name {flag}: {first}"
        );
        assert!(
            stderr.contains("USAGE"),
            "{args:?}: no usage text: {stderr}"
        );
    }
}
