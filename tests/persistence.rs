//! Round-trip persistence across the public API: cascade corpora
//! (JSON-lines) and GDELT mention tables (CSV) survive disk — and a
//! hostile corpus file is a typed error naming the line, never a panic
//! at load or at the first `seed()` on what was loaded.

use rand::rngs::StdRng;
use rand::SeedableRng;
use viralnews::viralcast::prelude::*;
use viralnews::viralcast::propagation::store::{self, StoreError};

fn temp_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("viralcast-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn cascade_corpus_round_trips_through_disk() {
    let experiment = SbmExperiment::build(
        &SbmExperimentConfig {
            sbm: SbmConfig {
                nodes: 100,
                community_size: 20,
                intra_prob: 0.3,
                inter_prob: 0.002,
            },
            cascades: 40,
            ..SbmExperimentConfig::default()
        },
        1,
    );
    let path = temp_dir().join("corpus.jsonl");
    store::save(experiment.train(), &path).unwrap();
    let loaded = store::load(&path).unwrap();
    assert_eq!(loaded.node_count(), experiment.train().node_count());
    assert_eq!(loaded.cascades(), experiment.train().cascades());
    std::fs::remove_file(&path).ok();
}

#[test]
fn mention_table_round_trips_through_csv() {
    let mut rng = StdRng::seed_from_u64(2);
    let world = GdeltWorld::generate(
        GdeltConfig {
            sites: 300,
            ..GdeltConfig::default()
        },
        &mut rng,
    );
    let table = world.simulate_events(50, &mut rng);
    let path = temp_dir().join("mentions.csv");
    table.save_csv(&path).unwrap();
    let loaded = MentionTable::load_csv(&path).unwrap();
    assert_eq!(loaded.mentions().len(), table.mentions().len());
    // Aggregations agree.
    assert_eq!(loaded.reports_per_event(), table.reports_per_event());
    std::fs::remove_file(&path).ok();
}

#[test]
fn loaded_corpus_supports_inference() {
    // Persistence must not break downstream processing.
    let experiment = SbmExperiment::build(
        &SbmExperimentConfig {
            sbm: SbmConfig {
                nodes: 100,
                community_size: 20,
                intra_prob: 0.3,
                inter_prob: 0.002,
            },
            cascades: 80,
            ..SbmExperimentConfig::default()
        },
        3,
    );
    let path = temp_dir().join("corpus2.jsonl");
    store::save(experiment.train(), &path).unwrap();
    let loaded = store::load(&path).unwrap();

    let direct = infer_embeddings(experiment.train(), &InferOptions::default());
    let via_disk = infer_embeddings(&loaded, &InferOptions::default());
    assert_eq!(direct.embeddings, via_disk.embeddings);
    std::fs::remove_file(&path).ok();
}

#[test]
fn embeddings_serialize_through_json() {
    let mut rng = StdRng::seed_from_u64(4);
    let emb = Embeddings::random(50, 4, 0.05, 0.5, &mut rng);
    let json = serde_json::to_string(&emb).unwrap();
    let back: Embeddings = serde_json::from_str(&json).unwrap();
    assert!(emb.max_abs_diff(&back) < 1e-12);
}

/// Writes `bytes` as a corpus file of its own and loads it back.
fn load_bytes(name: &str, bytes: &[u8]) -> Result<CascadeSet, StoreError> {
    let path = temp_dir().join(name);
    std::fs::write(&path, bytes).unwrap();
    let loaded = store::load(&path);
    std::fs::remove_file(&path).ok();
    loaded
}

/// A header declaring `nodes`/`count`, then `body`, loaded back.
fn load_text(name: &str, nodes: usize, count: &str, body: &str) -> Result<CascadeSet, StoreError> {
    let header = format!(
        r#"{{"format":"viralcast-cascades-v1","node_count":{nodes},"cascade_count":{count}}}"#
    );
    load_bytes(name, format!("{header}\n{body}").as_bytes())
}

const OK_LINE: &str = r#"{"infections":[{"node":0,"time":0.0}]}"#;

#[test]
fn invalid_cascade_lines_are_typed_errors_naming_the_line() {
    let table = [
        ("empty", ""),
        (
            "duplicate node",
            r#"{"node":1,"time":5.0},{"node":1,"time":6.0}"#,
        ),
        (
            "negative time",
            r#"{"node":1,"time":5.0},{"node":2,"time":-1.0}"#,
        ),
        ("NaN written as null", r#"{"node":1,"time":null}"#),
        ("node outside the universe", r#"{"node":3,"time":1.0}"#),
    ];
    for (case, infections) in table {
        let body = format!("{OK_LINE}\n{{\"infections\":[{infections}]}}\n");
        match load_text("table.jsonl", 3, "2", &body) {
            Err(StoreError::Format(message)) => {
                assert!(message.starts_with("line 3: "), "{case}: {message}")
            }
            other => panic!("{case}: expected a format error, got {other:?}"),
        }
    }
}

#[test]
fn a_declared_count_no_allocation_could_hold_is_a_count_mismatch() {
    let loaded = load_text("huge-count.jsonl", 3, "18446744073709551615", OK_LINE);
    assert!(matches!(loaded, Err(StoreError::Format(_))), "{loaded:?}");
}

#[test]
fn an_unsorted_line_loads_in_time_order() {
    let line = r#"{"infections":[{"node":1,"time":5.0},{"node":2,"time":1.0}]}"#;
    let set = load_text("unsorted.jsonl", 3, "1", line).unwrap();
    assert_eq!(set.cascades()[0].seed(), Infection::new(2u32, 1.0));
}

/// The every-cut idiom of `crates/store/tests/codec_props.rs`: a valid
/// file cut at every byte, and with every byte flipped once, loads or
/// fails with a typed error — it never panics.
#[test]
fn every_cut_and_every_flip_of_a_corpus_file_never_panics() {
    let chain = |nodes: &[(u32, f64)]| {
        Cascade::new(nodes.iter().map(|&(n, t)| Infection::new(n, t)).collect()).unwrap()
    };
    let original = CascadeSet::new(3, vec![chain(&[(0, 0.0), (1, 1.5)]), chain(&[(2, 0.25)])]);
    let path = temp_dir().join("valid.jsonl");
    store::save(&original, &path).unwrap();
    let valid = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();

    for cut in 0..valid.len() {
        if let Ok(set) = load_bytes("cut.jsonl", &valid[..cut]) {
            // Only losing the final newline leaves a whole corpus.
            assert_eq!(set.cascades(), original.cascades(), "cut {cut}");
        }
    }
    // 0xff leaves UTF-8; the single-bit masks keep the text ASCII, so a
    // digit becomes another digit or punctuation and the JSON layer and
    // the cascade invariants are what refuse it.
    for mask in [0x01u8, 0x04, 0x10, 0xff] {
        for at in 0..valid.len() {
            let mut flipped = valid.clone();
            flipped[at] ^= mask;
            for c in load_bytes("flip.jsonl", &flipped)
                .iter()
                .flat_map(CascadeSet::cascades)
            {
                let revalidated = Cascade::new(c.infections().to_vec());
                assert_eq!(revalidated.as_ref(), Ok(c), "flip {at} ^ {mask:#x}");
            }
        }
    }
}
