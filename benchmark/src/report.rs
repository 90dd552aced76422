//! What one run produced: the full report file, the human-readable
//! table, and the contract's one-line result.

use std::path::Path;

use viralcast::obs::JsonValue;
use viralcast::serve::json;

use crate::metrics;

/// Schema tag of the report files `suite`/`compare` exchange.
pub const REPORT_SCHEMA: &str = "viralbench-report/v1";

/// The outcome of one `run`.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations that started and completed inside the window.
    pub attempted: u64,
    /// Of those, refused, shed, timed out, non-2xx or wrong.
    pub failed: u64,
    /// Successful primary operations behind the latency quantiles.
    pub samples: u64,
    /// `(name, value)`: the end-to-end metrics of an untraced run, the
    /// per-layer metrics of a traced one.
    pub metrics: Vec<(String, f64)>,
    /// Sizing predictions and other facts worth printing, one per line.
    pub notes: Vec<String>,
    /// Why `correct` is false (empty when it is true).
    pub errors: Vec<String>,
}

impl RunReport {
    /// `failed / attempted`.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    fn metrics_json(&self) -> JsonValue {
        JsonValue::Obj(
            self.metrics
                .iter()
                .map(|(name, value)| {
                    (
                        name.clone(),
                        JsonValue::obj(vec![
                            ("value", JsonValue::from(*value)),
                            (
                                "unit",
                                JsonValue::from(metrics::unit_of(name).unwrap_or("1")),
                            ),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The last line of standard output, exactly as the contract spells
    /// it: `correct`, `attempted`, `failed`, `metrics` and nothing else.
    pub fn contract_line(&self) -> String {
        JsonValue::obj(vec![
            ("correct", JsonValue::Bool(self.correct)),
            ("attempted", JsonValue::from(self.attempted)),
            ("failed", JsonValue::from(self.failed)),
            ("metrics", self.metrics_json()),
        ])
        .render()
    }

    /// The report file: the contract's fields plus provenance.
    pub fn to_json(&self, env: JsonValue) -> JsonValue {
        let strings = |items: &[String]| {
            JsonValue::Arr(items.iter().map(|s| JsonValue::from(s.as_str())).collect())
        };
        JsonValue::obj(vec![
            ("schema", JsonValue::from(REPORT_SCHEMA)),
            ("workload", JsonValue::from(self.workload.as_str())),
            ("seed", JsonValue::from(self.seed)),
            ("seconds", JsonValue::from(self.seconds)),
            ("traced", JsonValue::Bool(self.traced)),
            ("env", env),
            ("correct", JsonValue::Bool(self.correct)),
            ("attempted", JsonValue::from(self.attempted)),
            ("failed", JsonValue::from(self.failed)),
            ("failed_share", JsonValue::from(self.failed_share())),
            ("samples", JsonValue::from(self.samples)),
            ("metrics", self.metrics_json()),
            ("notes", strings(&self.notes)),
            ("errors", strings(&self.errors)),
        ])
    }

    /// Reads a report file back (the `env` block is dropped).
    pub fn from_json(doc: &JsonValue) -> Result<RunReport, String> {
        let field = |key: &str| json::get(doc, key).ok_or_else(|| format!("report lacks `{key}`"));
        if field("schema")? != &JsonValue::from(REPORT_SCHEMA) {
            return Err(format!("not a {REPORT_SCHEMA} document"));
        }
        let text = |key: &str| match field(key)? {
            JsonValue::Str(s) => Ok(s.clone()),
            _ => Err(format!("`{key}` is not a string")),
        };
        let number =
            |key: &str| json::as_u64(field(key)?).ok_or_else(|| format!("`{key}` is not a count"));
        let flag = |key: &str| match field(key)? {
            JsonValue::Bool(b) => Ok(*b),
            _ => Err(format!("`{key}` is not a boolean")),
        };
        let strings = |key: &str| -> Result<Vec<String>, String> {
            json::as_arr(field(key)?)
                .ok_or_else(|| format!("`{key}` is not an array"))?
                .iter()
                .map(|v| match v {
                    JsonValue::Str(s) => Ok(s.clone()),
                    _ => Err(format!("`{key}` holds a non-string")),
                })
                .collect()
        };
        let JsonValue::Obj(pairs) = field("metrics")? else {
            return Err("`metrics` is not an object".into());
        };
        let metrics = pairs
            .iter()
            .map(|(name, entry)| {
                json::get(entry, "value")
                    .and_then(json::as_f64)
                    .map(|v| (name.clone(), v))
                    .ok_or_else(|| format!("metric `{name}` has no numeric value"))
            })
            .collect::<Result<_, _>>()?;
        Ok(RunReport {
            workload: text("workload")?,
            seed: number("seed")?,
            seconds: number("seconds")?,
            traced: flag("traced")?,
            correct: flag("correct")?,
            attempted: number("attempted")?,
            failed: number("failed")?,
            samples: number("samples")?,
            metrics,
            notes: strings("notes")?,
            errors: strings("errors")?,
        })
    }

    /// Writes the report file (pretty-printed).
    pub fn save(&self, path: &Path, env: JsonValue) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json(env).render_pretty())
    }

    /// Reads one report file.
    pub fn load(path: &Path) -> Result<RunReport, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        RunReport::from_json(&doc).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Every metric by name and unit, then the counts and notes.
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} seed {} · {} s window · {} ==",
            self.workload,
            self.seed,
            self.seconds,
            if self.traced {
                "traced (per-layer)"
            } else {
                "end-to-end"
            }
        );
        for (name, value) in &self.metrics {
            let unit = metrics::unit_of(name).unwrap_or("");
            let _ = writeln!(out, "  {name:<32} {value:>16.4} {unit}");
        }
        let _ = writeln!(
            out,
            "  attempted {}  failed {}  failed_share {:.6}  samples {}  correct {}",
            self.attempted,
            self.failed,
            self.failed_share(),
            self.samples,
            self.correct
        );
        for note in &self.notes {
            let _ = writeln!(out, "  · {note}");
        }
        for error in &self.errors {
            let _ = writeln!(out, "  ✗ {error}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        RunReport {
            workload: "read_scan".into(),
            seed: 7,
            seconds: 20,
            traced: false,
            correct: true,
            attempted: 1234,
            failed: 0,
            samples: 1234,
            metrics: vec![
                ("setup_s".into(), 1.2345678),
                ("throughput_rps".into(), 61.7),
                ("latency_p50_ms".into(), 31.25),
                ("cpu_ms_per_op".into(), 29.5),
                ("peak_rss_mb".into(), 48.0),
            ],
            notes: vec!["model.rank_us is 71% of latency_p50_ms".into()],
            errors: vec![],
        }
    }

    #[test]
    fn the_contract_line_has_exactly_the_four_keys() {
        let line = report().contract_line();
        assert!(!line.contains('\n'));
        let JsonValue::Obj(pairs) = json::parse(&line).unwrap() else {
            panic!("the line is an object");
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(pairs[1].1, JsonValue::U64(1234));
        let JsonValue::Obj(metrics) = &pairs[3].1 else {
            panic!("metrics is an object");
        };
        assert_eq!(metrics.len(), 5);
        for (name, entry) in metrics {
            let JsonValue::Obj(fields) = entry else {
                panic!("{name} is an object");
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["value", "unit"], "{name}");
        }
        assert_eq!(
            json::get(json::get(&pairs[3].1, "setup_s").unwrap(), "unit"),
            Some(&JsonValue::from("s"))
        );
    }

    #[test]
    fn report_files_round_trip() {
        let original = report();
        let text = original
            .to_json(JsonValue::obj(vec![("nproc", JsonValue::from(2u64))]))
            .render_pretty();
        let back = RunReport::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, original);
        assert!(text.contains("\"failed_share\""));
        assert!(RunReport::from_json(&json::parse("{\"schema\":\"other\"}").unwrap()).is_err());
    }

    #[test]
    fn the_table_names_every_metric_with_its_unit() {
        let table = report().table();
        for m in &metrics::END_TO_END {
            assert!(table.contains(m.name), "{}", m.name);
        }
        assert!(table.contains("1/s") && table.contains("MiB"));
        assert!(table.contains("failed_share 0.000000"));
    }
}
