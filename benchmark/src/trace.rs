//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Nothing inside the crates is instrumented (that is a later issue);
//! a span here is "the benchmark called into layer L from t0 to t1",
//! optionally nested under the span that caused it. Spans stay in
//! memory and are written to `out/<workload>.trace.json` when the run
//! ends, together with each layer's *self time*: a span's duration minus
//! the part of it its child spans cover.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use viralcast::obs::JsonValue;

/// Index of a span within its [`Trace`].
pub type SpanId = usize;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<operation>`; the layer is the crate name.
    pub name: String,
    /// Nanoseconds since the trace's origin.
    pub start_ns: u64,
    /// Nanoseconds since the trace's origin.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Shared by every span of one request or job.
    pub request_id: u64,
}

impl Span {
    /// The layer (crate) a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// An in-memory span log.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Trace {
        Trace {
            origin,
            spans: Vec::new(),
        }
    }

    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span that already happened.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request_id: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.offset(start),
            end_ns: self.offset(end),
            parent,
            request_id,
        });
        self.spans.len() - 1
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals (clipped to the span).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent];
                let start = span.start_ns.clamp(p.start_ns, p.end_ns);
                let end = span.end_ns.clamp(p.start_ns, p.end_ns);
                if end > start {
                    children[parent].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, intervals)| {
                intervals.sort_unstable();
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                for &(start, end) in intervals.iter() {
                    if end > reach {
                        covered += end - start.max(reach);
                        reach = end;
                    }
                }
                (span.end_ns - span.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Self time summed per layer, milliseconds.
    pub fn self_ms_by_layer(&self) -> BTreeMap<String, f64> {
        self.by_layer(&self.self_times_ns())
    }

    fn by_layer(&self, self_times_ns: &[u64]) -> BTreeMap<String, f64> {
        let mut by_layer = BTreeMap::new();
        for (span, &self_ns) in self.spans.iter().zip(self_times_ns) {
            *by_layer.entry(span.layer().to_string()).or_insert(0.0) += self_ns as f64 / 1e6;
        }
        by_layer
    }

    /// Count, total and self time per span name.
    fn by_name(&self, self_times_ns: &[u64]) -> JsonValue {
        let mut rows: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (span, &self_ns) in self.spans.iter().zip(self_times_ns) {
            let row = rows.entry(&span.name).or_default();
            row.0 += 1;
            row.1 += span.end_ns - span.start_ns;
            row.2 += self_ns;
        }
        JsonValue::Obj(
            rows.into_iter()
                .map(|(name, (count, total, own))| {
                    (
                        name.to_string(),
                        JsonValue::obj(vec![
                            ("count", JsonValue::from(count)),
                            ("total_ms", JsonValue::from(total as f64 / 1e6)),
                            ("self_ms", JsonValue::from(own as f64 / 1e6)),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The trace file's contents.
    pub fn to_json(&self, workload: &str, seed: u64) -> JsonValue {
        let self_times_ns = self.self_times_ns();
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, span)| {
                JsonValue::obj(vec![
                    ("id", JsonValue::from(id)),
                    ("name", JsonValue::from(span.name.as_str())),
                    ("start_ns", JsonValue::from(span.start_ns)),
                    ("end_ns", JsonValue::from(span.end_ns)),
                    (
                        "parent",
                        span.parent.map_or(JsonValue::Null, JsonValue::from),
                    ),
                    ("request_id", JsonValue::from(span.request_id)),
                ])
            })
            .collect();
        JsonValue::obj(vec![
            ("schema", JsonValue::from("viralbench-trace/v1")),
            ("workload", JsonValue::from(workload)),
            ("seed", JsonValue::from(seed)),
            ("span_count", JsonValue::from(self.spans.len())),
            (
                "self_ms_by_layer",
                JsonValue::Obj(
                    self.by_layer(&self_times_ns)
                        .into_iter()
                        .map(|(layer, ms)| (layer, JsonValue::from(ms)))
                        .collect(),
                ),
            ),
            ("by_name", self.by_name(&self_times_ns)),
            ("spans", JsonValue::Arr(spans)),
        ])
    }

    /// Writes the trace file (compact JSON; load-loop traces hold tens
    /// of thousands of spans).
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json(workload, seed).render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let origin = Instant::now();
        let at = |ms: u64| origin + Duration::from_millis(ms);
        let mut trace = Trace::new(origin);
        let job = trace.record("bench.job", at(0), at(100), None, 7);
        trace.record("core.infer", at(10), at(60), Some(job), 7);
        // Overlaps the first child and runs past the parent's end.
        let sweep = trace.record("predict.sweep", at(50), at(120), Some(job), 7);
        trace.record("predict.cv", at(70), at(80), Some(sweep), 7);
        let own: Vec<u64> = trace
            .self_times_ns()
            .iter()
            .map(|ns| ns / 1_000_000)
            .collect();
        // job: 100 − |[10,60] ∪ [50,100]| = 10; sweep: 70 − 10 = 60.
        assert_eq!(own, vec![10, 50, 60, 10]);
        let layers = trace.self_ms_by_layer();
        assert_eq!(layers["bench"].round(), 10.0);
        assert_eq!(layers["core"].round(), 50.0);
        assert_eq!(layers["predict"].round(), 70.0);
    }

    #[test]
    fn trace_files_name_every_span_and_its_cause() {
        let origin = Instant::now();
        let mut trace = Trace::new(origin);
        trace.record(
            "bench.request",
            origin,
            origin + Duration::from_micros(9),
            None,
            3,
        );
        trace.record(
            "serve.wait",
            origin,
            origin + Duration::from_micros(5),
            Some(0),
            3,
        );
        let doc = trace.to_json("read_scan", 9);
        let text = doc.render();
        let parsed = viralcast::serve::json::parse(&text).unwrap();
        let get = |key| viralcast::serve::json::get(&parsed, key).unwrap().clone();
        assert_eq!(get("span_count"), JsonValue::U64(2));
        let JsonValue::Arr(spans) = get("spans") else {
            panic!("spans is an array");
        };
        assert_eq!(
            viralcast::serve::json::get(&spans[1], "parent"),
            Some(&JsonValue::U64(0))
        );
        assert_eq!(
            viralcast::serve::json::get(&spans[0], "parent"),
            Some(&JsonValue::Null)
        );
        assert_eq!(
            viralcast::serve::json::get(&spans[1], "request_id"),
            Some(&JsonValue::U64(3))
        );
    }
}
