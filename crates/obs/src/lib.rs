//! `viralcast-obs`: dependency-free observability for the viralcast
//! pipeline.
//!
//! Three pieces, matching the three blind spots the pipeline had:
//!
//! * **Spans** ([`Span`], [`Recorder`], [`StageTimings`]) — nested
//!   wall-clock timings that aggregate into a tree, replacing the loose
//!   `*_seconds: f64` fields that used to be hand-threaded through
//!   `InferenceOutcome` and `LevelSummary`.
//! * **Metrics** ([`MetricsRegistry`], [`Counter`], [`Gauge`],
//!   [`Histogram`]) — lock-free, safe to update from inside rayon
//!   workers: per-epoch objective, gradient norms, accepted vs
//!   rolled-back PGD steps, SLPA iterations, sub-cascade fan-out, merge
//!   level sizes.
//! * **Sinks** ([`Logger`], [`StderrSink`], [`JsonlSink`],
//!   [`RunReport`]) — a leveled stderr logger, a JSONL event log, and a
//!   JSON run-report writer whose schema
//!   ([`RUN_REPORT_SCHEMA`]) the bench harness diffs across PRs.
//!
//! The crate is deliberately free of runtime dependencies so that
//! instrumentation can never break the build or perturb the hot path;
//! JSON output comes from a small built-in writer
//! ([`JsonValue`]) that the integration tests read back through the
//! crate's own strict parser ([`json::parse`]).
//!
//! # Typical wiring (what the `viralcast` CLI does)
//!
//! ```
//! use viralcast_obs as obs;
//!
//! let recorder = obs::Recorder::new("viralcast");
//! {
//!     let _guard = recorder.install();
//!     let _span = obs::Span::enter("cooccurrence");
//!     obs::metrics().counter("cooccurrence.edges").incr(42);
//! } // span closes, timing lands in the recorder
//!
//! let report = obs::RunReport::new(recorder.finish(), obs::metrics().snapshot())
//!     .attr("command", "infer");
//! assert!(report.to_json().render().contains("cooccurrence"));
//! ```

mod access;
mod events;
pub mod json;
mod metrics;
pub mod process;
mod report;
mod span;

pub use access::{AccessLog, AccessRecord, ACCESS_LOG_SCHEMA};
pub use events::{debug, info, logger, warn, Event, JsonlSink, Level, Logger, Sink, StderrSink};
pub use json::JsonValue;
pub use metrics::{
    exponential_bounds, prometheus_label_value, prometheus_name, Counter, Gauge, Histogram,
    HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
};
pub use report::{RunReport, RUN_REPORT_SCHEMA};
pub use span::{Recorder, RecorderGuard, Span, SpanGuard, StageTimings};

/// The process-global metrics registry the pipeline stages report into.
pub fn metrics() -> &'static MetricsRegistry {
    metrics::global()
}
