//! A lock-free metrics registry: counters, gauges, and fixed-bucket
//! histograms safe to update from inside rayon workers.
//!
//! Handle acquisition (`registry.counter("pgd.epochs")`) takes a
//! read-lock on the name table once; every subsequent update on the
//! returned `Arc` handle is a plain atomic operation, so the inner
//! optimiser loops pay no locks. Floating-point accumulation (histogram
//! sums, gauges, min/max) uses compare-exchange loops on the f64 bit
//! pattern — updates are never lost, though the *order* of additions is
//! whatever the race produced (sums of well-scaled values are stable to
//! ~1 ulp per update, which is far below measurement noise).

use crate::json::JsonValue;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// A monotone counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n`.
    pub fn incr(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value-wins f64 gauge.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Applies `combine(current, v)` atomically to an f64 stored as bits.
fn atomic_f64_apply(cell: &AtomicU64, v: f64, combine: impl Fn(f64, f64) -> f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = combine(f64::from_bits(cur), v).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

/// A histogram over fixed upper-bound buckets.
///
/// A value `v` lands in the first bucket whose bound is `>= v`; values
/// above every bound land in the overflow bucket (`buckets.len() ==
/// bounds.len() + 1`). Count, sum, min and max are tracked exactly.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// Records one observation.
    pub fn record(&self, v: f64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_apply(&self.sum_bits, v, |a, b| a + b);
        atomic_f64_apply(&self.min_bits, v, f64::min);
        atomic_f64_apply(&self.max_bits, v, f64::max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count,
            sum: self.sum(),
            min: if count == 0 {
                0.0
            } else {
                f64::from_bits(self.min_bits.load(Ordering::Relaxed))
            },
            max: if count == 0 {
                0.0
            } else {
                f64::from_bits(self.max_bits.load(Ordering::Relaxed))
            },
        }
    }
}

/// A point-in-time copy of one histogram.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Upper bucket bounds (the overflow bucket has no bound).
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts (`bounds.len() + 1` entries).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (`0.0` when empty).
    pub min: f64,
    /// Largest observation (`0.0` when empty).
    pub max: f64,
}

impl HistogramSnapshot {
    /// Interpolated quantile estimate from the bucket counts.
    ///
    /// The rank `q * count` is located in its bucket and linearly
    /// interpolated across that bucket's span. Spans are clamped to the
    /// tracked `[min, max]`, so a single observation returns exactly that
    /// observation and the unbounded overflow bucket interpolates between
    /// the last bound and `max` instead of running off to infinity.
    /// Returns `None` for an empty histogram or `q` outside `[0, 1]`.
    fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = q * self.count as f64;
        let mut below = 0u64;
        for (i, &in_bucket) in self.buckets.iter().enumerate() {
            let through = below + in_bucket;
            if in_bucket > 0 && rank <= through as f64 {
                let lower = if i == 0 {
                    self.min
                } else {
                    self.bounds[i - 1].max(self.min)
                };
                let upper = if i < self.bounds.len() {
                    self.bounds[i].min(self.max)
                } else {
                    self.max
                };
                if upper <= lower {
                    return Some(lower.clamp(self.min, self.max));
                }
                let frac = ((rank - below as f64) / in_bucket as f64).clamp(0.0, 1.0);
                return Some((lower + frac * (upper - lower)).clamp(self.min, self.max));
            }
            below = through;
        }
        Some(self.max)
    }

    /// Interpolated median (`quantile(0.5)`).
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Interpolated 90th percentile.
    pub fn p90(&self) -> Option<f64> {
        self.quantile(0.9)
    }

    /// Interpolated 99th percentile.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            (
                "bounds",
                JsonValue::Arr(self.bounds.iter().map(|&b| b.into()).collect()),
            ),
            (
                "buckets",
                JsonValue::Arr(self.buckets.iter().map(|&b| b.into()).collect()),
            ),
            ("count", JsonValue::from(self.count)),
            ("sum", JsonValue::from(self.sum)),
            ("min", JsonValue::from(self.min)),
            ("max", JsonValue::from(self.max)),
        ])
    }
}

/// A point-in-time copy of every metric, with deterministic (sorted)
/// iteration order — the unit serialised into run reports and diffed by
/// the bench harness.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// JSON form:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            (
                "counters",
                JsonValue::Obj(
                    self.counters
                        .iter()
                        .map(|(k, &v)| (k.clone(), v.into()))
                        .collect(),
                ),
            ),
            (
                "gauges",
                JsonValue::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, &v)| (k.clone(), v.into()))
                        .collect(),
                ),
            ),
            (
                "histograms",
                JsonValue::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Summarises every histogram whose name starts with `prefix` as
    /// `{label: {requests, p50_ms, p90_ms, p99_ms, max_ms}}`, keyed by
    /// the name with the prefix stripped — the table `/healthz` exposes
    /// for per-endpoint (and, on a cluster router, per-shard) latency.
    pub fn quantile_table(&self, prefix: &str) -> JsonValue {
        JsonValue::Obj(
            self.histograms
                .iter()
                .filter_map(|(name, hist)| {
                    let label = name.strip_prefix(prefix)?;
                    Some((
                        label.to_string(),
                        JsonValue::obj(vec![
                            ("requests", JsonValue::from(hist.count)),
                            (
                                "p50_ms",
                                hist.p50().map_or(JsonValue::Null, JsonValue::from),
                            ),
                            (
                                "p90_ms",
                                hist.p90().map_or(JsonValue::Null, JsonValue::from),
                            ),
                            (
                                "p99_ms",
                                hist.p99().map_or(JsonValue::Null, JsonValue::from),
                            ),
                            ("max_ms", JsonValue::from(hist.max)),
                        ]),
                    ))
                })
                .collect(),
        )
    }

    /// Prometheus text exposition format (version 0.0.4), the payload a
    /// `/metrics` endpoint returns. Dotted registry names become
    /// underscore-separated metric names; histogram buckets are emitted
    /// cumulatively with `le` labels plus the `+Inf` total, `_sum`, and
    /// `_count` series; label values are escaped per the format's
    /// `\\` / `\"` / `\n` rules.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, &v) in &self.counters {
            let name = prometheus_name(name);
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
        }
        for (name, &v) in &self.gauges {
            let name = prometheus_name(name);
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
        }
        for (name, h) in &self.histograms {
            let name = prometheus_name(name);
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for (i, bound) in h.bounds.iter().enumerate() {
                cumulative += h.buckets.get(i).copied().unwrap_or(0);
                let le = prometheus_label_value(&format!("{bound}"));
                let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            cumulative += h.buckets.get(h.bounds.len()).copied().unwrap_or(0);
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
            let _ = writeln!(out, "{name}_sum {}\n{name}_count {}", h.sum, h.count);
        }
        out
    }
}

/// Strictly increasing exponential bucket bounds: `count` values
/// starting at `start` and multiplying by `factor` — the standard shape
/// for latency histograms, where resolution should track magnitude.
///
/// # Panics
/// Panics if `start <= 0`, `factor <= 1`, or `count == 0` — any of those
/// would produce a non-monotone (hence invalid) bound ladder.
pub fn exponential_bounds(start: f64, factor: f64, count: usize) -> Vec<f64> {
    assert!(
        start > 0.0 && factor > 1.0 && count > 0,
        "exponential_bounds needs start > 0, factor > 1, count > 0 \
         (got start={start}, factor={factor}, count={count})"
    );
    let mut bounds = Vec::with_capacity(count);
    let mut bound = start;
    for _ in 0..count {
        bounds.push(bound);
        bound *= factor;
    }
    bounds
}

/// Maps a registry name onto the Prometheus grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): invalid characters (the `.` separators
/// used here) become `_`, and a leading digit gets a `_` prefix.
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let valid =
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else if valid {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes a string for use inside a quoted Prometheus label value:
/// backslash, double quote, and newline become `\\`, `\"`, and `\n`
/// (exposition format 0.0.4). Everything else passes through.
pub fn prometheus_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn read_or_recover<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn write_or_recover<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

/// The name → metric table. Use [`crate::metrics()`] for the process
/// global, or create private registries in tests.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = read_or_recover(&self.counters).get(name) {
            return Arc::clone(c);
        }
        Arc::clone(
            write_or_recover(&self.counters)
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// The gauge registered under `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = read_or_recover(&self.gauges).get(name) {
            return Arc::clone(g);
        }
        Arc::clone(
            write_or_recover(&self.gauges)
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// The histogram registered under `name`, created with `bounds` on
    /// first use (later calls keep the original bounds).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        if let Some(h) = read_or_recover(&self.histograms).get(name) {
            return Arc::clone(h);
        }
        Arc::clone(
            write_or_recover(&self.histograms)
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new(bounds))),
        )
    }

    /// The histogram registered under `name`, created with
    /// [`exponential_bounds`]`(start, factor, count)` on first use —
    /// the usual constructor for latency histograms.
    pub fn histogram_exponential(
        &self,
        name: &str,
        start: f64,
        factor: f64,
        count: usize,
    ) -> Arc<Histogram> {
        if let Some(h) = read_or_recover(&self.histograms).get(name) {
            return Arc::clone(h);
        }
        self.histogram(name, &exponential_bounds(start, factor, count))
    }

    /// A consistent-enough copy of every metric (each value is read
    /// atomically; the set is whatever was registered at call time).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: read_or_recover(&self.counters)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: read_or_recover(&self.gauges)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: read_or_recover(&self.histograms)
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// The process-global registry the pipeline stages report into.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r = MetricsRegistry::new();
        r.counter("a").incr(2);
        r.counter("a").incr(3);
        assert_eq!(r.counter("a").get(), 5);
        assert_eq!(r.snapshot().counters["a"], 5);
    }

    #[test]
    fn gauges_last_write_wins() {
        let r = MetricsRegistry::new();
        r.gauge("g").set(1.5);
        r.gauge("g").set(-2.25);
        assert_eq!(r.gauge("g").get(), -2.25);
    }

    #[test]
    fn histogram_bucketing() {
        let h = Histogram::new(&[1.0, 10.0]);
        for v in [0.5, 1.0, 5.0, 100.0] {
            h.record(v);
        }
        let s = h.snapshot();
        // 0.5 and 1.0 land in the <=1 bucket, 5.0 in <=10, 100 overflows.
        assert_eq!(s.buckets, vec![2, 1, 1]);
        assert_eq!(s.count, 4);
        assert!((s.sum - 106.5).abs() < 1e-12);
        assert_eq!(s.min, 0.5);
        assert_eq!(s.max, 100.0);
    }

    #[test]
    fn empty_histogram_snapshot_is_finite() {
        let h = Histogram::new(&[1.0]);
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn histogram_bounds_are_first_registration_wins() {
        let r = MetricsRegistry::new();
        let h1 = r.histogram("h", &[1.0, 2.0]);
        let h2 = r.histogram("h", &[99.0]);
        assert!(Arc::ptr_eq(&h1, &h2));
        assert_eq!(h2.snapshot().bounds, vec![1.0, 2.0]);
    }

    #[test]
    fn concurrent_updates_lose_nothing() {
        // Std-thread version of the rayon test in tests/concurrency.rs,
        // runnable without any dev-dependencies.
        let r = MetricsRegistry::new();
        let c = r.counter("spins");
        let h = r.histogram("values", &[8.0, 64.0]);
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    for i in 0..per_thread {
                        c.incr(1);
                        h.record((i % 100) as f64);
                    }
                });
            }
        });
        let total = threads * per_thread;
        assert_eq!(c.get(), total);
        let s = h.snapshot();
        assert_eq!(s.count, total);
        assert_eq!(s.buckets.iter().sum::<u64>(), total);
        // Sum of 0..100 repeated: exact in f64 (integers < 2^53).
        let expected: f64 = (0..per_thread).map(|i| (i % 100) as f64).sum::<f64>() * threads as f64;
        assert_eq!(s.sum, expected);
    }

    #[test]
    fn prometheus_rendering_is_cumulative_and_sanitised() {
        let r = MetricsRegistry::new();
        r.counter("serve.http.requests").incr(3);
        r.gauge("serve.snapshot.version").set(2.0);
        let h = r.histogram("serve.retrain.seconds", &[1.0, 10.0]);
        // Dyadic values: the sum (106) is exact, so Display is stable.
        for v in [0.5, 0.5, 5.0, 100.0] {
            h.record(v);
        }
        let text = r.snapshot().render_prometheus();
        for needle in [
            "# TYPE serve_http_requests counter\nserve_http_requests 3\n",
            "# TYPE serve_snapshot_version gauge\nserve_snapshot_version 2\n",
            "# TYPE serve_retrain_seconds histogram\n",
            "serve_retrain_seconds_bucket{le=\"1\"} 2\n",
            "serve_retrain_seconds_bucket{le=\"10\"} 3\n",
            "serve_retrain_seconds_bucket{le=\"+Inf\"} 4\n",
            "serve_retrain_seconds_sum 106\n",
            "serve_retrain_seconds_count 4\n",
        ] {
            assert!(text.contains(needle), "{needle:?} missing from:\n{text}");
        }
    }

    #[test]
    fn prometheus_names_are_grammar_safe() {
        assert_eq!(
            prometheus_name("serve.http.latency_ms.v1_hazard"),
            "serve_http_latency_ms_v1_hazard"
        );
        assert_eq!(prometheus_name("9lives"), "_9lives");
        assert_eq!(prometheus_name("a-b c"), "a_b_c");
        assert_eq!(prometheus_name(""), "_");
    }

    #[test]
    fn quantile_table_summarises_matching_histograms() {
        let r = MetricsRegistry::new();
        let h = r.histogram("router.shard.latency_ms.0", &[1.0, 10.0]);
        for v in [0.5, 2.0, 3.0, 4.0] {
            h.record(v);
        }
        // Empty histograms report null quantiles but still appear.
        r.histogram("router.shard.latency_ms.1", &[1.0, 10.0]);
        // Non-matching names are excluded.
        r.histogram("other.latency_ms.x", &[1.0]).record(1.0);
        let table = r.snapshot().quantile_table("router.shard.latency_ms.");
        let text = table.render();
        assert!(text.contains("\"0\":{\"requests\":4,\"p50_ms\":"), "{text}");
        assert!(
            text.contains("\"1\":{\"requests\":0,\"p50_ms\":null"),
            "{text}"
        );
        assert!(!text.contains("other"), "{text}");
        assert!(text.contains("\"max_ms\":4"), "{text}");
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = Histogram::new(&[10.0, 20.0, 40.0]);
        // 100 observations spread uniformly over (0, 10]: every quantile
        // sits in the first bucket, interpolated between min and bound.
        for i in 1..=100 {
            h.record(i as f64 / 10.0);
        }
        let s = h.snapshot();
        let p50 = s.p50().unwrap();
        assert!((p50 - 5.0).abs() < 0.2, "p50 ≈ 5, got {p50}");
        let p99 = s.p99().unwrap();
        assert!((p99 - 9.9).abs() < 0.2, "p99 ≈ 9.9, got {p99}");
        // Quantiles are monotone in q and bracketed by min/max.
        assert!(s.quantile(0.0).unwrap() >= s.min);
        assert!(s.p50().unwrap() <= s.p90().unwrap());
        assert!(s.p90().unwrap() <= s.p99().unwrap());
        assert!(s.quantile(1.0).unwrap() <= s.max);
    }

    #[test]
    fn quantile_hits_exact_bounds() {
        let h = Histogram::new(&[1.0, 2.0]);
        // Two observations at the bucket bounds themselves: the median
        // rank falls on the first bucket's edge.
        h.record(1.0);
        h.record(2.0);
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(2.0));
    }

    #[test]
    fn quantile_of_empty_histogram_is_none() {
        let s = Histogram::new(&[1.0]).snapshot();
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.p99(), None);
    }

    #[test]
    fn quantile_rejects_out_of_range_q() {
        let h = Histogram::new(&[1.0]);
        h.record(0.5);
        let s = h.snapshot();
        assert_eq!(s.quantile(-0.01), None);
        assert_eq!(s.quantile(1.01), None);
        assert_eq!(s.quantile(f64::NAN), None);
    }

    #[test]
    fn quantile_in_overflow_bucket_is_bounded_by_max() {
        let h = Histogram::new(&[1.0]);
        // Everything overflows the last bound; interpolation must use
        // the tracked max, not run off to infinity.
        for v in [5.0, 7.0, 9.0] {
            h.record(v);
        }
        let s = h.snapshot();
        let p99 = s.p99().unwrap();
        assert!((1.0..=9.0).contains(&p99), "p99 within [bound, max]: {p99}");
        assert_eq!(s.quantile(1.0), Some(9.0));
    }

    #[test]
    fn quantile_of_single_observation_is_that_observation() {
        let h = Histogram::new(&[10.0, 100.0]);
        h.record(42.0);
        let s = h.snapshot();
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(s.quantile(q), Some(42.0), "q={q}");
        }
    }

    #[test]
    fn exponential_bounds_are_geometric_and_strict() {
        let b = exponential_bounds(0.5, 2.0, 5);
        assert_eq!(b, vec![0.5, 1.0, 2.0, 4.0, 8.0]);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "exponential_bounds")]
    fn exponential_bounds_reject_flat_ladders() {
        exponential_bounds(1.0, 1.0, 4);
    }

    #[test]
    fn exponential_histograms_register_once() {
        let r = MetricsRegistry::new();
        let h1 = r.histogram_exponential("lat", 1.0, 2.0, 3);
        let h2 = r.histogram_exponential("lat", 9.0, 9.0, 9);
        assert!(Arc::ptr_eq(&h1, &h2));
        assert_eq!(h1.snapshot().bounds, vec![1.0, 2.0, 4.0]);
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(prometheus_label_value("plain"), "plain");
        assert_eq!(prometheus_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
    }

    #[test]
    fn snapshot_json_is_shaped() {
        let r = MetricsRegistry::new();
        r.counter("n").incr(1);
        r.gauge("g").set(0.5);
        r.histogram("h", &[1.0]).record(2.0);
        let json = r.snapshot().to_json().render();
        for needle in [
            "\"counters\":{\"n\":1}",
            "\"gauges\":{\"g\":0.5}",
            "\"buckets\":[0,1]",
        ] {
            assert!(json.contains(needle), "{needle} missing from {json}");
        }
    }
}
