//! Measurement-window accounting.
//!
//! Load threads run from before the warm-up until the window closes and
//! record every operation; only operations that both **start and
//! complete inside the window** count, so an operation straddling either
//! edge can neither pad throughput nor hide a slow tail.

use std::time::{Duration, Instant};

use crate::stats;

/// One completed operation, timed on the client's clock.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// When the client began (before connect).
    pub start: Instant,
    /// When the last response byte arrived (or the error surfaced).
    pub end: Instant,
    /// 2xx, well-formed, and — where checked — equal to the oracle.
    pub ok: bool,
    /// Index into the workload's pre-generated operation list.
    pub op: u32,
    /// Whether this is the workload's primary operation kind.
    pub primary: bool,
}

/// A half-open measurement interval on the monotonic clock.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    /// First instant inside the window.
    pub start: Instant,
    /// First instant after it.
    pub end: Instant,
}

impl Window {
    /// Whether `sample` started and completed inside the window.
    pub fn contains(&self, sample: &Sample) -> bool {
        sample.start >= self.start && sample.end <= self.end
    }

    /// The window length.
    pub fn length(&self) -> Duration {
        self.end.duration_since(self.start)
    }
}

/// What the in-window samples of one operation class add up to.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Operations that started and completed inside the window.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// Latencies of the successful ones, milliseconds, ascending.
    pub latencies_ms: Vec<f64>,
}

impl Tally {
    /// Tallies the samples of `samples` that lie inside `window` and
    /// satisfy `keep`.
    pub fn of<'a>(
        samples: impl IntoIterator<Item = &'a Sample>,
        window: &Window,
        keep: impl Fn(&Sample) -> bool,
    ) -> Tally {
        let mut tally = Tally::default();
        for sample in samples {
            if !window.contains(sample) || !keep(sample) {
                continue;
            }
            tally.attempted += 1;
            if sample.ok {
                let latency = sample.end.duration_since(sample.start);
                tally.latencies_ms.push(latency.as_secs_f64() * 1e3);
            } else {
                tally.failed += 1;
            }
        }
        tally.latencies_ms.sort_by(f64::total_cmp);
        tally
    }

    /// Operations completed correctly.
    pub fn succeeded(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Correct completions per second of `window`.
    pub fn throughput(&self, window: &Window) -> f64 {
        self.succeeded() as f64 / window.length().as_secs_f64()
    }

    /// A latency quantile in milliseconds (`None` without successes).
    pub fn latency_ms(&self, q: f64) -> Option<f64> {
        stats::quantile_sorted(&self.latencies_ms, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(base: Instant, start_ms: u64, end_ms: u64, ok: bool, primary: bool) -> Sample {
        Sample {
            start: base + Duration::from_millis(start_ms),
            end: base + Duration::from_millis(end_ms),
            ok,
            op: 0,
            primary,
        }
    }

    #[test]
    fn operations_straddling_either_edge_are_excluded() {
        let base = Instant::now();
        let window = Window {
            start: base + Duration::from_millis(100),
            end: base + Duration::from_millis(1100),
        };
        let samples = [
            sample(base, 50, 90, true, true),     // before
            sample(base, 90, 110, true, true),    // straddles the start
            sample(base, 100, 150, true, true),   // starts exactly at the edge: in
            sample(base, 500, 530, true, true),   // in
            sample(base, 600, 640, false, true),  // in, failed
            sample(base, 1050, 1100, true, true), // ends exactly at the edge: in
            sample(base, 1090, 1110, true, true), // straddles the end
            sample(base, 1200, 1250, true, true), // after
        ];
        let tally = Tally::of(&samples, &window, |_| true);
        assert_eq!(tally.attempted, 4);
        assert_eq!(tally.failed, 1);
        assert_eq!(tally.succeeded(), 3);
        assert_eq!(tally.latencies_ms, vec![30.0, 50.0, 50.0]);
        assert!((tally.throughput(&window) - 3.0).abs() < 1e-9);
        assert_eq!(tally.latency_ms(0.5), Some(50.0));
    }

    #[test]
    fn classes_are_tallied_apart() {
        let base = Instant::now();
        let window = Window {
            start: base,
            end: base + Duration::from_secs(1),
        };
        let samples = [
            sample(base, 10, 20, true, true),
            sample(base, 10, 40, true, false),
            sample(base, 50, 60, false, false),
        ];
        let primary = Tally::of(&samples, &window, |s| s.primary);
        let secondary = Tally::of(&samples, &window, |s| !s.primary);
        assert_eq!((primary.attempted, primary.failed), (1, 0));
        assert_eq!((secondary.attempted, secondary.failed), (2, 1));
        assert_eq!(Tally::default().latency_ms(0.5), None);
    }
}
