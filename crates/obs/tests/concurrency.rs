//! Proves the metrics registry loses no updates when several threads
//! write it at once — the acceptance criterion for the lock-free
//! registry.

use std::sync::Barrier;
use viralcast_obs::MetricsRegistry;

#[test]
fn threaded_counter_and_histogram_totals_are_exact() {
    let registry = MetricsRegistry::new();
    let counter = registry.counter("pgd.epochs");
    let histogram = registry.histogram("pgd.grad_norm", &[0.25, 0.5, 0.75]);
    let gauge = registry.gauge("pgd.objective");

    let threads: u64 = 4;
    let tasks: u64 = 64;
    let per_task: u64 = 5_000;
    std::thread::scope(|scope| {
        for thread in 0..threads {
            let (registry, histogram, gauge) = (&registry, &histogram, &gauge);
            scope.spawn(move || {
                for task in (thread..tasks).step_by(threads as usize) {
                    // Handles cloned per task, like per-group PGD workers would.
                    let counter = registry.counter("pgd.epochs");
                    for i in 0..per_task {
                        counter.incr(1);
                        histogram.record((i % 100) as f64 / 100.0);
                        gauge.set(task as f64);
                    }
                }
            });
        }
    });

    let total = tasks * per_task;
    assert_eq!(counter.get(), total, "counter lost updates");

    let snap = registry.snapshot();
    assert_eq!(snap.counters["pgd.epochs"], total);

    let h = &snap.histograms["pgd.grad_norm"];
    assert_eq!(h.count, total, "histogram lost observations");
    assert_eq!(
        h.buckets.iter().sum::<u64>(),
        total,
        "bucket counts inconsistent with total"
    );
    // Values cycle 0.00..0.99; every bucket population is known exactly.
    // bounds [0.25, 0.5, 0.75] → <=0.25: 26 values, <=0.5: 25, <=0.75: 25,
    // overflow: 24 — each times total/100.
    let reps = total / 100;
    assert_eq!(h.buckets, vec![26 * reps, 25 * reps, 25 * reps, 24 * reps]);
    // Sum of 0.00..0.99 in hundredths: each v = k/100 with k < 2^53, so
    // the CAS-loop addition is exact up to f64 rounding of the partial
    // sums; allow a tiny relative tolerance.
    let expected = (0..100).map(|k| k as f64 / 100.0).sum::<f64>() * reps as f64;
    assert!(
        (h.sum - expected).abs() / expected < 1e-9,
        "sum {} vs expected {expected}",
        h.sum
    );
    assert_eq!(h.min, 0.0);
    assert_eq!(h.max, 0.99);

    // The gauge holds *some* task's last write — last-value-wins is the
    // contract, not a specific winner.
    let g = snap.gauges["pgd.objective"];
    assert!((0.0..tasks as f64).contains(&g), "gauge {g} out of range");
}

#[test]
fn concurrent_handle_creation_yields_one_metric() {
    // Racing get-or-create from many threads must converge on a single
    // counter rather than silently forking the value.
    let registry = MetricsRegistry::new();
    let start = Barrier::new(8);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                // Every thread's first lookup races the creation.
                start.wait();
                for _ in 0..125 {
                    registry.counter("race.counter").incr(1);
                }
            });
        }
    });
    assert_eq!(registry.counter("race.counter").get(), 1_000);
    assert_eq!(registry.snapshot().counters.len(), 1);
}
