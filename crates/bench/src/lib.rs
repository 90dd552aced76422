//! Shared plumbing for the figure-reproduction harnesses.
//!
//! Every binary in `src/bin/` regenerates one figure of the paper's
//! evaluation. They share: flag parsing ([`viralcast::cli::Flags`],
//! re-exported here), table printing, timing helpers, a standard SBM
//! world builder, and a JSON sidecar format so that `fig13_speedup` can
//! reuse `fig10_time_vs_cores` measurements instead of re-running the
//! sweep.
//!
//! The `ablation_*` binaries compare the paper's pipeline with the
//! designs it argues against; those baselines are harness code and live
//! here, not in the library crates the daemon links:
//!
//! * [`hogwild`] — lock-free racing updates (Recht et al.), against
//!   Algorithm 1's structural conflict-freedom (`ablation_strategies`).
//! * [`pairwise`] — the `O(n²)` per-link rate model of the prior work,
//!   for the parameter-count ablation (`ablation_pairwise`).
//! * [`pointprocess`] — a Hawkes size extrapolator, the SEISMIC family
//!   of Section V (`ablation_baselines`).

pub mod hogwild;
pub mod pairwise;
pub mod pointprocess;

use serde::{Deserialize, Serialize};
use std::path::PathBuf;
pub use viralcast::cli::Flags;
use viralcast::prelude::*;

/// Prints an aligned text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let joined: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("  {}", joined.join("  "));
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Times a closure, returning its result and elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The standard paper-shaped SBM experiment (α = 0.2, β = 0.001,
/// community size 40), scaled by flags. Uses the default high-variance
/// planted rates — the regime of the prediction figures (6–9).
pub fn standard_sbm(nodes: usize, cascades: usize, seed: u64) -> SbmExperiment {
    SbmExperiment::build(
        &SbmExperimentConfig {
            sbm: SbmConfig {
                nodes,
                community_size: 40,
                intra_prob: 0.2,
                inter_prob: 0.001,
            },
            cascades,
            ..SbmExperimentConfig::default()
        },
        seed,
    )
}

/// The same graph with *local* cascades (weak cross-topic rates): the
/// regime of the timing figures (10, 11, 13). Jump-heavy prediction
/// cascades fuse the co-occurrence graph into one giant community and
/// leave nothing to parallelise; the paper's scaling experiments assume
/// "most cascades occur in local communities", which is this world.
pub fn standard_sbm_local(nodes: usize, cascades: usize, seed: u64) -> SbmExperiment {
    SbmExperiment::build(
        &SbmExperimentConfig {
            sbm: SbmConfig {
                nodes,
                community_size: 40,
                intra_prob: 0.2,
                inter_prob: 0.001,
            },
            cascades,
            planted: PlantedConfig {
                on_topic: 1.2,
                off_topic: 0.02,
                jitter: 0.3,
            },
            ..SbmExperimentConfig::default()
        },
        seed,
    )
}

/// One timing measurement of the parallel inference.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TimingPoint {
    /// rayon pool size.
    pub cores: usize,
    /// Number of cascades processed.
    pub cascades: usize,
    /// Number of graph nodes.
    pub nodes: usize,
    /// Wall-clock seconds of the hierarchical inference.
    pub seconds: f64,
}

/// A set of timing measurements with enough context to re-derive
/// speedup/efficiency.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TimingSet {
    /// All measured points.
    pub points: Vec<TimingPoint>,
}

impl TimingSet {
    /// `t_1` for a `(cascades, nodes)` workload, if measured.
    pub fn t1(&self, cascades: usize, nodes: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.cores == 1 && p.cascades == cascades && p.nodes == nodes)
            .map(|p| p.seconds)
    }

    /// Speedup `s_n = t_1 / t_n` for every point of a workload.
    pub fn speedups(&self, cascades: usize, nodes: usize) -> Vec<(usize, f64)> {
        let Some(t1) = self.t1(cascades, nodes) else {
            return Vec::new();
        };
        self.points
            .iter()
            .filter(|p| p.cascades == cascades && p.nodes == nodes)
            .map(|p| (p.cores, t1 / p.seconds))
            .collect()
    }
}

/// Where timing sidecars live (`target/viralcast-bench/`).
pub fn sidecar_path(name: &str) -> PathBuf {
    let dir = PathBuf::from("target/viralcast-bench");
    std::fs::create_dir_all(&dir).ok();
    dir.join(name)
}

/// Saves a timing set as JSON.
pub fn save_timings(name: &str, set: &TimingSet) {
    let path = sidecar_path(name);
    if let Ok(json) = serde_json::to_string_pretty(set) {
        if std::fs::write(&path, json).is_ok() {
            println!("\n(timings saved to {})", path.display());
        }
    }
}

/// Loads a timing set if present.
pub fn load_timings(name: &str) -> Option<TimingSet> {
    let text = std::fs::read_to_string(sidecar_path(name)).ok()?;
    serde_json::from_str(&text).ok()
}

/// Runs the hierarchical inference on a fixed partition under a rayon
/// pool of `cores` threads and returns the full [`InferenceReport`],
/// whose span tree (`report.timings`) carries the per-level wall-clock
/// breakdown.
pub fn time_inference_report(
    cascades: &CascadeSet,
    partition: &Partition,
    config: &HierarchicalConfig,
    cores: usize,
) -> InferenceReport {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(cores)
        .build()
        .expect("failed to build rayon pool");
    let (_, report) = pool.install(|| infer(cascades, partition, config));
    report
}

/// Wall-clock seconds of one hierarchical inference, read from the
/// inference's own span-timing tree rather than an external stopwatch —
/// pool setup and teardown are excluded. Community detection is
/// excluded too, matching the paper's "the inference algorithm and
/// community detection algorithm SLPA use the same parameters in all
/// the cases" protocol.
pub fn time_inference(
    cascades: &CascadeSet,
    partition: &Partition,
    config: &HierarchicalConfig,
    cores: usize,
) -> f64 {
    time_inference_report(cascades, partition, config, cores).total_seconds()
}

/// The default core sweep of Figures 10/13: 1, 2, 4, …, `max`.
pub fn core_sweep(max: usize) -> Vec<usize> {
    let mut cores = Vec::new();
    let mut c = 1;
    while c <= max {
        cores.push(c);
        c *= 2;
    }
    cores
}

/// Pearson correlation (used by the feature figures).
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    if x.is_empty() {
        return 0.0;
    }
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let cov: f64 = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum();
    let sx: f64 = x.iter().map(|a| (a - mx).powi(2)).sum::<f64>().sqrt();
    let sy: f64 = y.iter().map(|b| (b - my).powi(2)).sum::<f64>().sqrt();
    if sx == 0.0 || sy == 0.0 {
        0.0
    } else {
        cov / (sx * sy)
    }
}

/// Equal-count bins of `(feature, target)` pairs, returning
/// `(mean_feature, mean_target)` per bin — the textual stand-in for the
/// scatter plots of Figures 6–8.
pub fn binned_means(feature: &[f64], target: &[f64], bins: usize) -> Vec<(f64, f64)> {
    assert_eq!(feature.len(), target.len());
    if feature.is_empty() || bins == 0 {
        return Vec::new();
    }
    let mut idx: Vec<usize> = (0..feature.len()).collect();
    idx.sort_by(|&a, &b| feature[a].partial_cmp(&feature[b]).unwrap());
    let per = feature.len().div_ceil(bins);
    idx.chunks(per)
        .map(|chunk| {
            let mf = chunk.iter().map(|&i| feature[i]).sum::<f64>() / chunk.len() as f64;
            let mt = chunk.iter().map(|&i| target[i]).sum::<f64>() / chunk.len() as f64;
            (mf, mt)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_sweep_doubles() {
        assert_eq!(core_sweep(16), vec![1, 2, 4, 8, 16]);
        assert_eq!(core_sweep(6), vec![1, 2, 4]);
        assert_eq!(core_sweep(1), vec![1]);
    }

    #[test]
    fn pearson_known_values() {
        let x = [1.0, 2.0, 3.0];
        assert!((pearson(&x, &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&x, &[6.0, 4.0, 2.0]) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&x, &[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn binned_means_are_monotone_in_feature() {
        let f: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let t: Vec<f64> = (0..100).map(|i| (i * 2) as f64).collect();
        let bins = binned_means(&f, &t, 5);
        assert_eq!(bins.len(), 5);
        for w in bins.windows(2) {
            assert!(w[1].0 > w[0].0);
            assert!(w[1].1 > w[0].1);
        }
    }

    #[test]
    fn timing_set_speedups() {
        let set = TimingSet {
            points: vec![
                TimingPoint {
                    cores: 1,
                    cascades: 100,
                    nodes: 10,
                    seconds: 8.0,
                },
                TimingPoint {
                    cores: 4,
                    cascades: 100,
                    nodes: 10,
                    seconds: 2.0,
                },
                TimingPoint {
                    cores: 1,
                    cascades: 200,
                    nodes: 10,
                    seconds: 16.0,
                },
            ],
        };
        let s = set.speedups(100, 10);
        assert_eq!(s, vec![(1, 1.0), (4, 4.0)]);
        assert!(set.speedups(300, 10).is_empty());
    }

    #[test]
    fn standard_sbm_builds() {
        let e = standard_sbm(200, 50, 1);
        assert_eq!(e.graph().node_count(), 200);
        assert_eq!(e.train().len() + e.test().len(), 50);
    }
}
