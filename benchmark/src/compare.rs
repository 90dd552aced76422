//! Running the suite, and judging two sets of runs against the bounds.
//!
//! `suite` starts one fresh process per run (set-up time, peak RSS and
//! the metrics registry are per-process facts). `compare` reads two
//! directories of report files and prints, per workload and end-to-end
//! metric, each side's median and quartiles, the relative change
//! against the bound, and a verdict that says `unresolved` — not
//! `unchanged` — when the run-to-run spread is wider than the bound.
//! `selfcheck` is `compare` of the code against itself.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::metrics::{self, EndToEnd, WORKLOADS};
use crate::report::RunReport;
use crate::stats;

/// Runs `viralbench run` as a child process, saving its report.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    report: &Path,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let status = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--report")
        .arg(report)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!(
            "run of {workload} seed {seed} exited with {status}"
        ))
    }
}

/// Where `suite` puts run `index` of `workload`.
fn report_path(dir: &Path, workload: &str, traced: bool, index: usize) -> PathBuf {
    let kind = if traced { "traced" } else { "e2e" };
    dir.join(format!("{workload}.{kind}.{index:02}.json"))
}

/// Runs every workload `runs` times untraced (seeds `seed`, `seed+1`, …)
/// and once traced, saving reports under `dir`.
pub fn suite(dir: &Path, runs: usize, seconds: u64, seed: u64) -> Result<(), String> {
    for workload in &WORKLOADS {
        for index in 0..runs {
            let path = report_path(dir, workload.name, false, index);
            run_child(workload.name, seed + index as u64, seconds, false, &path)?;
            println!("{}", RunReport::load(&path)?.table());
        }
        let path = report_path(dir, workload.name, true, 0);
        run_child(workload.name, seed, seconds, true, &path)?;
        println!("{}", RunReport::load(&path)?.table());
    }
    Ok(())
}

/// Untraced reports under `dir`, grouped by workload.
fn load_side(dir: &Path) -> Result<BTreeMap<String, Vec<RunReport>>, String> {
    let mut by_workload: BTreeMap<String, Vec<RunReport>> = BTreeMap::new();
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .flatten()
        .map(|entry| entry.path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    for path in paths {
        let report = RunReport::load(&path)?;
        if !report.traced {
            by_workload
                .entry(report.workload.clone())
                .or_default()
                .push(report);
        }
    }
    Ok(by_workload)
}

/// How one metric on one workload moved between two sets of runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the spread is narrow enough to say so.
    Unchanged,
    /// Better by more than the bound, every run of B beating every run of A.
    Improved,
    /// Worse by more than the bound.
    Regressed,
    /// The spread of either side exceeds the bound and the two sides
    /// overlap: the data cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// `[q1, median, q3]` of side A.
    pub a: [f64; 3],
    /// `[q1, median, q3]` of side B.
    pub b: [f64; 3],
    /// How much worse B's median is than A's, as a share of A's
    /// (negative = better).
    pub worsening: f64,
    /// The larger of the two sides' (Q3 − Q1) / median.
    pub spread: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The call.
    pub verdict: Verdict,
}

/// Judges one metric on one workload from each side's values (`None`
/// with fewer than two values on a side or a zero median).
pub fn judge(workload: &str, metric: &EndToEnd, a: &[f64], b: &[f64]) -> Option<Row> {
    let qa = stats::quartiles(a)?;
    let qb = stats::quartiles(b)?;
    let worsening = metric.better.worsening(qa[1], qb[1]);
    let spread = stats::relative_iqr(a)?.max(stats::relative_iqr(b)?);
    let all_b_better = b
        .iter()
        .all(|&y| a.iter().all(|&x| metric.better.is_better(y, x)));
    let all_b_worse = b
        .iter()
        .all(|&y| a.iter().all(|&x| metric.better.is_better(x, y)));
    let verdict = if spread > metric.bound && !all_b_better && !all_b_worse {
        Verdict::Unresolved
    } else if worsening > metric.bound {
        Verdict::Regressed
    } else if worsening < -metric.bound && all_b_better {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    Some(Row {
        workload: workload.to_string(),
        metric: metric.name,
        a: qa,
        b: qb,
        worsening,
        spread,
        bound: metric.bound,
        verdict,
    })
}

/// Compares two directories of reports on every end-to-end metric.
pub fn compare_dirs(dir_a: &Path, dir_b: &Path) -> Result<Vec<Row>, String> {
    let (side_a, side_b) = (load_side(dir_a)?, load_side(dir_b)?);
    let mut rows = Vec::new();
    for workload in &WORKLOADS {
        let (Some(a), Some(b)) = (side_a.get(workload.name), side_b.get(workload.name)) else {
            continue;
        };
        for metric in &metrics::END_TO_END {
            let values = |side: &[RunReport]| {
                side.iter()
                    .filter_map(|r| r.metric(metric.name))
                    .collect::<Vec<f64>>()
            };
            let row = judge(workload.name, metric, &values(a), &values(b)).ok_or_else(|| {
                format!(
                    "{} / {}: need at least two runs with a non-zero median on each side",
                    workload.name, metric.name
                )
            })?;
            rows.push(row);
        }
        let flawed =
            |side: &[RunReport]| side.iter().filter(|r| !r.correct || r.failed > 0).count();
        if flawed(a) + flawed(b) > 0 {
            return Err(format!(
                "{}: {} run(s) of A and {} of B were incorrect or had failed operations",
                workload.name,
                flawed(a),
                flawed(b)
            ));
        }
    }
    if rows.is_empty() {
        return Err("the two directories share no workload".into());
    }
    Ok(rows)
}

/// The comparison as a table, grouped by workload.
pub fn render(rows: &[Row]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut current = "";
    for row in rows {
        if row.workload != current {
            current = &row.workload;
            let _ = writeln!(out, "\n{current}");
            let _ = writeln!(
                out,
                "  {:<16} {:>34} {:>34} {:>9} {:>8} {:>7}  verdict",
                "metric", "A median [q1, q3]", "B median [q1, q3]", "B vs A", "spread", "bound"
            );
        }
        let side = |q: [f64; 3]| format!("{:.4} [{:.4}, {:.4}]", q[1], q[0], q[2]);
        let _ = writeln!(
            out,
            "  {:<16} {:>34} {:>34} {:>+8.2}% {:>7.2}% {:>6.1}%  {}",
            row.metric,
            side(row.a),
            side(row.b),
            row.worsening * 100.0,
            row.spread * 100.0,
            row.bound * 100.0,
            row.verdict.as_str()
        );
    }
    let _ = writeln!(
        out,
        "\n(B vs A: share of A's median by which B is worse; negative is better)"
    );
    out
}

/// Whether any row breaks its bound.
pub fn any_regressed(rows: &[Row]) -> bool {
    rows.iter().any(|r| r.worsening > r.bound)
}

/// A/A: two interleaved sets of `runs` runs of this same binary on the
/// same seeds (`seed`, `seed+1`, …) must agree within every bound, in
/// either direction (neither side is "the change"). With identical
/// inputs on both sides, what differs is the machine.
pub fn selfcheck(dir: &Path, runs: usize, seconds: u64, seed: u64) -> Result<bool, String> {
    let (dir_a, dir_b) = (dir.join("A"), dir.join("B"));
    for workload in &WORKLOADS {
        for index in 0..runs {
            // Alternate which side goes first, so drift hits both alike.
            let mut sides = [&dir_a, &dir_b];
            if index % 2 == 1 {
                sides.reverse();
            }
            for side in sides {
                let path = report_path(side, workload.name, false, index);
                run_child(workload.name, seed + index as u64, seconds, false, &path)?;
                let report = RunReport::load(&path)?;
                let headline: Vec<String> = report
                    .metrics
                    .iter()
                    .map(|(k, v)| format!("{k} {v:.4}"))
                    .collect();
                println!(
                    "{} seed {}: {}",
                    report.workload,
                    report.seed,
                    headline.join("  ")
                );
            }
        }
    }
    let rows = compare_dirs(&dir_a, &dir_b)?;
    println!("{}", render(&rows));
    let worst = rows
        .iter()
        .filter(|r| r.worsening.abs() > r.bound)
        .map(|r| {
            format!(
                "{} / {} differs by {:+.2}% (bound {:.1}%)",
                r.workload,
                r.metric,
                r.worsening * 100.0,
                r.bound * 100.0
            )
        })
        .collect::<Vec<_>>();
    for line in &worst {
        println!("selfcheck: {line}");
    }
    Ok(worst.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 6 % bound, whatever the calibrated tables currently say.
    fn metric(name: &'static str, better: stats::Better) -> EndToEnd {
        EndToEnd {
            name,
            unit: "1",
            better,
            bound: 0.06,
        }
    }

    #[test]
    fn a_clear_shift_is_called_and_noise_is_unresolved() {
        let latency = &metric("latency_p50_ms", stats::Better::Lower);
        let steady = [10.0, 10.1, 9.9, 10.05, 9.95];
        let same = judge("w", latency, &steady, &[10.02, 9.98, 10.1, 9.9, 10.0]).unwrap();
        assert_eq!(same.verdict, Verdict::Unchanged);
        let slower = judge("w", latency, &steady, &[11.5, 11.6, 11.4, 11.55, 11.45]).unwrap();
        assert_eq!(slower.verdict, Verdict::Regressed);
        assert!((slower.worsening - 0.15).abs() < 0.01);
        let faster = judge("w", latency, &steady, &[8.0, 8.1, 7.9, 8.05, 7.95]).unwrap();
        assert_eq!(faster.verdict, Verdict::Improved);
        // Wide, overlapping samples: the medians agree but the data
        // cannot support "unchanged".
        let noisy = judge(
            "w",
            latency,
            &[8.0, 12.0, 10.0, 9.0, 11.0],
            &[8.5, 11.5, 10.0, 9.5, 10.5],
        )
        .unwrap();
        assert_eq!(noisy.verdict, Verdict::Unresolved);
        // Wide but cleanly separated: every run of B beats every run of A.
        let separated = judge(
            "w",
            latency,
            &[8.0, 12.0, 10.0, 9.0, 11.0],
            &[5.0, 7.0, 6.0, 5.5, 6.5],
        )
        .unwrap();
        assert_eq!(separated.verdict, Verdict::Improved);
    }

    #[test]
    fn direction_follows_the_metric() {
        let throughput = &metric("throughput_rps", stats::Better::Higher);
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            judge("w", throughput, &base, &[80.0, 81.0, 79.0, 80.5, 79.5])
                .unwrap()
                .verdict,
            Verdict::Regressed
        );
        assert_eq!(
            judge("w", throughput, &base, &[120.0, 121.0, 119.0, 120.5, 119.5])
                .unwrap()
                .verdict,
            Verdict::Improved
        );
        assert!(judge("w", throughput, &[1.0], &base).is_none());
    }

    #[test]
    fn the_table_has_one_block_per_workload() {
        let rows: Vec<Row> = ["train_sbm", "read_scan"]
            .iter()
            .flat_map(|w| {
                metrics::END_TO_END.iter().map(move |m| Row {
                    workload: w.to_string(),
                    metric: m.name,
                    a: [0.9, 1.0, 1.1],
                    b: [0.95, 1.02, 1.1],
                    worsening: 0.02,
                    spread: 0.2,
                    bound: m.bound,
                    verdict: Verdict::Unresolved,
                })
            })
            .collect();
        let table = render(&rows);
        assert_eq!(table.matches("A median").count(), 2);
        assert_eq!(table.matches("unresolved").count(), 10);
        assert!(!any_regressed(&rows));
    }
}
