//! `viralbench`: end-to-end and per-layer benchmark of viralcast.
//!
//! ```text
//! viralbench run --workload W --seed N --seconds S --trace 0|1 [--report FILE]
//! viralbench suite [--runs N] [--seconds S] [--seed N] [--out DIR]
//! viralbench selfcheck [--runs N] [--seconds S] [--seed N] [--out DIR]
//! viralbench compare DIR_A DIR_B
//! viralbench manifest
//! ```
//!
//! Run it from `benchmark/` (artefacts go to `./out`). See README.md.

mod compare;
mod fixture;
mod gen;
mod load;
mod metrics;
mod oracle;
mod probes;
mod report;
mod stats;
mod sys;
mod trace;
mod window;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage:
  viralbench run --workload W --seed N --seconds S --trace 0|1 [--report FILE]
  viralbench suite [--runs N] [--seconds S] [--seed N] [--out DIR]
  viralbench selfcheck [--runs N] [--seconds S] [--seed N] [--out DIR]
  viralbench compare DIR_A DIR_B
  viralbench manifest
workloads: train_sbm, read_scan, cluster_read, ingest_mixed";

/// `--key value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut rest = args.iter();
        while let Some(flag) = rest.next() {
            let key = flag
                .strip_prefix("--")
                .filter(|k| known.contains(k))
                .ok_or_else(|| format!("unknown argument `{flag}`"))?;
            let value = rest
                .next()
                .ok_or_else(|| format!("`{flag}` needs a value"))?;
            pairs.push((key.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn text(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn number(&self, key: &str, default: Option<u64>) -> Result<u64, String> {
        match (self.text(key), default) {
            (Some(raw), _) => raw
                .parse()
                .map_err(|_| format!("`--{key} {raw}` is not a whole number")),
            (None, Some(default)) => Ok(default),
            (None, None) => Err(format!("`--{key}` is required")),
        }
    }
}

fn run(args: &[String], process_start: Instant) -> Result<bool, String> {
    let flags = Flags::parse(args, &["workload", "seed", "seconds", "trace", "report"])?;
    let run_args = workloads::RunArgs {
        workload: flags
            .text("workload")
            .ok_or("`--workload` is required")?
            .to_string(),
        seed: flags.number("seed", None)?,
        seconds: flags.number("seconds", None)?,
        traced: match flags.text("trace") {
            Some("0") => false,
            Some("1") => true,
            _ => return Err("`--trace` must be 0 or 1".into()),
        },
        process_start,
    };
    if !(1..=60).contains(&run_args.seconds) {
        return Err("`--seconds` must be between 1 and 60".into());
    }
    // Every parallel stage in the crates (fit, retrain, simulation) runs
    // on this explicit pool, sized to the reference box.
    rayon::ThreadPoolBuilder::new()
        .num_threads(sys::THREADS)
        .build_global()
        .map_err(|e| format!("cannot size the rayon pool: {e}"))?;
    std::fs::create_dir_all(fixture::OUT_DIR)
        .map_err(|e| format!("cannot create {}: {e}", fixture::OUT_DIR))?;

    let report = workloads::run(&run_args)?;
    if let Some(path) = flags.text("report") {
        report
            .save(Path::new(path), sys::env_block())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    println!("env {}", sys::env_block().render());
    print!("{}", report.table());
    println!("{}", report.contract_line());
    Ok(report.correct)
}

fn out_dir(flags: &Flags, leaf: &str) -> PathBuf {
    flags
        .text("out")
        .map_or_else(|| Path::new(fixture::OUT_DIR).join(leaf), PathBuf::from)
}

fn dispatch(args: &[String], process_start: Instant) -> Result<bool, String> {
    let batch = ["runs", "seconds", "seed", "out"];
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..], process_start),
        Some("suite") => {
            let flags = Flags::parse(&args[1..], &batch)?;
            compare::suite(
                &out_dir(&flags, "suite"),
                flags.number("runs", Some(5))? as usize,
                flags.number("seconds", Some(metrics::RUN_SECONDS))?,
                flags.number("seed", Some(1))?,
            )?;
            Ok(true)
        }
        Some("selfcheck") => {
            let flags = Flags::parse(&args[1..], &batch)?;
            compare::selfcheck(
                &out_dir(&flags, "selfcheck"),
                flags.number("runs", Some(5))? as usize,
                flags.number("seconds", Some(metrics::RUN_SECONDS))?,
                flags.number("seed", Some(1))?,
            )
        }
        Some("compare") => match &args[1..] {
            [a, b] => {
                let rows = compare::compare_dirs(Path::new(a), Path::new(b))?;
                print!("{}", compare::render(&rows));
                Ok(!compare::any_regressed(&rows))
            }
            _ => Err("compare takes exactly two directories".into()),
        },
        Some("manifest") => {
            println!("{}", metrics::manifest().render_pretty());
            Ok(true)
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = sys::require_release_build().and_then(|()| dispatch(&args, process_start));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("viralbench: {message}");
            ExitCode::from(2)
        }
    }
}
