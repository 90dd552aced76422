//! Records what built this binary, for the report's `env` block.

use std::process::Command;

fn stdout_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = stdout_of(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    // The benchmark driver's checkout is not a git repository.
    let commit = stdout_of("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=VIRALBENCH_RUSTC={version}");
    println!("cargo:rustc-env=VIRALBENCH_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
}
