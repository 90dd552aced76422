#!/usr/bin/env bash
# Builds viralbench (release, offline, from this checkout only) and
# performs one benchmark run. BENCHMARK.json's command is
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
# issued from the repository root; any other working directory works too.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# A relative CARGO_TARGET_DIR means "relative to where the caller stands",
# not relative to benchmark/, where cargo is about to run.
if [[ -n "${CARGO_TARGET_DIR:-}" && "${CARGO_TARGET_DIR}" != /* ]]; then
    export CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR"
fi

# cargo reads .cargo/config.toml from the working directory upward:
# standing in benchmark/ lets benchmark/.cargo/config.toml override the
# repository root's [patch.crates-io] with the vendored stand-ins.
cd "$here"
cargo build --release --offline --quiet >&2

exec "${CARGO_TARGET_DIR:-$here/target}/release/viralbench" run "$@"
