#!/usr/bin/env bash
# Builds augem-serve (from the repository's workspace) and augem-bench
# (this directory's package) from source, then runs the benchmark with
# the given arguments, e.g.
#
#   bash benchmark/run.sh --workload cold-gemm --seed 1 --seconds 25 --trace 0
#
# Both executables land in $CARGO_TARGET_DIR/release (default: target/),
# where augem-bench finds the daemon next to itself. Build output goes to
# stderr, so the result stays the last line of stdout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p augem-serve >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/augem-bench" "$@"
