#!/usr/bin/env bash
# Builds streamlinc, streamlind and the benchmark from source, then runs
# the benchmark with the arguments given. Run from the repository root:
#
#   bash benchmark/run.sh --workload steady_kernel --seed 1 --seconds 10 --trace 0
#
# Both builds go to $CARGO_TARGET_DIR (default: target) and need no network.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
# Build output goes to stderr, and only when a build fails: the last line
# of stdout has to be the benchmark's result.
build() {
    local log
    if ! log=$(cargo build --release --offline --quiet "$@" 2>&1); then
        echo "$log" >&2
        exit 1
    fi
}
build --bin streamlinc --bin streamlind
build --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/harness" --bin-dir "$CARGO_TARGET_DIR/release" "$@"
