#!/usr/bin/env bash
# Build the program (`dist_train`) and the benchmark in release, side by
# side in one target directory, then run the benchmark with the given
# arguments (default: every workload, seed 42).
#
#   bash benchmark/run.sh                       # all workloads, end-to-end
#   bash benchmark/run.sh --all --traced        # plus the per-layer pass
#   bash benchmark/run.sh --workload wire_bw_4m --seed 7 --seconds 10 --trace 0
#
# Runs from the repo root, which is where relative paths (a relative
# CARGO_TARGET_DIR, artifacts/benchmark/) are resolved. Build chatter
# goes to stderr; stdout carries only the benchmark's own output.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p trainer --bin dist_train >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
if [ "$#" -eq 0 ]; then
    set -- --all --seed 42
fi
# Not `exec`: the benchmark reads the peak RSS of its waited-for children
# (the `dist_train` processes), and a process that replaced this shell would
# inherit cargo's as if they were its own.
"$CARGO_TARGET_DIR/release/benchmark" "$@"
