#!/usr/bin/env bash
# Builds sjbench (release, offline) and runs it from the root of the
# repository, so relative paths (--out, CARGO_TARGET_DIR) start there.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
#   benchmark/run.sh compare A B
#
# Without --workload every workload runs, each in a fresh process. Each run
# prints a `detail` line and then, last, its result line.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
bin="$target/release/sjbench"

if [[ "${1:-}" == compare ]]; then
    exec "$bin" "$@"
fi

has_workload=0
for arg in "$@"; do
    [[ "$arg" == --workload ]] && has_workload=1
done
if (( has_workload )); then
    exec "$bin" "$@"
fi
status=0
for workload in lowsel hisel bigself serve; do
    "$bin" --workload "$workload" "$@" || status=$?
done
exit "$status"
