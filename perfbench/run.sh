#!/usr/bin/env bash
# Builds the simulator's `ci_gate` and this benchmark's `perf` binary into one
# target directory, then runs `perf` with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload fig2-inorder --seed 1996 --seconds 15 --trace 0
#
# Run it from the repository root. Build output goes to stderr, so the last
# line on stdout is perf's JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p imo-bench --bin ci_gate >&2
cargo build --release --offline --quiet --manifest-path "$root/perfbench/Cargo.toml" >&2
exec "$target/release/perf" "$@"
