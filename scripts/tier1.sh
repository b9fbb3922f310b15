#!/usr/bin/env bash
# Tier-1 verification: build, tests, formatting, lints and example smoke
# tests — fully offline. The workspace has zero external dependencies, so
# every step below must succeed without registry access.
#
# `cargo test --workspace` runs every tests/*.rs target (fault_injection,
# parallel_sweep, …) and every member crate's unit tests; nothing is re-run
# individually. perfbench/ is a workspace of its own, so it gets its own fmt,
# clippy and test steps. The example smoke list is derived from examples/*.rs
# so new examples are covered automatically.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== lockfiles are current (cargo metadata --locked) =="
# Fails if either Cargo.lock would need rewriting: the workspace's, and the
# one perfbench/ (a separate workspace over the same path crates) records
# for the path crates' dependency edges.
cargo metadata --locked --offline --format-version 1 > /dev/null
cargo metadata --locked --offline --format-version 1 --manifest-path perfbench/Cargo.toml > /dev/null

echo "== cargo build --release =="
cargo build --release --offline

echo "== cargo test -q --workspace =="
cargo test -q --offline --workspace

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace -D warnings =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== perfbench: fmt, clippy -D warnings, tests =="
# perfbench calls the simulator's entry points (Machine::run_limited,
# run_observed, speed_stats, imo_coherence::simulate), so an API change that
# breaks it fails here. It builds into the root target/, as perfbench/run.sh
# does.
perfbench=(--manifest-path perfbench/Cargo.toml)
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}"
cargo fmt --check "${perfbench[@]}"
cargo clippy "${perfbench[@]}" --all-targets --offline -- -D warnings
cargo test -q --offline "${perfbench[@]}"

echo "== example smoke tests =="
for src in examples/*.rs; do
    ex="$(basename "$src" .rs)"
    echo "-- example: $ex"
    cargo run -q --release --offline --example "$ex" > /dev/null
done
echo "-- example: observe (in-order, cache+trap mask)"
cargo run -q --release --offline --example observe -- compress in-order cache,trap > /dev/null
echo "-- example: why_miss (xlisp pointer-chase attribution, in-order)"
cargo run -q --release --offline --example why_miss -- xlisp in-order > /dev/null

echo "== sweep-store gc smoke =="
# Drops .imo-cache entries whose code fingerprint no longer matches the
# binaries built above; a no-op on a fresh checkout.
scripts/store_gc.sh

echo "tier1: all checks passed"
