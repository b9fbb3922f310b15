#!/usr/bin/env bash
# A/B performance comparison of two revisions, both built at one path.
#
#   scripts/perf_ab.sh <parent-rev> <change-rev> <workload> [pairs]
#
# Two builds of identical sources from different checkout paths have read
# 15% apart on the same workload: the path enters the build, and with it the
# code layout. So this script `git archive`s each revision in turn into one
# fixed directory,
# builds `ci_gate` and perfbench's `perf` there with one CARGO_TARGET_DIR,
# and keeps each side's pair of binaries. It then runs `pairs` (default and
# minimum 10) alternating untraced pairs of `perf --workload <workload>`,
# each as long as BENCHMARK.json's `run_seconds`, and prints `perf compare`
# over them.
#
# Before each run it restores that side's BENCH_*.json into the build
# directory, which is also the working directory: `perf` reads its oracle
# from the working directory and `ci_gate` reads baselines from the path it
# was built at.
#
# PERF_AB_DIR (default target/perf_ab under the repository) sets the build
# directory. Result files and per-run logs land in $PERF_AB_DIR/out/<workload>.
# An uncommitted working tree can be compared as `git stash create`'s
# commit.
set -euo pipefail

if [[ $# -lt 3 || $# -gt 4 ]]; then
    echo "usage: $0 <parent-rev> <change-rev> <workload> [pairs]" >&2
    exit 2
fi
parent_rev=$1
change_rev=$2
workload=$3
pairs=${4:-10}
if ! [[ "$pairs" =~ ^[0-9]+$ ]] || (( pairs < 10 )); then
    echo "perf_ab: pairs must be a whole number of at least 10, got $pairs" >&2
    exit 2
fi

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
base="${PERF_AB_DIR:-$repo/target/perf_ab}"
mkdir -p "$base"
base="$(cd "$base" && pwd)"
src="$base/src"
out="$base/out/$workload"
seconds=$(sed -n 's/^ *"run_seconds": *\([0-9.]*\).*/\1/p' "$repo/BENCHMARK.json")
: "${seconds:?perf_ab: no run_seconds in BENCHMARK.json}"
export CARGO_TARGET_DIR="$base/target"

# Checks out `rev` at $src, builds both binaries and keeps them, with the
# revision's baselines, under $base/<side>. `tar -m` stamps every file with
# the time of extraction: cargo rebuilds a path crate only when a source is
# newer than its last build, and the commit's own timestamps would be older
# than the other side's build at this same path.
build_side() {
    local side=$1 rev=$2
    echo "perf_ab: building $side ($rev) at $src" >&2
    rm -rf "$src" "${base:?}/$side"
    mkdir -p "$src" "$base/$side"
    git -C "$repo" archive "$rev" | tar -x -m -C "$src"
    cargo build --release --offline --quiet --manifest-path "$src/Cargo.toml" \
        -p imo-bench --bin ci_gate >&2
    cargo build --release --offline --quiet --manifest-path "$src/perfbench/Cargo.toml" >&2
    cp "$CARGO_TARGET_DIR/release/perf" "$CARGO_TARGET_DIR/release/ci_gate" "$base/$side/"
    cp "$src"/BENCH_*.json "$base/$side/"
}

build_side parent "$parent_rev"
build_side change "$change_rev"

# Sources that differ must build differing binaries; the same binary on both
# sides means one build was stale and the comparison would be of one side
# with itself.
if ! git -C "$repo" diff --quiet "$parent_rev" "$change_rev" -- crates perfbench; then
    for bin in perf ci_gate; do
        if cmp -s "$base/parent/$bin" "$base/change/$bin"; then
            echo "perf_ab: both sides built the same $bin from differing sources" >&2
            exit 1
        fi
    done
fi

# One untraced run of `side`'s binaries against its own baselines.
run_side() {
    local side=$1 i=$2
    rm -f "$src"/BENCH_*.json
    cp "$base/$side"/BENCH_*.json "$src/"
    echo "perf_ab: pair $i, $side" >&2
    (cd "$src" && "$base/$side/perf" --workload "$workload" --seed 1996 \
        --seconds "$seconds" --trace 0 --out "$out/$side-$i.json") > "$out/$side-$i.log"
}

rm -rf "$out"
mkdir -p "$out"
parents=()
changes=()
for ((i = 1; i <= pairs; i++)); do
    # Swap the order every other pair so slow drift of the host does not
    # always favour the side that runs first.
    if (( i % 2 )); then
        run_side parent "$i"
        run_side change "$i"
    else
        run_side change "$i"
        run_side parent "$i"
    fi
    parents+=("$out/parent-$i.json")
    changes+=("$out/change-$i.json")
done

cd "$src"
"$base/change/perf" compare --parent "${parents[@]}" --change "${changes[@]}"
for side in parent change; do
    # The last line of each run's output is its JSON result.
    failed=$(tail -q -n 1 "$out/$side"-*.log | sed -n 's/.*"failed":\([0-9]*\).*/\1/p' |
        awk '{ n += $1 } END { print n + 0 }')
    echo "$side: $failed failed operations in $pairs runs"
done
