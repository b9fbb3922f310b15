#!/usr/bin/env bash
# Tier-2 verification: regenerate the full bench matrix (all 15 targets,
# which rewrites every BENCH_*.json at the repo root) and then run the
# regression gate against the refreshed tree. Each step reports its
# wall-clock time.
#
# The deterministic targets fan out across the worker pool
# (IMO_THREADS overrides the thread count; output is byte-identical at
# any setting). The wall-clock targets (substrate, obs_overhead,
# simspeed) honour IMO_BENCH_SAMPLES / IMO_BENCH_SAMPLE_MS for faster
# sampling.
#
# Use this to (re)baseline after an intentional behaviour change:
#   scripts/tier2.sh && git add BENCH_*.json
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHES=(table1 fig2 fig3 handler100 branch_vs_exception table2 fig4 \
         fig4_sensitivity ablation_mshr ablation_checkpoints \
         fault_resilience attrib substrate obs_overhead simspeed)

total_start=$(date +%s%N)
step() { # step <label> <cmd...>
    local label=$1; shift
    local t0 t1
    t0=$(date +%s%N)
    "$@" > /dev/null
    t1=$(date +%s%N)
    printf '%-28s %6d ms\n' "$label" $(( (t1 - t0) / 1000000 ))
}

echo "== build bench harnesses =="
step "build" cargo build --release --offline -p imo-bench --benches --bins

echo "== bench matrix (${#BENCHES[@]} targets) =="
for b in "${BENCHES[@]}"; do
    step "bench: $b" cargo bench -q --offline -p imo-bench --bench "$b"
done

echo "== ci_gate against the regenerated tree =="
t0=$(date +%s%N)
gate_out=$(cargo run -q --release --offline -p imo-bench --bin ci_gate -- \
    --stats-json ci_gate_stats.json)
t1=$(date +%s%N)
printf '%-28s %6d ms\n' "ci_gate" $(( (t1 - t0) / 1000000 ))

# Surface the simulator-performance and memo-dedup numbers the gate and
# the simspeed baseline measured: total cells simulated vs served from
# the memo cache (in-process and on-disk), and sim-cycles/sec of the
# event-driven cores. The per-target table comes from ci_gate
# --stats-json — the same document CI uploads as an artifact.
echo "== simulator performance =="
grep '^memo:' <<< "$gate_out" || true
python3 - <<'PY' 2>/dev/null || true
import json
doc = json.load(open("ci_gate_stats.json"))
print(f'gate store: mode {doc["store_mode"]}, code fingerprint {doc["code_fingerprint"]}')
for t in doc["targets"]:
    note = "  (skipped)" if t["skipped"] else ""
    print(f'gate: {t["name"]:22s} {t["wall_ms"]:6d} ms  '
          f'sim {t["simulated"]:4d}  mem {t["served_memory"]:4d}  '
          f'disk {t["served_disk"]:4d}{note}')
tot = doc["totals"]
print(f'gate totals: {tot["wall_ms"]} ms, {tot["simulated"]} simulated, '
      f'{tot["served_memory"]} served from memory, {tot["served_disk"]} from disk '
      f'({tot["disk_coverage_pct"]:.1f}% disk coverage)')
PY
python3 - <<'PY' 2>/dev/null || true
import json
doc = json.load(open("BENCH_simspeed.json"))
for r in doc["data"]["rows"]:
    print(f'simspeed: {r["machine"]:9s} {r["scheme"]:9s} '
          f'{r["cycles_per_sec"] / 1e6:7.1f} Mcycles/s  '
          f'{r["speedup_vs_tick"]:.2f}x vs tick-accurate  '
          f'block hit {r["block_hit_rate"] * 100:.1f}%  '
          f'batched {r["batched_instr_pct"]:.1f}%')
d = doc["data"]["dedup"]
print(f'simspeed dedup proof: {d["requested"]} requested, '
      f'{d["simulated"]} simulated, {d["deduped"]} served from cache')
PY

total_end=$(date +%s%N)
printf 'tier2: all steps passed in %d ms\n' $(( (total_end - total_start) / 1000000 ))
