//! `ci_gate` — the bench regression gate.
//!
//! Re-runs the deterministic bench matrix through the same target modules
//! the `cargo bench` entry points use, then compares every regenerated
//! payload against the committed `BENCH_*.json` baselines:
//!
//! * **simulated counters** (cycles, misses, retries, normalized times, …)
//!   must match *exactly* — the sweep engine is deterministic, so any
//!   difference is a real behaviour change someone must either fix or
//!   re-baseline deliberately;
//! * **wall-clock fields** (`median_ns`, sample arrays, overhead ratios)
//!   are host-dependent and only checked against a wide tolerance band
//!   (`IMO_GATE_WALL_TOL`, default ×10 000).
//!
//! Also validates both the committed and regenerated documents against the
//! declarative schemas in [`imo_bench::gate`] — the same table
//! `examples/bench_check.rs` runs.
//!
//! Usage: `cargo run --release -p imo-bench --bin ci_gate [--skip-wall]
//! [--store-dir DIR] [--stats-json PATH] [--assert-warm PCT]
//! [--code-hash]`. `--skip-wall` skips the wall-clock targets
//! (`substrate`, `obs_overhead`, `simspeed`) entirely; by default they run
//! with fast sampling knobs (3 samples × 2 ms) unless the caller already
//! set `IMO_BENCH_SAMPLES` / `IMO_BENCH_SAMPLE_MS`. Exits nonzero on any
//! drift, schema violation, or missing baseline.
//!
//! Sweep-store flags (the cross-run incremental path, DESIGN.md §14):
//!
//! * `--code-hash` — print the code fingerprint addressing the on-disk
//!   store (the CI cache key) and exit;
//! * `--store-dir DIR` — use `DIR` instead of `<repo>/.imo-cache`
//!   (equivalent to `IMO_STORE_DIR`; `IMO_STORE=off|ro|rw` picks the mode);
//! * `--stats-json PATH` — write a machine-readable per-target stats
//!   document (wall ms, cells simulated / served from memory / served from
//!   disk) for CI artifacts and `scripts/tier2.sh`;
//! * `--assert-warm PCT` — fail unless at least `PCT`% of the distinct
//!   cells this run needed were served from the on-disk store: CI's warm
//!   job runs the gate twice and pins the second run ≥ 90%, then pins a
//!   `--skip-wall` run at 100%.

use std::process::ExitCode;
use std::time::Instant;

use imo_bench::gate::{self, Drift};
use imo_bench::report::repo_root;
use imo_bench::sweep::{self, MemoStats};
use imo_bench::targets;
use imo_bench::Table;
use imo_util::json::{parse, Json};

/// Outcome of gating one bench target.
struct TargetReport {
    name: &'static str,
    problems: Vec<String>,
    drifts: Vec<Drift>,
    skipped: bool,
}

impl TargetReport {
    fn ok(&self) -> bool {
        self.problems.is_empty() && self.drifts.is_empty()
    }
}

fn gate_target(t: &targets::Target, skip_wall: bool, wall_tol: f64) -> TargetReport {
    let mut rep =
        TargetReport { name: t.name, problems: Vec::new(), drifts: Vec::new(), skipped: false };
    if skip_wall && t.wall_clock {
        rep.skipped = true;
        return rep;
    }

    let schema = gate::schema_for(t.name).expect("every registered target has a schema");
    let path = repo_root().join(format!("BENCH_{}.json", t.name));
    let baseline = match std::fs::read_to_string(&path) {
        Ok(text) => match parse(&text) {
            Ok(doc) => doc,
            Err(e) => {
                rep.problems.push(format!("baseline is corrupt JSON: {e}"));
                return rep;
            }
        },
        Err(e) => {
            rep.problems.push(format!("baseline {} unreadable: {e}", path.display()));
            return rep;
        }
    };
    for e in gate::validate(&baseline, schema) {
        rep.problems.push(format!("committed baseline: {e}"));
    }

    // Regenerate through the same payload builder the bench target uses,
    // wrapped in the same envelope `write_bench_json` applies.
    let current = envelope(t.name, (t.payload)());
    for e in gate::validate(&current, schema) {
        rep.problems.push(format!("regenerated payload: {e}"));
    }

    rep.drifts = gate::diff(&baseline, &current, wall_tol);
    rep
}

/// The `write_bench_json` envelope, without touching the filesystem.
fn envelope(name: &str, payload: Json) -> Json {
    match payload {
        obj @ Json::Obj(_) if obj.get("bench").is_some() => obj,
        other => Json::obj([("bench", Json::from(name)), ("data", other)]),
    }
}

/// Parsed command line; see the module docs for flag meanings.
struct Args {
    skip_wall: bool,
    code_hash: bool,
    stats_json: Option<String>,
    assert_warm: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { skip_wall: false, code_hash: false, stats_json: None, assert_warm: None };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--skip-wall" => args.skip_wall = true,
            "--code-hash" => args.code_hash = true,
            "--store-dir" => {
                let dir = it.next().ok_or("--store-dir needs a directory")?;
                // Equivalent to the env knob; set before the store's first
                // use so the lazily opened global picks it up.
                std::env::set_var("IMO_STORE_DIR", dir);
            }
            "--stats-json" => {
                args.stats_json = Some(it.next().ok_or("--stats-json needs a path")?);
            }
            "--assert-warm" => {
                let pct = it.next().ok_or("--assert-warm needs a percentage")?;
                args.assert_warm =
                    Some(pct.parse().map_err(|_| format!("--assert-warm {pct}: not a number"))?);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Per-target gate accounting for `--stats-json`.
struct TargetStats {
    name: &'static str,
    wall_ms: u64,
    skipped: bool,
    /// Memo-counter deltas attributed to this target's regeneration.
    memo: MemoStats,
}

/// The effective store mode as a stats/summary token.
fn store_mode_str() -> &'static str {
    match sweep::store() {
        None => "off",
        Some(s) if s.mode() == imo_util::store::StoreMode::ReadOnly => "ro",
        Some(_) => "rw",
    }
}

fn memo_delta(before: MemoStats, after: MemoStats) -> MemoStats {
    MemoStats {
        requested: after.requested - before.requested,
        simulated: after.simulated - before.simulated,
        served_disk: after.served_disk - before.served_disk,
        disk_writes: after.disk_writes - before.disk_writes,
        disk_rejected: after.disk_rejected - before.disk_rejected,
    }
}

fn memo_json(m: &MemoStats) -> Vec<(&'static str, Json)> {
    vec![
        ("requested", Json::from(m.requested)),
        ("simulated", Json::from(m.simulated)),
        ("served_memory", Json::from(m.served_memory())),
        ("served_disk", Json::from(m.served_disk)),
    ]
}

/// The `--stats-json` document: per-target wall ms and cell provenance,
/// plus process totals and the store configuration.
fn stats_json(stats: &[TargetStats], totals: MemoStats, total_ms: u64) -> Json {
    let targets = stats.iter().map(|s| {
        let mut fields = vec![
            ("name", Json::from(s.name)),
            ("skipped", Json::Bool(s.skipped)),
            ("wall_ms", Json::from(s.wall_ms)),
        ];
        fields.extend(memo_json(&s.memo));
        Json::obj(fields)
    });
    let mut total_fields = vec![
        ("wall_ms", Json::from(total_ms)),
        ("disk_writes", Json::from(totals.disk_writes)),
        ("disk_rejected", Json::from(totals.disk_rejected)),
        ("disk_coverage_pct", Json::from(totals.disk_coverage_pct())),
    ];
    total_fields.extend(memo_json(&totals));
    Json::obj([
        ("ci_gate_stats", Json::from(1u64)),
        ("code_fingerprint", Json::Str(format!("{:016x}", sweep::code_fingerprint()))),
        ("store_mode", Json::from(store_mode_str())),
        ("targets", Json::arr(targets)),
        ("totals", Json::obj(total_fields)),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ci_gate: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.code_hash {
        println!("{:016x}", sweep::code_fingerprint());
        return ExitCode::SUCCESS;
    }
    let skip_wall = args.skip_wall;
    if !skip_wall {
        // Fast sampling for the wall-clock targets: the gate only sanity-
        // checks those numbers, so don't spend CI minutes refining medians.
        if std::env::var_os("IMO_BENCH_SAMPLES").is_none() {
            std::env::set_var("IMO_BENCH_SAMPLES", "3");
        }
        if std::env::var_os("IMO_BENCH_SAMPLE_MS").is_none() {
            std::env::set_var("IMO_BENCH_SAMPLE_MS", "2");
        }
    }
    let wall_tol = gate::wall_tolerance();

    println!(
        "ci_gate: regenerating the bench matrix ({} targets{}) and diffing against baselines",
        targets::registry().len(),
        if skip_wall { ", wall-clock targets skipped" } else { "" },
    );
    println!(
        "policy: simulated counters exact; wall-clock fields banded at x{wall_tol} \
         (IMO_GATE_WALL_TOL)\n"
    );

    let gate_start = Instant::now();
    let mut reports = Vec::new();
    let mut stats = Vec::new();
    for t in targets::registry() {
        let before = sweep::memo_stats();
        let t0 = Instant::now();
        let rep = gate_target(&t, skip_wall, wall_tol);
        let wall_ms = t0.elapsed().as_millis() as u64;
        let delta = memo_delta(before, sweep::memo_stats());
        let verdict = if rep.skipped {
            "skipped (wall-clock)"
        } else if rep.ok() {
            "clean"
        } else {
            "DRIFT"
        };
        println!("  {:<22} {verdict}", rep.name);
        stats.push(TargetStats { name: rep.name, wall_ms, skipped: rep.skipped, memo: delta });
        reports.push(rep);
    }
    let total_ms = gate_start.elapsed().as_millis() as u64;

    let memo = sweep::memo_stats();
    println!(
        "\nmemo: {} cells requested, {} simulated, {} served from memory, {} from disk \
         ({:.0}% hit rate; store {}, {} written, {} rejected)",
        memo.requested,
        memo.simulated,
        memo.served_memory(),
        memo.served_disk,
        memo.hit_rate() * 100.0,
        store_mode_str(),
        memo.disk_writes,
        memo.disk_rejected,
    );

    if let Some(path) = &args.stats_json {
        let doc = stats_json(&stats, memo, total_ms);
        if let Err(e) = std::fs::write(path, doc.pretty()) {
            eprintln!("ci_gate: writing --stats-json {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("ci_gate: wrote per-target stats to {path}");
    }

    let mut warm_failed = false;
    if let Some(floor) = args.assert_warm {
        let cov = memo.disk_coverage_pct();
        let distinct = memo.simulated + memo.served_disk;
        if cov < floor {
            eprintln!(
                "ci_gate: --assert-warm {floor}: only {} of {distinct} distinct cells came \
                 from the store ({cov:.1}% < {floor}%) — the warm path is not serving",
                memo.served_disk,
            );
            warm_failed = true;
        } else {
            println!(
                "warm store: {} of {distinct} distinct cells served from disk \
                 ({cov:.1}% ≥ {floor}% floor)",
                memo.served_disk,
            );
        }
    }

    let bad: Vec<&TargetReport> = reports.iter().filter(|r| !r.ok()).collect();
    if bad.is_empty() {
        if warm_failed {
            return ExitCode::FAILURE;
        }
        println!("\nci_gate: clean — every regenerated payload matches its committed baseline");
        return ExitCode::SUCCESS;
    }

    let mut t = Table::new(["bench", "path", "baseline", "current", "why"]);
    for rep in &bad {
        for p in &rep.problems {
            t.row([rep.name.to_string(), "-".into(), "-".into(), "-".into(), p.clone()]);
        }
        for d in &rep.drifts {
            t.row([
                rep.name.to_string(),
                d.path.clone(),
                clip(&d.baseline),
                clip(&d.current),
                d.why.clone(),
            ]);
        }
    }
    println!("\nci_gate: DRIFT in {} target(s)\n", bad.len());
    print!("{}", t.render());
    println!(
        "\nIf the change is intentional, regenerate baselines with scripts/tier2.sh \
         (or `cargo bench -p imo-bench`) and commit the updated BENCH_*.json."
    );
    ExitCode::FAILURE
}

fn clip(s: &str) -> String {
    const MAX: usize = 40;
    if s.chars().count() <= MAX {
        s.to_string()
    } else {
        let head: String = s.chars().take(MAX - 1).collect();
        format!("{head}…")
    }
}
