//! The baseline regression gate: declarative schemas for every
//! `BENCH_*.json` baseline, plus the exact/tolerance diff engine `ci_gate`
//! runs against a freshly regenerated matrix.
//!
//! Two layers:
//!
//! * **Schema validation** ([`SCHEMAS`], [`validate`]) — one declarative
//!   rule table per bench target, replacing per-bench ad-hoc checks. Rules
//!   are `(path, expectation)` pairs; paths are dot-separated with `[*]`
//!   fanning out over every array element. `examples/bench_check.rs` and
//!   `ci_gate` both run these.
//! * **Drift diffing** ([`diff`]) — compares a committed baseline document
//!   against a regenerated one. Simulated counters (cycles, misses, retry
//!   counts, …) must match **exactly**: the sweep engine is deterministic,
//!   so any difference is a real behaviour change. Host wall-clock fields
//!   (`median_ns`, sample arrays, calibration, overhead ratios) are
//!   machine-dependent and are checked against a wide tolerance band
//!   instead (`IMO_GATE_WALL_TOL`, default ×10 000 — catches corrupt or
//!   non-finite values, not host speed).

use imo_util::json::Json;

/// What a schema rule expects at its path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expect {
    /// A boolean `true` (proof obligations like `zero_fault_identical`).
    True,
    /// Any finite number.
    Num,
    /// A finite number `> 0`.
    NumPos,
    /// A non-empty string.
    Str,
    /// An array of exactly this length.
    ArrLen(usize),
    /// An array of at least this length.
    ArrMin(usize),
}

/// One declarative check: every node selected by `path` must satisfy
/// `expect`.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Dot-separated path from the document root; `key[*]` fans out over
    /// every element of the array at `key`.
    pub path: &'static str,
    /// The expectation at that path.
    pub expect: Expect,
}

/// The schema of one baseline file.
#[derive(Debug, Clone, Copy)]
pub struct BenchSchema {
    /// Baseline name (`BENCH_<name>.json`).
    pub name: &'static str,
    /// All rules; every one must hold.
    pub rules: &'static [Rule],
}

const fn r(path: &'static str, expect: Expect) -> Rule {
    Rule { path, expect }
}

/// The declarative schema table, one entry per registered bench target.
pub const SCHEMAS: &[BenchSchema] = &[
    BenchSchema {
        name: "table1",
        rules: &[
            r("data.pipeline", Expect::ArrMin(9)),
            r("data.memory", Expect::ArrMin(8)),
            r("data.pipeline[*].Out-Of-Order", Expect::Str),
            r("data.memory[*].In-Order", Expect::Str),
        ],
    },
    BenchSchema {
        name: "fig2",
        rules: &[
            r("data", Expect::ArrLen(26)), // 13 workloads x 2 machines
            r("data[*].workload", Expect::Str),
            r("data[*].machine", Expect::Str),
            r("data[*].variants", Expect::ArrLen(5)), // N, 1S, 1U, 10S, 10U
            r("data[*].variants[*].variant", Expect::Str),
            r("data[*].variants[*].cycles", Expect::NumPos),
            r("data[*].variants[*].norm_time", Expect::NumPos),
            r("data[*].variants[*].instr_ratio", Expect::NumPos),
        ],
    },
    BenchSchema {
        name: "fig3",
        rules: &[
            r("data", Expect::ArrLen(2)), // su2cor x 2 machines
            r("data[*].workload", Expect::Str),
            r("data[*].variants", Expect::ArrLen(5)),
            r("data[*].variants[*].cycles", Expect::NumPos),
            r("data[*].variants[*].norm_time", Expect::NumPos),
        ],
    },
    BenchSchema {
        name: "handler100",
        rules: &[
            r("data", Expect::ArrLen(6)),             // 3 workloads x 2 machines
            r("data[*].variants", Expect::ArrLen(3)), // N, 100S, 100/16
            r("data[*].variants[*].cycles", Expect::NumPos),
            r("data[*].variants[*].norm_time", Expect::NumPos),
        ],
    },
    BenchSchema {
        name: "branch_vs_exception",
        rules: &[
            r("data", Expect::ArrLen(4)), // 2 handler lengths x 2 trap models
            r("data[*].handler_len", Expect::NumPos),
            r("data[*].trap_model", Expect::Str),
            r("data[*].cycles", Expect::NumPos),
            r("data[*].norm_time", Expect::NumPos),
        ],
    },
    BenchSchema {
        name: "table2",
        rules: &[
            r("data.machine", Expect::ArrMin(5)),
            r("data.approaches", Expect::ArrLen(3)),
            r("data.approaches[*].Costs", Expect::Str),
        ],
    },
    BenchSchema {
        name: "fig4",
        rules: &[
            r("data", Expect::ArrLen(5)), // 5 parallel apps
            r("data[*].app", Expect::Str),
            r("data[*].schemes", Expect::ArrLen(3)),
            r("data[*].schemes[*].total_cycles", Expect::NumPos),
            r("data[*].schemes[*].norm_time", Expect::NumPos),
        ],
    },
    BenchSchema {
        name: "fig4_sensitivity",
        rules: &[
            r("data.msg_latency_sweep", Expect::ArrLen(3)),
            r("data.l1_size_sweep", Expect::ArrLen(3)),
            r("data.msg_latency_sweep[*].refcheck_over_informing", Expect::NumPos),
            r("data.msg_latency_sweep[*].ecc_over_informing", Expect::NumPos),
            r("data.l1_size_sweep[*].refcheck_over_informing", Expect::NumPos),
            r("data.l1_size_sweep[*].ecc_over_informing", Expect::NumPos),
        ],
    },
    BenchSchema {
        name: "ablation_mshr",
        rules: &[
            r("data", Expect::ArrLen(2)), // standard, extended-lifetime
            r("data[*].mode", Expect::Str),
            r("data[*].squashed_loads", Expect::NumPos),
            r("data[*].silent_l1_installs", Expect::Num),
            r("data[*].squash_invalidations", Expect::Num),
            r("data[*].l2_prefetches", Expect::Num),
        ],
    },
    BenchSchema {
        name: "ablation_checkpoints",
        rules: &[
            r("data", Expect::ArrLen(5)), // checkpoint budgets 1, 2, 3, 6, 12
            r("data[*].checkpoints", Expect::NumPos),
            r("data[*].cycles", Expect::NumPos),
            r("data[*].slowdown_vs_12", Expect::NumPos),
        ],
    },
    BenchSchema {
        name: "fault_resilience",
        rules: &[
            r("data.zero_fault_identical", Expect::True),
            r("data.baseline_cycles", Expect::NumPos),
            r("data.sweep", Expect::ArrLen(15)), // 3 policies x 5 drop rates
            r("data.sweep[*].policy", Expect::Str),
            r("data.sweep[*].total_cycles", Expect::NumPos),
            r("data.sweep[*].slowdown", Expect::NumPos),
            r("data.sweep[*].retries", Expect::Num),
            r("data.sweep[*].timeouts", Expect::Num),
        ],
    },
    BenchSchema {
        name: "attrib",
        rules: &[
            r("data.cpu", Expect::ArrLen(28)), // 14 workloads x 2 machines
            r("data.cpu[*].workload", Expect::Str),
            r("data.cpu[*].machine", Expect::Str),
            r("data.cpu[*].demand_refs", Expect::NumPos),
            r("data.cpu[*].demand_misses", Expect::Num),
            r("data.cpu[*].compulsory", Expect::Num),
            r("data.cpu[*].coherence", Expect::Num),
            r("data.cpu[*].capacity", Expect::Num),
            r("data.cpu[*].conflict", Expect::Num),
            r("data.cpu[*].reconciled", Expect::True),
            r("data.cpu[*].passive", Expect::True),
            r("data.cpu[*].hot_pattern", Expect::Str),
            r("data.coherence", Expect::ArrLen(3)), // 3 schemes
            r("data.coherence[*].scheme", Expect::Str),
            r("data.coherence[*].classified", Expect::NumPos),
            r("data.coherence[*].coherence", Expect::NumPos),
            r("data.coherence[*].reconciled", Expect::True),
        ],
    },
    BenchSchema {
        name: "substrate",
        rules: &[
            r("unit", Expect::Str),
            r("results", Expect::ArrLen(7)),
            r("results[*].id", Expect::Str),
            r("results[*].median_ns", Expect::NumPos),
            r("results[*].samples", Expect::ArrMin(1)),
        ],
    },
    BenchSchema {
        name: "obs_overhead",
        rules: &[
            r("data.disabled_identical", Expect::True),
            r("data.full_identical", Expect::True),
            r("data.attrib_identical", Expect::True),
            r("data.coherence_identical", Expect::True),
            r("data.attrib_within_ceiling", Expect::True),
            r("data.attrib_ceiling", Expect::NumPos),
            r("data.overheads", Expect::ArrLen(2)), // ooo, inorder
            r("data.overheads[*].machine", Expect::Str),
            r("data.overheads[*].disabled_over_plain", Expect::NumPos),
            r("data.overheads[*].full_over_plain", Expect::NumPos),
            r("data.overheads[*].attrib_over_plain", Expect::NumPos),
            // Exact: observed runs must keep the block-batch fast path.
            r("data.overheads[*].observed_batched_instr_pct", Expect::NumPos),
            r("data.timings.results", Expect::ArrLen(8)),
            r("data.timings.results[*].median_ns", Expect::NumPos),
        ],
    },
    BenchSchema {
        name: "simspeed",
        rules: &[
            r("data.workload", Expect::Str),
            r("data.rows", Expect::ArrLen(6)), // 2 machines x 3 schemes
            r("data.rows[*].machine", Expect::Str),
            r("data.rows[*].scheme", Expect::Str),
            r("data.rows[*].sim_cycles", Expect::NumPos),
            r("data.rows[*].instructions", Expect::NumPos),
            r("data.rows[*].identical_to_tick_accurate", Expect::True),
            r("data.rows[*].wall_ns", Expect::NumPos),
            r("data.rows[*].wall_min_ns", Expect::NumPos),
            r("data.rows[*].tick_wall_ns", Expect::NumPos),
            r("data.rows[*].tick_wall_min_ns", Expect::NumPos),
            r("data.rows[*].cycles_per_sec", Expect::NumPos),
            r("data.rows[*].speedup_vs_tick", Expect::NumPos),
            // Exact fast-path coverage counters (compared bit-for-bit, not
            // wall-banded): every row must actually engage the block cache.
            r("data.rows[*].block_hit_rate", Expect::NumPos),
            r("data.rows[*].batched_instr_pct", Expect::NumPos),
            r("data.dedup.requested", Expect::NumPos),
            r("data.dedup.simulated", Expect::NumPos),
            r("data.dedup.deduped", Expect::NumPos),
            r("data.dedup.hit_rate", Expect::NumPos),
        ],
    },
];

/// Looks a schema up by bench name.
#[must_use]
pub fn schema_for(name: &str) -> Option<&'static BenchSchema> {
    SCHEMAS.iter().find(|s| s.name == name)
}

/// Selects every node matching a `a.b[*].c` path. Errors name the missing
/// segment.
fn select<'a>(doc: &'a Json, path: &str) -> Result<Vec<&'a Json>, String> {
    let mut nodes = vec![doc];
    for seg in path.split('.') {
        let (key, fan_out) = match seg.strip_suffix("[*]") {
            Some(k) => (k, true),
            None => (seg, false),
        };
        let mut next = Vec::new();
        for n in nodes {
            let v = n.get(key).ok_or_else(|| format!("missing `{key}` (path `{path}`)"))?;
            if fan_out {
                let items =
                    v.as_arr().ok_or_else(|| format!("`{key}` is not an array (path `{path}`)"))?;
                next.extend(items);
            } else {
                next.push(v);
            }
        }
        nodes = next;
    }
    Ok(nodes)
}

fn check_node(node: &Json, expect: Expect) -> Result<(), String> {
    match expect {
        Expect::True => match node {
            Json::Bool(true) => Ok(()),
            Json::Bool(false) => Err("is false (a proof obligation failed)".to_string()),
            _ => Err("expected boolean true".to_string()),
        },
        Expect::Num => match node {
            Json::Num(n) if n.is_finite() => Ok(()),
            _ => Err("expected a finite number".to_string()),
        },
        Expect::NumPos => match node {
            Json::Num(n) if n.is_finite() && *n > 0.0 => Ok(()),
            _ => Err("expected a finite number > 0".to_string()),
        },
        Expect::Str => match node {
            Json::Str(s) if !s.is_empty() => Ok(()),
            _ => Err("expected a non-empty string".to_string()),
        },
        Expect::ArrLen(want) => match node {
            Json::Arr(items) if items.len() == want => Ok(()),
            Json::Arr(items) => Err(format!("expected {want} elements, found {}", items.len())),
            _ => Err("expected an array".to_string()),
        },
        Expect::ArrMin(want) => match node {
            Json::Arr(items) if items.len() >= want => Ok(()),
            Json::Arr(items) => Err(format!("expected >= {want} elements, found {}", items.len())),
            _ => Err("expected an array".to_string()),
        },
    }
}

/// Validates a parsed baseline document against its schema. Returns every
/// violation (empty = valid). The `bench` envelope name must also match.
#[must_use]
pub fn validate(doc: &Json, schema: &BenchSchema) -> Vec<String> {
    let mut errs = Vec::new();
    match doc.get("bench").and_then(Json::as_str) {
        Some(n) if n == schema.name => {}
        Some(n) => errs.push(format!("envelope names `{n}`, expected `{}`", schema.name)),
        None => errs.push("missing the `bench` envelope".to_string()),
    }
    for rule in schema.rules {
        match select(doc, rule.path) {
            Err(e) => errs.push(e),
            Ok(nodes) => {
                for node in nodes {
                    if let Err(e) = check_node(node, rule.expect) {
                        errs.push(format!("`{}`: {e}", rule.path));
                    }
                }
            }
        }
    }
    errs
}

/// Keys holding host wall-clock measurements: machine-dependent, compared
/// with a tolerance band instead of exactly.
pub const WALL_KEYS: &[&str] = &[
    "median_ns",
    "min_ns",
    "max_ns",
    "samples",
    "iters_per_sample",
    "disabled_over_plain",
    "full_over_plain",
    "attrib_over_plain",
    "wall_ns",
    "wall_min_ns",
    "tick_wall_ns",
    "tick_wall_min_ns",
    "cycles_per_sec",
    "speedup_vs_tick",
];

/// The wall-clock tolerance factor: `IMO_GATE_WALL_TOL` or a wide default.
/// A wall field drifts only if `max/min > tol` (or a value is non-finite
/// or non-positive) — CI hosts differ from the recording host, so the
/// default band catches corruption, not speed.
#[must_use]
pub fn wall_tolerance() -> f64 {
    std::env::var("IMO_GATE_WALL_TOL")
        .ok()
        .and_then(|v| v.trim().parse::<f64>().ok())
        .filter(|t| t.is_finite() && *t >= 1.0)
        .unwrap_or(10_000.0)
}

/// One drift between the committed baseline and the regenerated matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Drift {
    /// Path of the differing node.
    pub path: String,
    /// Committed value (rendered).
    pub baseline: String,
    /// Regenerated value (rendered).
    pub current: String,
    /// What rule failed.
    pub why: String,
}

fn drift(path: &str, base: &Json, cur: &Json, why: impl Into<String>) -> Drift {
    Drift {
        path: path.to_string(),
        baseline: base.to_string(),
        current: cur.to_string(),
        why: why.into(),
    }
}

fn wall_number_ok(n: f64) -> bool {
    n.is_finite() && n >= 0.0
}

fn diff_wall(path: &str, base: &Json, cur: &Json, tol: f64, out: &mut Vec<Drift>) {
    match (base, cur) {
        (Json::Num(b), Json::Num(c)) => {
            if !wall_number_ok(*b) || !wall_number_ok(*c) {
                out.push(drift(path, base, cur, "wall-clock value must be finite and >= 0"));
            } else if *b > 0.0 && *c > 0.0 {
                let ratio = if b > c { b / c } else { c / b };
                if ratio > tol {
                    out.push(drift(
                        path,
                        base,
                        cur,
                        format!("wall-clock ratio {ratio:.1} exceeds tolerance {tol}"),
                    ));
                }
            }
        }
        // Sample arrays: length depends on IMO_BENCH_SAMPLES; only sanity-
        // check the regenerated values.
        (Json::Arr(_), Json::Arr(c)) => {
            for (i, v) in c.iter().enumerate() {
                match v {
                    Json::Num(n) if wall_number_ok(*n) => {}
                    _ => out.push(drift(
                        &format!("{path}[{i}]"),
                        base,
                        v,
                        "wall-clock sample must be a finite number",
                    )),
                }
            }
        }
        _ => out.push(drift(path, base, cur, "wall-clock field changed shape")),
    }
}

fn diff_walk(
    path: &str,
    key: Option<&str>,
    base: &Json,
    cur: &Json,
    tol: f64,
    out: &mut Vec<Drift>,
) {
    if let Some(k) = key {
        if WALL_KEYS.contains(&k) {
            diff_wall(path, base, cur, tol, out);
            return;
        }
    }
    match (base, cur) {
        (Json::Obj(b), Json::Obj(c)) => {
            for (k, bv) in b {
                match c.iter().find(|(ck, _)| ck == k) {
                    Some((_, cv)) => {
                        diff_walk(&format!("{path}.{k}"), Some(k), bv, cv, tol, out);
                    }
                    None => out.push(drift(&format!("{path}.{k}"), bv, &Json::Null, "key removed")),
                }
            }
            for (k, cv) in c {
                if !b.iter().any(|(bk, _)| bk == k) {
                    out.push(drift(&format!("{path}.{k}"), &Json::Null, cv, "key added"));
                }
            }
        }
        (Json::Arr(b), Json::Arr(c)) => {
            if b.len() != c.len() {
                out.push(drift(
                    path,
                    &Json::from(b.len()),
                    &Json::from(c.len()),
                    "array length changed",
                ));
                return;
            }
            for (i, (bv, cv)) in b.iter().zip(c).enumerate() {
                diff_walk(&format!("{path}[{i}]"), None, bv, cv, tol, out);
            }
        }
        (Json::Num(b), Json::Num(c)) => {
            let same = b == c || (b.is_nan() && c.is_nan());
            if !same {
                out.push(drift(path, base, cur, "simulated counter must match exactly"));
            }
        }
        _ => {
            if base != cur {
                out.push(drift(path, base, cur, "value changed"));
            }
        }
    }
}

/// Diffs a committed baseline against a regenerated document. Simulated
/// counters compare exactly; [`WALL_KEYS`] fields use the tolerance band.
/// Returns every drift (empty = the tree is clean).
#[must_use]
pub fn diff(baseline: &Json, current: &Json, wall_tol: f64) -> Vec<Drift> {
    let mut out = Vec::new();
    diff_walk("$", None, baseline, current, wall_tol, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use imo_util::json::parse;

    fn fig4ish(cycles: u64) -> Json {
        parse(&format!(
            r#"{{"bench": "x", "data": [{{"app": "lu", "total_cycles": {cycles},
                "median_ns": 10.0, "samples": [1.0, 2.0]}}]}}"#
        ))
        .expect("parses")
    }

    #[test]
    fn schema_table_covers_every_registered_target() {
        let mut names: Vec<_> = SCHEMAS.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SCHEMAS.len(), "duplicate schema names");
        let mut targets: Vec<_> = crate::targets::registry().iter().map(|t| t.name).collect();
        targets.sort_unstable();
        assert_eq!(names, targets, "one schema per registered target");
    }

    #[test]
    fn select_fans_out_over_arrays() {
        let doc = parse(r#"{"data": [{"v": 1}, {"v": 2}]}"#).expect("parses");
        let nodes = select(&doc, "data[*].v").expect("selects");
        assert_eq!(nodes.len(), 2);
        assert!(select(&doc, "data[*].missing").is_err());
        assert!(select(&doc, "nope").is_err());
    }

    #[test]
    fn validate_flags_wrong_shapes() {
        const RULES: &[Rule] = &[r("data", Expect::ArrLen(2)), r("data[*].v", Expect::NumPos)];
        let schema = BenchSchema { name: "x", rules: RULES };
        let good = parse(r#"{"bench": "x", "data": [{"v": 1}, {"v": 2}]}"#).expect("parses");
        assert!(validate(&good, &schema).is_empty());
        let bad = parse(r#"{"bench": "x", "data": [{"v": 0}]}"#).expect("parses");
        let errs = validate(&bad, &schema);
        assert_eq!(errs.len(), 2, "length and positivity both fail: {errs:?}");
        let unnamed = parse(r#"{"data": [{"v": 1}, {"v": 2}]}"#).expect("parses");
        assert_eq!(validate(&unnamed, &schema).len(), 1);
    }

    #[test]
    fn exact_fields_must_match_exactly() {
        let drifts = diff(&fig4ish(100), &fig4ish(101), 10_000.0);
        assert_eq!(drifts.len(), 1);
        assert!(drifts[0].path.contains("total_cycles"), "{drifts:?}");
        assert!(diff(&fig4ish(100), &fig4ish(100), 10_000.0).is_empty());
    }

    #[test]
    fn wall_fields_use_the_band() {
        let base = parse(r#"{"median_ns": 10.0}"#).expect("parses");
        let near = parse(r#"{"median_ns": 25.0}"#).expect("parses");
        let far = parse(r#"{"median_ns": 2000000.0}"#).expect("parses");
        assert!(diff(&base, &near, 100.0).is_empty());
        assert_eq!(diff(&base, &far, 100.0).len(), 1);
        // Sample arrays may change length freely.
        let s1 = parse(r#"{"samples": [1.0, 2.0, 3.0]}"#).expect("parses");
        let s2 = parse(r#"{"samples": [4.0]}"#).expect("parses");
        assert!(diff(&s1, &s2, 100.0).is_empty());
    }

    #[test]
    fn structural_drift_is_reported() {
        let a = parse(r#"{"k": 1, "gone": 2}"#).expect("parses");
        let b = parse(r#"{"k": 1, "new": 3}"#).expect("parses");
        let drifts = diff(&a, &b, 100.0);
        assert_eq!(drifts.len(), 2);
        let a = parse(r#"{"rows": [1, 2]}"#).expect("parses");
        let b = parse(r#"{"rows": [1]}"#).expect("parses");
        assert_eq!(diff(&a, &b, 100.0).len(), 1);
    }

    #[test]
    fn committed_baselines_satisfy_their_schemas() {
        let root = crate::report::repo_root();
        for schema in SCHEMAS {
            let path = root.join(format!("BENCH_{}.json", schema.name));
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{} unreadable: {e}", path.display()));
            let doc = parse(&text).unwrap_or_else(|e| panic!("{} corrupt: {e}", path.display()));
            let errs = validate(&doc, schema);
            assert!(errs.is_empty(), "{}: {errs:?}", schema.name);
        }
    }
}
