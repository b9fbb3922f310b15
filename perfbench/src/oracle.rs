//! The correctness oracle: every rule that makes an operation count as
//! failed.
//!
//! CPU cells are checked against the committed, gated Scale::Small
//! references in `BENCH_fig2.json` and `BENCH_fig3.json` (all 14 kernels ×
//! both machines × the five Figure 2 variants). They are loaded once, before
//! anything is timed. A failure is counted and printed as one line per
//! problem, naming the operation; nothing here panics.

use std::collections::BTreeMap;
use std::path::Path;

use imo_cpu::{RunResult, SimError};
use imo_obs::Attribution;
use imo_util::json::{parse, Json};

/// The reference files, relative to the repository root.
pub const REFERENCE_FILES: [&str; 2] = ["BENCH_fig2.json", "BENCH_fig3.json"];

/// The counters a CPU cell must reproduce exactly, named as in the
/// reference files.
pub const FIELDS: [&str; 11] = [
    "cycles",
    "instructions",
    "slots_busy",
    "slots_cache_stall",
    "slots_other_stall",
    "informing_traps",
    "mispredictions",
    "l1d_accesses",
    "l1d_misses",
    "l2_misses",
    "inst_misses",
];

/// `r`'s values for [`FIELDS`], in order.
pub fn counters(r: &RunResult) -> [u64; 11] {
    [
        r.cycles,
        r.instructions,
        r.slots.busy,
        r.slots.cache_stall,
        r.slots.other_stall,
        r.informing_traps,
        r.mispredictions,
        r.mem.l1d_accesses,
        r.mem.l1d_misses,
        r.mem.l2_misses,
        r.mem.inst_misses,
    ]
}

/// A cell's name in references, spans and failure lines.
pub fn cell_key(kernel: &str, machine: &str, variant: &str) -> String {
    format!("{kernel}/{machine}/{variant}")
}

/// The reference counters of every Figure 2/3 cell.
#[derive(Debug, Clone)]
pub struct Oracle {
    refs: BTreeMap<String, [u64; 11]>,
}

impl Oracle {
    /// Loads [`REFERENCE_FILES`] (`{"data": [{"workload", "machine",
    /// "variants": [...]}]}`) from the repository at `root`.
    pub fn load(root: &Path) -> Result<Oracle, String> {
        let mut refs = BTreeMap::new();
        for name in REFERENCE_FILES {
            let path = root.join(name);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            let doc = parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
            let rows =
                doc.get("data").and_then(Json::as_arr).ok_or("reference has no data array")?;
            for row in rows {
                let string = |j: &Json, k: &str| {
                    j.get(k).and_then(Json::as_str).map(str::to_owned).ok_or(format!("missing {k}"))
                };
                let (kernel, machine) = (string(row, "workload")?, string(row, "machine")?);
                let variants = row.get("variants").and_then(Json::as_arr).ok_or("no variants")?;
                for v in variants {
                    let label = string(v, "variant")?;
                    let mut values = [0u64; 11];
                    for (slot, field) in values.iter_mut().zip(FIELDS) {
                        let x = v.get(field).and_then(Json::as_f64).ok_or_else(|| {
                            format!("{kernel}/{machine}/{label}: missing {field}")
                        })?;
                        *slot = x as u64;
                    }
                    refs.insert(cell_key(&kernel, &machine, &label), values);
                }
            }
        }
        Ok(Oracle { refs })
    }

    /// Simulated cycles of the reference for `key`.
    pub fn cycles(&self, key: &str) -> Option<u64> {
        self.refs.get(key).map(|v| v[0])
    }

    /// What is wrong with a CPU cell's outcome: the error it returned, a
    /// missing reference, or one entry per counter that differs.
    pub fn cell_problems(&self, key: &str, outcome: &Result<RunResult, SimError>) -> Vec<String> {
        let r = match outcome {
            Ok(r) => r,
            Err(e) => return vec![format!("simulation error: {e}")],
        };
        let Some(want) = self.refs.get(key) else {
            return vec!["no committed reference for this cell".into()];
        };
        FIELDS
            .iter()
            .zip(want.iter().zip(counters(r)))
            .filter(|(_, (want, got))| **want != *got)
            .map(|(field, (want, got))| format!("{field} = {got}, reference {want}"))
            .collect()
    }
}

/// What is wrong with an observed run beyond its reference counters: a
/// result that differs from the plain run of the same cell, or a miss
/// attribution that does not reconcile with the cache counters.
pub fn observed_problems(
    observed: &RunResult,
    plain: Option<&RunResult>,
    attribution: Option<&Attribution>,
) -> Vec<String> {
    let mut out = Vec::new();
    if plain.is_some_and(|p| p != observed) {
        out.push("observed RunResult differs from the plain run".into());
    }
    match attribution {
        Some(a) if a.reconciles_cpu(observed.mem.l1d_misses, observed.mem.l2_misses) => {}
        Some(a) => out.push(format!(
            "attribution does not reconcile: {} classified of {} L1D misses",
            a.cpu_classified_total(),
            observed.mem.l1d_misses
        )),
        None => {}
    }
    out
}

/// What is wrong with one deterministic `ci_gate` target: not reported
/// `clean` on stdout, missing from the `--stats-json` document, or skipped.
pub fn regen_problems(target: &str, stdout: &str, stats: Option<&Json>) -> Vec<String> {
    let mut out = Vec::new();
    let verdict = stdout.lines().find_map(|line| {
        let mut words = line.split_whitespace();
        (words.next() == Some(target)).then(|| words.collect::<Vec<_>>().join(" "))
    });
    match verdict.as_deref() {
        Some("clean") => {}
        Some(v) => out.push(format!("ci_gate verdict {v:?}")),
        None => out.push("no ci_gate verdict".into()),
    }
    let entry = stats
        .and_then(|s| s.get("targets"))
        .and_then(Json::as_arr)
        .and_then(|ts| ts.iter().find(|t| t.get("name").and_then(Json::as_str) == Some(target)));
    match entry.and_then(|t| t.get("skipped")) {
        Some(Json::Bool(false)) => {}
        Some(_) => out.push("marked skipped in the stats JSON".into()),
        None => out.push("missing from the stats JSON".into()),
    }
    out
}

/// Attempted and failed operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations checked.
    pub attempted: u64,
    /// Operations with at least one problem.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation, printing a `FAILED` line per problem.
    pub fn record(&mut self, op: &str, problems: &[String]) {
        self.attempted += 1;
        for p in problems {
            println!("FAILED {op}: {p}");
        }
        if !problems.is_empty() {
            self.failed += 1;
        }
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imo_core::instrument::{instrument, Scheme};
    use imo_core::Machine;
    use imo_workloads::{by_name, Scale};

    fn repo_root() -> &'static Path {
        Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
    }

    #[test]
    fn references_cover_all_140_cells() {
        let oracle = Oracle::load(repo_root()).expect("references load");
        assert_eq!(oracle.refs.len(), 140);
    }

    #[test]
    fn one_changed_reference_value_fails_exactly_one_operation() {
        let mut oracle = Oracle::load(repo_root()).expect("references load");
        let key = cell_key("sc", "in-order", "N");
        let program = (by_name("sc").expect("sc exists").build)(Scale::Small);
        let program = instrument(&program, &Scheme::None).expect("instruments").program;
        let outcome = Machine::default_in_order().run(&program);

        let mut tally = Tally::default();
        tally.record(&key, &oracle.cell_problems(&key, &outcome));
        assert_eq!(tally, Tally { attempted: 1, failed: 0 });

        oracle.refs.get_mut(&key).expect("reference")[8] += 1; // l1d_misses
        let problems = oracle.cell_problems(&key, &outcome);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].starts_with("l1d_misses"), "{problems:?}");
        tally.record(&key, &problems);
        assert_eq!(tally, Tally { attempted: 2, failed: 1 });
    }

    #[test]
    fn errors_and_missing_references_are_failures_not_panics() {
        let oracle = Oracle { refs: BTreeMap::new() };
        let err: Result<RunResult, SimError> = Err(SimError::CycleLimit(7));
        assert_eq!(oracle.cell_problems("x/ooo/N", &err).len(), 1);
        let mut halt = imo_isa::Asm::new();
        halt.halt();
        let ok = Machine::default_ooo().run(&halt.assemble().expect("assembles"));
        assert_eq!(oracle.cell_problems("x/ooo/N", &ok), ["no committed reference for this cell"]);
    }

    #[test]
    fn regen_verdicts_are_read_from_stdout_and_stats() {
        let stdout = "ci_gate: regenerating\n  table1                 clean\n  fig2                   DRIFT\n";
        let stats = parse(
            r#"{"targets": [{"name": "table1", "skipped": false},
                            {"name": "fig2", "skipped": false},
                            {"name": "fig3", "skipped": true}]}"#,
        )
        .expect("json");
        assert!(regen_problems("table1", stdout, Some(&stats)).is_empty());
        assert_eq!(regen_problems("fig2", stdout, Some(&stats)), ["ci_gate verdict \"DRIFT\""]);
        assert_eq!(regen_problems("fig3", stdout, Some(&stats)).len(), 2);
        assert_eq!(regen_problems("table1", stdout, None), ["missing from the stats JSON"]);
    }
}
