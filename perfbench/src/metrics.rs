//! Every metric the benchmark emits, declared once, and the documents it
//! writes.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units and
//! directions; a unit test keeps the two equal.

use std::collections::BTreeMap;

use imo_util::json::Json;
use imo_workloads::all;

use crate::cells::Mach;
use crate::regen::TARGETS;
use crate::stats::Summary;

/// Which measurement produces a metric. An untraced run produces
/// [`Group::Run`]; a traced run produces [`Group::Probe`], [`Group::Pass`]
/// and the group of its workload's layers, and reports the metrics of the
/// other workload family's layers as 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// End-to-end metrics of an untraced run.
    Run,
    /// The layer probe every traced run makes.
    Probe,
    /// The traced passes of every workload.
    Pass,
    /// Layers only the CPU workloads reach in-process.
    Cpu,
    /// Layers only the `ci_gate` children reach.
    Gate,
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Decl {
    /// Its name.
    pub name: String,
    /// Its unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// What produces it.
    pub group: Group,
}

fn decl(name: impl Into<String>, unit: &'static str, better: &'static str, group: Group) -> Decl {
    Decl { name: name.into(), unit, better, group }
}

/// The end-to-end metrics, every workload's untraced run reports all of
/// them.
pub fn end_to_end() -> Vec<Decl> {
    vec![
        decl("pass_s", "s", "lower", Group::Run),
        decl("call_ms_p50", "ms", "lower", Group::Run),
        decl("peak_rss_mb", "MB", "lower", Group::Run),
        decl("setup_s", "s", "lower", Group::Run),
    ]
}

/// The per-layer metrics a traced run reports.
pub fn per_layer() -> Vec<Decl> {
    use Group::{Cpu, Gate, Pass, Probe};
    let mut v = vec![
        decl("workloads.build_us", "us", "lower", Probe),
        decl("core.instrument_us", "us", "lower", Probe),
        decl("isa.block.build_us", "us", "lower", Probe),
        decl("isa.exec.ns_per_instr", "ns/instr", "lower", Probe),
        decl("mem.hier.ns_per_probe", "ns/probe", "lower", Probe),
        decl("mem.hier.probes", "count", "lower", Probe),
    ];
    for m in Mach::BOTH {
        let t = m.tag();
        v.push(decl(format!("cpu.{t}.ns_per_cycle"), "ns/cycle", "lower", Probe));
        v.push(decl(format!("cpu.{t}.ns_per_instr"), "ns/instr", "lower", Probe));
        for spec in all() {
            v.push(decl(format!("cpu.{t}.{}.ns_per_cycle", spec.name), "ns/cycle", "lower", Probe));
        }
        v.push(decl(format!("cpu.{t}.tick_ns_per_cycle"), "ns/cycle", "lower", Probe));
        v.push(decl(format!("cpu.{t}.ff_speedup"), "ratio", "higher", Probe));
        v.push(decl(format!("obs.disabled.over_plain.{t}"), "ratio", "lower", Probe));
        v.push(decl(format!("obs.attrib.over_plain.{t}"), "ratio", "lower", Probe));
    }
    v.extend([
        decl("obs.attrib.self_ns_per_cycle", "ns/cycle", "lower", Probe),
        decl("coherence.ns_per_op", "ns/op", "lower", Probe),
        decl("trace.pass_s", "s", "lower", Pass),
        decl("trace.overhead_pct", "%", "lower", Pass),
        decl("cpu.fastpath.block_hit_rate", "ratio", "higher", Cpu),
        decl("cpu.fastpath.batched_instr_pct", "%", "higher", Cpu),
        decl("obs.attrib.classified", "count", "lower", Cpu),
        decl("obs.recorder.dropped", "count", "lower", Cpu),
    ]);
    for s in ["cycles", "instructions", "l1d_misses", "l2_misses", "informing_traps"] {
        v.push(decl(format!("sim.{s}"), "count", "lower", Cpu));
    }
    for t in TARGETS {
        v.push(decl(format!("bench.targets.{t}.cold_pct"), "%", "lower", Gate));
        v.push(decl(format!("bench.targets.{t}.warm_pct"), "%", "lower", Gate));
    }
    v.extend([
        decl("bench.gate.cold_other_pct", "%", "lower", Gate),
        decl("bench.gate.warm_other_pct", "%", "lower", Gate),
        decl("bench.sweep.cells_simulated", "count", "lower", Gate),
        decl("bench.sweep.served_memory", "count", "higher", Gate),
        decl("bench.sweep.served_disk", "count", "higher", Gate),
        decl("util.store.disk_coverage_pct", "%", "higher", Gate),
        decl("util.store.writes", "count", "lower", Gate),
        decl("util.store.rejected", "count", "lower", Gate),
    ]);
    v
}

/// What one run measured.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Declared metrics, by name.
    pub metrics: BTreeMap<String, Summary>,
    /// Undeclared figures kept in the result file only.
    pub extra: BTreeMap<String, Summary>,
    /// The per-layer groups a traced run produced.
    pub groups: Vec<Group>,
    /// Passes measured.
    pub passes: usize,
    /// Threads the simulation ran on.
    pub threads: usize,
    /// Whether the seed chose the inputs.
    pub seed_used: bool,
    /// The code fingerprint addressing `ci_gate`'s sweep store, on `regen`.
    pub fingerprint: Option<String>,
}

/// The declared metrics of a run, in declaration order, with their units:
/// every metric of a produced group must have been measured, the metrics of
/// groups the run does not produce read 0, and nothing undeclared slips in.
pub fn complete(
    decls: &[Decl],
    produced: &[Group],
    measured: &BTreeMap<String, Summary>,
) -> Result<Vec<(String, &'static str, Summary)>, String> {
    if let Some(stray) = measured.keys().find(|k| !decls.iter().any(|d| &d.name == *k)) {
        return Err(format!("metric {stray} is not declared"));
    }
    decls
        .iter()
        .map(|d| match measured.get(&d.name) {
            Some(s) => Ok((d.name.clone(), d.unit, *s)),
            None if produced.contains(&d.group) => {
                Err(format!("metric {} was not measured", d.name))
            }
            None => Ok((d.name.clone(), d.unit, Summary::single(0.0))),
        })
        .collect()
}

/// The last line of a run's standard output.
pub fn result_line(
    attempted: u64,
    failed: u64,
    metrics: &[(String, &'static str, Summary)],
) -> Json {
    let metrics = metrics.iter().map(|(name, unit, s)| {
        (name.clone(), Json::obj([("value", Json::from(s.value)), ("unit", Json::from(*unit))]))
    });
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// A metric with its unit, sample count and quartiles, as the result file
/// records it.
pub fn summary_json(unit: &str, s: &Summary) -> Json {
    Json::obj([
        ("value", Json::from(s.value)),
        ("unit", Json::from(unit)),
        ("samples", Json::from(s.samples)),
        ("q1", Json::from(s.q1)),
        ("median", Json::from(s.median)),
        ("q3", Json::from(s.q3)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use imo_util::json::parse;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("parses")
    }

    fn declared(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
        doc.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect()
    }

    fn ours(decls: &[Decl]) -> Vec<(String, String, String)> {
        decls.iter().map(|d| (d.name.clone(), d.unit.to_string(), d.better.to_string())).collect()
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in end_to_end().into_iter().chain(per_layer()) {
            let ok = d.name.len() <= 64
                && d.name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && d.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
            assert!(ok, "bad metric name {}", d.name);
            assert!(seen.insert(d.name.clone()), "duplicate metric {}", d.name);
        }
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn declarations_match_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(declared(&doc, "end_to_end"), ours(&end_to_end()));
        assert_eq!(declared(&doc, "per_layer"), ours(&per_layer()));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name").to_string())
            .collect();
        let binary: Vec<String> =
            crate::Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, binary);
    }

    #[test]
    fn a_run_emits_exactly_the_declared_names() {
        let decls = end_to_end();
        let mut measured: BTreeMap<String, Summary> =
            decls.iter().map(|d| (d.name.clone(), Summary::single(1.5))).collect();
        let line =
            result_line(3, 0, &complete(&decls, &[Group::Run], &measured).expect("complete"));
        let emitted = line.get("metrics").expect("metrics");
        let Json::Obj(pairs) = emitted else { panic!("metrics is an object") };
        let names: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = decls.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, want);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));

        measured.insert("bogus".into(), Summary::single(1.0));
        assert!(complete(&decls, &[Group::Run], &measured).is_err(), "undeclared name refused");
        measured.remove("bogus");
        measured.remove("pass_s");
        assert!(complete(&decls, &[Group::Run], &measured).is_err(), "missing name refused");
    }

    #[test]
    fn groups_a_run_does_not_produce_read_zero() {
        let decls = per_layer();
        let measured: BTreeMap<String, Summary> = decls
            .iter()
            .filter(|d| d.group != Group::Gate)
            .map(|d| (d.name.clone(), Summary::single(2.0)))
            .collect();
        let cpu = [Group::Probe, Group::Pass, Group::Cpu];
        let done = complete(&decls, &cpu, &measured).expect("complete");
        assert_eq!(done.len(), decls.len());
        let gate = done.iter().find(|(n, _, _)| n == "util.store.writes").expect("declared");
        assert_eq!(gate.2.value, 0.0);
        assert!(complete(&decls, &[Group::Probe, Group::Pass, Group::Gate], &measured).is_err());
    }
}
