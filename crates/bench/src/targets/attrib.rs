//! Miss-attribution bench: profiles every workload on both machines under
//! the streaming "why did this miss" analyzer and gates its core invariant
//! **exactly** — every demand miss is classified into exactly one of
//! compulsory / coherence / capacity / conflict, so the class totals
//! reconcile with the cache's own miss counters. Coherence rows do the
//! same for the parallel simulator under all three access-control schemes.
//!
//! Fully deterministic: no wall-clock fields, every counter diffs exactly.
//! Each row goes through both memo tiers ([`memoized_stored`]) as the JSON
//! object the baseline holds, so a warm gate simulates none of them.

use imo_coherence::{simulate_observed, MachineParams, Scheme};
use imo_core::Machine;
use imo_faults::FaultPlan;
use imo_obs::{AttribConfig, Pattern, Recorder};
use imo_util::json::Json;
use imo_util::snapshot::SnapshotError;
use imo_workloads::parallel::{migratory, TraceConfig};
use imo_workloads::{spec, Scale};

use crate::report::{emit, Table};
use crate::sweep::{both_machines, memoized_stored, SweepSpec};

/// One workload × machine classification row.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuRow {
    /// Workload name.
    pub workload: &'static str,
    /// Machine name ("ooo" / "in-order").
    pub machine: &'static str,
    /// Demand references the analyzer saw.
    pub demand_refs: u64,
    /// Demand misses (== sum of `classes`).
    pub demand_misses: u64,
    /// Per-class totals: compulsory, coherence, capacity, conflict.
    pub classes: [u64; 4],
    /// Classes sum exactly to the cache's `l1d_misses`, and memory-served
    /// references to `l2_misses`.
    pub reconciled: bool,
    /// Attribution-on result is bit-identical to the plain run.
    pub passive: bool,
    /// Hottest missing PC (`0` if the run never missed).
    pub hot_pc: u64,
    /// Access pattern of the hottest PC.
    pub hot_pattern: String,
    /// Hot-PC taxonomy counts: fixed-stride, pointer-chase, irregular.
    pub patterns: [u64; 3],
}

/// One coherence-scheme classification row.
#[derive(Debug, Clone, PartialEq)]
pub struct CohRow {
    /// Scheme name.
    pub scheme: &'static str,
    /// L1 misses classified (== simulator's `l1_misses`).
    pub classified: u64,
    /// Per-class totals: compulsory, coherence, capacity, conflict.
    pub classes: [u64; 4],
    /// Classes reconcile exactly with `SimResult` miss counters.
    pub reconciled: bool,
}

/// The full classification matrix.
pub struct Output {
    /// All workloads × both machines.
    pub cpu: Vec<CpuRow>,
    /// The migratory trace under all three schemes.
    pub coherence: Vec<CohRow>,
}

/// Profiles `name` at `Scale::Test` on `m`: a plain run, and a run under
/// the attribution recorder that must reproduce it.
fn cpu_row(name: &'static str, m: Machine) -> CpuRow {
    let s = spec::by_name(name).expect("workload exists");
    let p = (s.build)(Scale::Test);
    let plain = m.run(&p).expect("plain run");
    let mut rec = Recorder::disabled();
    rec.enable_attribution(m.attrib_config());
    let (res, _) = m.run_observed(&p, &mut rec).expect("observed run");
    let a = rec.attribution().expect("attribution enabled");
    let profile = a.profile(name);
    let mut patterns = [0u64; 3];
    for pc in &profile.pcs {
        patterns[match pc.pattern {
            Pattern::FixedStride(_) => 0,
            Pattern::PointerChase => 1,
            Pattern::Irregular => 2,
        }] += 1;
    }
    let hot = profile.pcs.first();
    CpuRow {
        workload: name,
        machine: m.name(),
        demand_refs: a.cpu_demand_refs(),
        demand_misses: a.cpu_classified_total(),
        classes: a.cpu_classes(),
        reconciled: a.reconciles_cpu(res.mem.l1d_misses, res.mem.l2_misses),
        passive: res == plain,
        hot_pc: hot.map_or(0, |pc| pc.pc),
        hot_pattern: hot.map_or_else(|| "-".to_string(), |pc| pc.pattern.to_string()),
        patterns,
    }
}

/// `name`'s rows on both machines, each through both memo tiers under a
/// key of every input it depends on.
fn cpu_cell(name: &'static str) -> Vec<CpuRow> {
    both_machines()
        .into_iter()
        .map(|m| {
            let key = format!("attrib-cpu/{name}/{:?}/{m:?}", Scale::Test);
            memoized_stored(
                &key,
                cpu_row_json,
                |j| decode_cpu_row(j, name, m.name()),
                || cpu_row(name, m),
            )
        })
        .collect()
}

/// Classifies the migratory trace `cfg` generates under `scheme` on
/// `params`.
fn coh_row(cfg: &TraceConfig, scheme: Scheme, params: &MachineParams) -> CohRow {
    let trace = migratory(cfg);
    let mut rec = Recorder::disabled();
    rec.enable_attribution(AttribConfig::for_l1(params.l1_bytes, 1, params.line_bytes));
    let (res, _) = simulate_observed(&trace, scheme, params, &FaultPlan::none(), &mut rec)
        .expect("zero-fault coherence run");
    let a = rec.attribution().expect("attribution enabled");
    CohRow {
        scheme: scheme.name(),
        classified: a.coh_classified_total(),
        classes: a.coh_classes(),
        reconciled: a.reconciles_coh(res.l1_misses, res.l2_misses),
    }
}

/// Runs the whole matrix: one pool cell per workload, plus the serial
/// three-scheme coherence section.
#[must_use]
pub fn compute() -> Output {
    let names: Vec<&'static str> = spec::all().into_iter().map(|s| s.name).collect();
    let cpu = SweepSpec::new("attrib", names)
        .run(|_, name| cpu_cell(name))
        .into_iter()
        .flatten()
        .collect();

    let cfg = TraceConfig { procs: 8, ops_per_proc: 4_000, seed: 0x1996 };
    let params = MachineParams::table2();
    let coherence = Scheme::all()
        .iter()
        .map(|&scheme| {
            let key = format!("attrib-coh/migratory/{cfg:?}/{scheme:?}/{params:?}");
            memoized_stored(
                &key,
                coh_row_json,
                |j| decode_coh_row(j, scheme.name()),
                || coh_row(&cfg, scheme, &params),
            )
        })
        .collect();

    Output { cpu, coherence }
}

fn classes_json(classes: &[u64; 4]) -> [(&'static str, Json); 4] {
    let n = |v: u64| Json::Num(v as f64);
    [
        ("compulsory", n(classes[0])),
        ("coherence", n(classes[1])),
        ("capacity", n(classes[2])),
        ("conflict", n(classes[3])),
    ]
}

/// A CPU row as the baseline holds it; also its memo-store encoding.
fn cpu_row_json(row: &CpuRow) -> Json {
    let n = |v: u64| Json::Num(v as f64);
    let mut fields = vec![
        ("workload", Json::from(row.workload)),
        ("machine", Json::from(row.machine)),
        ("demand_refs", n(row.demand_refs)),
        ("demand_misses", n(row.demand_misses)),
    ];
    fields.extend(classes_json(&row.classes));
    fields.extend([
        ("reconciled", Json::Bool(row.reconciled)),
        ("passive", Json::Bool(row.passive)),
        ("hot_pc", Json::from(format!("{:#x}", row.hot_pc))),
        ("hot_pattern", Json::from(row.hot_pattern.clone())),
        ("stride_pcs", n(row.patterns[0])),
        ("chase_pcs", n(row.patterns[1])),
        ("irregular_pcs", n(row.patterns[2])),
    ]);
    Json::obj(fields)
}

/// A coherence row as the baseline holds it; also its memo-store encoding.
fn coh_row_json(row: &CohRow) -> Json {
    let mut fields =
        vec![("scheme", Json::from(row.scheme)), ("classified", Json::Num(row.classified as f64))];
    fields.extend(classes_json(&row.classes));
    fields.push(("reconciled", Json::Bool(row.reconciled)));
    Json::obj(fields)
}

/// The whole number at `key` of a row object.
fn count(j: &Json, key: &'static str) -> Result<u64, SnapshotError> {
    match j.get(key) {
        Some(Json::Num(v)) if v.fract() == 0.0 && (0.0..9.0e15).contains(v) => Ok(*v as u64),
        _ => Err(SnapshotError::Bad(key)),
    }
}

/// The boolean at `key` of a row object.
fn flag(j: &Json, key: &'static str) -> Result<bool, SnapshotError> {
    match j.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(SnapshotError::Bad(key)),
    }
}

/// The string at `key` of a row object, which must equal `want`.
fn label(j: &Json, key: &'static str, want: &'static str) -> Result<&'static str, SnapshotError> {
    match j.get(key).and_then(Json::as_str) {
        Some(s) if s == want => Ok(want),
        _ => Err(SnapshotError::Bad(key)),
    }
}

fn decode_classes(j: &Json) -> Result<[u64; 4], SnapshotError> {
    Ok([
        count(j, "compulsory")?,
        count(j, "coherence")?,
        count(j, "capacity")?,
        count(j, "conflict")?,
    ])
}

/// Decodes a [`cpu_row_json`] row of `workload` on `machine`.
fn decode_cpu_row(
    j: &Json,
    workload: &'static str,
    machine: &'static str,
) -> Result<CpuRow, SnapshotError> {
    let hot_pc = j.get("hot_pc").and_then(Json::as_str).and_then(|s| s.strip_prefix("0x"));
    Ok(CpuRow {
        workload: label(j, "workload", workload)?,
        machine: label(j, "machine", machine)?,
        demand_refs: count(j, "demand_refs")?,
        demand_misses: count(j, "demand_misses")?,
        classes: decode_classes(j)?,
        reconciled: flag(j, "reconciled")?,
        passive: flag(j, "passive")?,
        hot_pc: hot_pc
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or(SnapshotError::Bad("hot_pc"))?,
        hot_pattern: j
            .get("hot_pattern")
            .and_then(Json::as_str)
            .ok_or(SnapshotError::Bad("hot_pattern"))?
            .to_string(),
        patterns: [count(j, "stride_pcs")?, count(j, "chase_pcs")?, count(j, "irregular_pcs")?],
    })
}

/// Decodes a [`coh_row_json`] row of `scheme`.
fn decode_coh_row(j: &Json, scheme: &'static str) -> Result<CohRow, SnapshotError> {
    Ok(CohRow {
        scheme: label(j, "scheme", scheme)?,
        classified: count(j, "classified")?,
        classes: decode_classes(j)?,
        reconciled: flag(j, "reconciled")?,
    })
}

/// The baseline payload, with `reconciled` / `passive` proof bits on every
/// row.
#[must_use]
pub fn payload(out: &Output) -> Json {
    Json::obj([
        ("cpu", Json::arr(out.cpu.iter().map(cpu_row_json))),
        ("coherence", Json::arr(out.coherence.iter().map(coh_row_json))),
    ])
}

/// Prints the classification matrix.
///
/// # Panics
///
/// Panics if any row failed reconciliation or passivity.
pub fn print(out: &Output) {
    println!("MISS ATTRIBUTION. Exact per-class reconciliation on every workload.\n");
    let mut t = Table::new([
        "workload",
        "machine",
        "refs",
        "misses",
        "compulsory",
        "coherence",
        "capacity",
        "conflict",
        "hot pattern",
    ]);
    for row in &out.cpu {
        assert!(row.reconciled, "{}/{}: classes must reconcile exactly", row.workload, row.machine);
        assert!(row.passive, "{}/{}: attribution must be passive", row.workload, row.machine);
        t.row([
            row.workload.to_string(),
            row.machine.to_string(),
            row.demand_refs.to_string(),
            row.demand_misses.to_string(),
            row.classes[0].to_string(),
            row.classes[1].to_string(),
            row.classes[2].to_string(),
            row.classes[3].to_string(),
            row.hot_pattern.clone(),
        ]);
    }
    print!("{}", t.render());

    println!();
    let mut t =
        Table::new(["scheme", "classified", "compulsory", "coherence", "capacity", "conflict"]);
    for row in &out.coherence {
        assert!(row.reconciled, "{}: coherence classes must reconcile exactly", row.scheme);
        t.row([
            row.scheme.to_string(),
            row.classified.to_string(),
            row.classes[0].to_string(),
            row.classes[1].to_string(),
            row.classes[2].to_string(),
            row.classes[3].to_string(),
        ]);
    }
    print!("{}", t.render());
    println!("\nall rows reconciled exactly; attribution bit-passive on every run");
}

/// The whole bench target: compute, print, write the baseline.
pub fn run() {
    let out = compute();
    print(&out);
    emit("attrib", payload(&out));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_round_trip_through_their_baseline_encoding() {
        let cpu = CpuRow {
            workload: "xlisp",
            machine: "ooo",
            demand_refs: 9_000,
            demand_misses: 700,
            classes: [300, 0, 250, 150],
            reconciled: true,
            passive: true,
            hot_pc: 0x1234,
            hot_pattern: "pointer-chase".to_string(),
            patterns: [2, 1, 0],
        };
        let j = cpu_row_json(&cpu);
        assert_eq!(decode_cpu_row(&j, "xlisp", "ooo"), Ok(cpu));
        assert_eq!(decode_cpu_row(&j, "xlisp", "in-order"), Err(SnapshotError::Bad("machine")));
        let coh =
            CohRow { scheme: "informing", classified: 12, classes: [1, 2, 3, 6], reconciled: true };
        assert_eq!(decode_coh_row(&coh_row_json(&coh), "informing"), Ok(coh));
        let mut bad = coh_row_json(&CohRow {
            scheme: "ecc",
            classified: 1,
            classes: [1, 0, 0, 0],
            reconciled: false,
        });
        if let Json::Obj(fields) = &mut bad {
            fields[1].1 = Json::Num(1.5);
        }
        assert_eq!(decode_coh_row(&bad, "ecc"), Err(SnapshotError::Bad("classified")));
    }
}
