//! Bit-exact JSON codecs for the results the on-disk sweep store keeps.
//!
//! [`crate::sweep::memoized_stored`] persists every CPU [`RunResult`] and
//! coherence [`SimResult`] it computes (DESIGN.md §14); these are the value
//! codecs it uses. They follow the [`imo_util::snapshot`] discipline — u64
//! counters as fixed-width hex, f64 as bit patterns — so a decoded result is
//! bit-identical to the one that was stored. The encodings are the store's
//! entry payload format: changing one means bumping
//! [`imo_util::store::SCHEMA_VERSION`].

use std::sync::Mutex;

use imo_coherence::{Scheme, SimResult};
use imo_cpu::RunResult;
use imo_util::json::Json;
use imo_util::snapshot::{self, SnapshotError};
use imo_util::SlotBreakdown;

/// Leak-once intern table for decoded `&'static str` labels. The label
/// vocabulary is tiny and fixed (the parallel app names), so the leak is
/// bounded: each distinct string leaks at most once per process.
static LABELS: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

/// Interns a decoded label as `&'static str`.
fn intern(s: &str) -> &'static str {
    let mut table = LABELS.lock().expect("label intern lock");
    if let Some(hit) = table.iter().find(|l| **l == s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    table.push(leaked);
    leaked
}

/// Encodes a raw simulation result, bit-exactly (u64 counters as hex, the
/// branch-accuracy f64 as its bit pattern).
pub fn result_json(r: &RunResult) -> Json {
    Json::obj([
        ("cycles", snapshot::u64_json(r.cycles)),
        ("instructions", snapshot::u64_json(r.instructions)),
        ("slots_busy", snapshot::u64_json(r.slots.busy)),
        ("slots_cache", snapshot::u64_json(r.slots.cache_stall)),
        ("slots_other", snapshot::u64_json(r.slots.other_stall)),
        ("informing_traps", snapshot::u64_json(r.informing_traps)),
        ("mispredictions", snapshot::u64_json(r.mispredictions)),
        ("branch_accuracy", snapshot::f64_json(r.branch_accuracy)),
        ("l1d_accesses", snapshot::u64_json(r.mem.l1d_accesses)),
        ("l1d_misses", snapshot::u64_json(r.mem.l1d_misses)),
        ("l2_misses", snapshot::u64_json(r.mem.l2_misses)),
        ("inst_misses", snapshot::u64_json(r.mem.inst_misses)),
    ])
}

/// Decodes a [`result_json`] result.
pub fn decode_result(j: &Json) -> Result<RunResult, SnapshotError> {
    Ok(RunResult {
        cycles: snapshot::get_u64(j, "cycles")?,
        instructions: snapshot::get_u64(j, "instructions")?,
        slots: SlotBreakdown {
            busy: snapshot::get_u64(j, "slots_busy")?,
            cache_stall: snapshot::get_u64(j, "slots_cache")?,
            other_stall: snapshot::get_u64(j, "slots_other")?,
        },
        informing_traps: snapshot::get_u64(j, "informing_traps")?,
        mispredictions: snapshot::get_u64(j, "mispredictions")?,
        branch_accuracy: snapshot::get_f64(j, "branch_accuracy")?,
        mem: imo_cpu::result::MemCounters {
            l1d_accesses: snapshot::get_u64(j, "l1d_accesses")?,
            l1d_misses: snapshot::get_u64(j, "l1d_misses")?,
            l2_misses: snapshot::get_u64(j, "l2_misses")?,
            inst_misses: snapshot::get_u64(j, "inst_misses")?,
        },
    })
}

fn coh_scheme_json(s: Scheme) -> Json {
    snapshot::u64_json(match s {
        Scheme::RefCheck => 0,
        Scheme::Ecc => 1,
        Scheme::Informing => 2,
    })
}

fn decode_coh_scheme(j: &Json, key: &'static str) -> Result<Scheme, SnapshotError> {
    match snapshot::get_u64(j, key)? {
        0 => Ok(Scheme::RefCheck),
        1 => Ok(Scheme::Ecc),
        2 => Ok(Scheme::Informing),
        _ => Err(SnapshotError::Bad(key)),
    }
}

/// Encodes a coherence [`SimResult`], bit-exactly.
pub fn sim_result_json(r: &SimResult) -> Json {
    Json::obj([
        ("app", Json::from(r.app)),
        ("scheme", coh_scheme_json(r.scheme)),
        ("total_cycles", snapshot::u64_json(r.total_cycles)),
        ("proc_cycles", snapshot::u64s_json(&r.proc_cycles)),
        ("ops", snapshot::u64_json(r.ops)),
        ("lookups", snapshot::u64_json(r.lookups)),
        ("faults", snapshot::u64_json(r.faults)),
        ("actions", snapshot::u64_json(r.actions)),
        ("l1_misses", snapshot::u64_json(r.l1_misses)),
        ("l2_misses", snapshot::u64_json(r.l2_misses)),
        ("invalidations", snapshot::u64_json(r.invalidations)),
        ("retries", snapshot::u64_json(r.retries)),
        ("timeouts", snapshot::u64_json(r.timeouts)),
        ("dropped_msgs", snapshot::u64_json(r.dropped_msgs)),
    ])
}

/// Decodes a [`sim_result_json`] result.
pub fn decode_sim_result(j: &Json) -> Result<SimResult, SnapshotError> {
    Ok(SimResult {
        app: intern(snapshot::get_str(j, "app")?),
        scheme: decode_coh_scheme(j, "scheme")?,
        total_cycles: snapshot::get_u64(j, "total_cycles")?,
        proc_cycles: snapshot::get_u64s(j, "proc_cycles")?,
        ops: snapshot::get_u64(j, "ops")?,
        lookups: snapshot::get_u64(j, "lookups")?,
        faults: snapshot::get_u64(j, "faults")?,
        actions: snapshot::get_u64(j, "actions")?,
        l1_misses: snapshot::get_u64(j, "l1_misses")?,
        l2_misses: snapshot::get_u64(j, "l2_misses")?,
        invalidations: snapshot::get_u64(j, "invalidations")?,
        retries: snapshot::get_u64(j, "retries")?,
        timeouts: snapshot::get_u64(j, "timeouts")?,
        dropped_msgs: snapshot::get_u64(j, "dropped_msgs")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use imo_coherence::{simulate_baseline, MachineParams};
    use imo_core::Machine;
    use imo_util::json::parse;
    use imo_workloads::parallel::{migratory, TraceConfig};
    use imo_workloads::{by_name, Scale};

    #[test]
    fn run_results_round_trip_bit_exactly() {
        let program = (by_name("ora").expect("workload exists").build)(Scale::Test);
        for machine in [Machine::default_ooo(), Machine::default_in_order()] {
            let direct = machine.run(&program).expect("runs");
            let line = result_json(&direct).compact();
            let back = decode_result(&parse(&line).expect("parses")).expect("decodes");
            assert_eq!(back, direct, "{}", machine.name());
            assert_eq!(back.branch_accuracy.to_bits(), direct.branch_accuracy.to_bits());
            assert_eq!(result_json(&back).compact(), line, "re-encoding is byte-stable");
        }
    }

    #[test]
    fn sim_results_round_trip_and_unknown_schemes_are_rejected() {
        let trace = migratory(&TraceConfig { procs: 4, ops_per_proc: 300, seed: 11 });
        for scheme in Scheme::all() {
            let direct = simulate_baseline(&trace, scheme, &MachineParams::table2());
            let line = sim_result_json(&direct).compact();
            let back = decode_sim_result(&parse(&line).expect("parses")).expect("decodes");
            assert_eq!(back, direct, "{scheme:?}");
        }
        let direct = simulate_baseline(&trace, Scheme::Ecc, &MachineParams::table2());
        let mut j = sim_result_json(&direct);
        if let Json::Obj(pairs) = &mut j {
            pairs[1].1 = snapshot::u64_json(3);
        }
        assert_eq!(decode_sim_result(&j).err(), Some(SnapshotError::Bad("scheme")));
    }
}
