//! The layer probe every traced run makes: each layer's public entry point
//! timed on the same fixed input, so the per-layer rates mean the same thing
//! on every workload.
//!
//! The input is the 14 kernels' N programs at Scale::Small, each run plain,
//! tick-accurate, under a disabled recorder and under the attribution
//! recorder on both machines, and checked: the last three must return the
//! plain result. Coherence runs the Figure 4 traces under all three
//! schemes.

use std::collections::BTreeMap;
use std::hint::black_box;

use imo_coherence::{simulate, MachineParams, Scheme};
use imo_core::experiment::figure2_variants;
use imo_core::instrument::instrument;
use imo_cpu::RunLimits;
use imo_isa::exec::{Executor, NeverMiss};
use imo_isa::{BlockCache, Program};
use imo_mem::{HierarchyConfig, MemoryHierarchy};
use imo_obs::Recorder;
use imo_workloads::parallel::{all_apps, TraceConfig};
use imo_workloads::{all, Scale};

use crate::cells::Mach;
use crate::oracle::{cell_key, observed_problems, Oracle, Tally};
use crate::spans::Tracer;
use crate::stats::Summary;

/// Per-machine totals over the 14 N cells, in [`Mach::BOTH`] order.
#[derive(Default)]
struct PerMach {
    plain_ns: [f64; 2],
    cycles: [u64; 2],
    instrs: [u64; 2],
    tick_ns: [f64; 2],
    disabled_ns: [f64; 2],
    attrib_ns: [f64; 2],
}

/// The data references of `program`, in program order, from stepping the
/// functional executor.
fn data_refs(program: &Program) -> Vec<(u64, bool)> {
    let mut ex = Executor::new(program);
    let mut refs = Vec::new();
    while !ex.state().halted() {
        match ex.step(&mut NeverMiss) {
            Ok(step) => {
                refs.extend(step.mem.filter(|m| !m.is_prefetch).map(|m| (m.addr, m.is_store)))
            }
            Err(_) => break,
        }
    }
    refs
}

/// Runs the probe, returning the per-layer probe metrics.
pub fn run(
    oracle: &Oracle,
    tally: &mut Tally,
    tr: &mut Tracer,
) -> Result<BTreeMap<String, Summary>, String> {
    let mut out = BTreeMap::new();
    let mut put = |name: String, value: f64| {
        out.insert(name, Summary::single(value));
    };
    let (mut build_ns, mut instrument_ns, mut exec_ns, mut mem_ns) = (0.0, 0.0, 0.0, 0.0);
    let (mut exec_instrs, mut probes) = (0u64, 0u64);
    let mut block_us = Vec::new();
    let mut pm = PerMach::default();
    let machines = Mach::BOTH.map(Mach::machine);
    let ns = |d: std::time::Duration| d.as_secs_f64() * 1e9;

    for spec in all() {
        let kernel = spec.name;
        let probe = tr.enter("probe kernel", "bench.probe", Some(kernel));

        let s = tr.enter("Spec::build", "workloads", Some(kernel));
        let base = (spec.build)(Scale::Small);
        build_ns += ns(tr.exit(s));

        let mut n_program = None;
        for v in figure2_variants() {
            let s = tr.enter("instrument", "core.instrument", Some(kernel));
            let inst = instrument(&base, &v.scheme);
            instrument_ns += ns(tr.exit(s));
            let program =
                inst.map_err(|e| format!("instrumenting {kernel} as {}: {e}", v.label))?.program;
            let s = tr.enter("BlockCache::build", "isa.block", Some(kernel));
            black_box(BlockCache::build(&program, |_| 1));
            block_us.push(ns(tr.exit(s)) / 1e3);
            if v.label == "N" {
                n_program = Some(program);
            }
        }
        let program = n_program.ok_or("the Figure 2 variants include N")?;

        let s = tr.enter("Executor::run", "isa.exec", Some(kernel));
        let executed = Executor::new(&program).run(&mut NeverMiss, u64::MAX);
        exec_ns += ns(tr.exit(s));
        let problems = match &executed {
            Ok(_) => Vec::new(),
            Err(e) => vec![format!("functional execution failed: {e}")],
        };
        tally.record(&format!("{kernel}/Executor::run"), &problems);
        exec_instrs += executed.unwrap_or(0);

        let s = tr.enter("Executor::step", "isa.exec", Some(kernel));
        let refs = data_refs(&program);
        tr.exit(s);
        for cfg in [HierarchyConfig::in_order(), HierarchyConfig::out_of_order()] {
            let s = tr.enter("MemoryHierarchy::probe_data", "mem.hier", Some(kernel));
            let mut h = MemoryHierarchy::new(cfg);
            for (cycle, &(addr, is_store)) in (0u64..).zip(&refs) {
                let p = h.probe_data(addr, is_store);
                black_box(h.schedule_data(p, cycle));
            }
            mem_ns += ns(tr.exit(s));
            probes += refs.len() as u64;
        }

        for (i, mach) in Mach::BOTH.into_iter().enumerate() {
            let m = &machines[i];
            let key = cell_key(kernel, mach.name(), "N");
            let s = tr.enter("Machine::run_limited", mach.layer(), Some(&key));
            let plain = m.run_limited(&program, RunLimits::default());
            let t = ns(tr.exit(s));
            tally.record(&key, &oracle.cell_problems(&key, &plain));
            let Ok(plain) = plain else { continue };
            pm.plain_ns[i] += t;
            pm.cycles[i] += plain.cycles;
            pm.instrs[i] += plain.instructions;
            put(format!("cpu.{}.{kernel}.ns_per_cycle", mach.tag()), t / plain.cycles as f64);

            let s = tr.enter("Machine::run_limited tick-accurate", mach.layer(), Some(&key));
            let tick = m.run_limited(&program, RunLimits::tick_accurate());
            pm.tick_ns[i] += ns(tr.exit(s));
            let problems = match tick {
                Ok(r) if r == plain => Vec::new(),
                Ok(_) => vec!["tick-accurate result differs from the event-driven one".into()],
                Err(e) => vec![format!("simulation error: {e}")],
            };
            tally.record(&format!("{key} tick-accurate"), &problems);

            for attributed in [false, true] {
                let s = tr.enter("Machine::run_observed", "obs", Some(&key));
                let mut rec = Recorder::disabled();
                if attributed {
                    rec.enable_attribution(m.attrib_config());
                }
                let observed = m.run_observed(&program, &mut rec);
                let t = ns(tr.exit(s));
                *if attributed { &mut pm.attrib_ns[i] } else { &mut pm.disabled_ns[i] } += t;
                let problems = match &observed {
                    Ok((r, _)) => observed_problems(r, Some(&plain), rec.attribution()),
                    Err(e) => vec![format!("simulation error: {e}")],
                };
                let mode = if attributed { "attributed" } else { "disabled recorder" };
                tally.record(&format!("{key} {mode}"), &problems);
            }
        }
        tr.exit(probe);
    }

    let apps = all_apps(&TraceConfig::default());
    let (mut coh_ns, mut coh_ops) = (0.0, 0u64);
    for app in &apps {
        for scheme in Scheme::all() {
            let key = format!("{}/{}", app.name, scheme.name());
            let s = tr.enter("imo_coherence::simulate", "coherence", Some(&key));
            let r = simulate(app, scheme, &MachineParams::table2());
            coh_ns += ns(tr.exit(s));
            let problems = match &r {
                Ok(r) => {
                    coh_ops += r.ops;
                    Vec::new()
                }
                Err(e) => vec![format!("simulation error: {e}")],
            };
            tally.record(&key, &problems);
        }
    }

    put("workloads.build_us".into(), build_ns / 1e3);
    put("core.instrument_us".into(), instrument_ns / 1e3);
    put("isa.exec.ns_per_instr".into(), exec_ns / exec_instrs.max(1) as f64);
    put("mem.hier.ns_per_probe".into(), mem_ns / probes.max(1) as f64);
    put("mem.hier.probes".into(), probes as f64);
    for (i, mach) in Mach::BOTH.into_iter().enumerate() {
        let tag = mach.tag();
        put(format!("cpu.{tag}.ns_per_cycle"), pm.plain_ns[i] / pm.cycles[i].max(1) as f64);
        put(format!("cpu.{tag}.ns_per_instr"), pm.plain_ns[i] / pm.instrs[i].max(1) as f64);
        put(format!("cpu.{tag}.tick_ns_per_cycle"), pm.tick_ns[i] / pm.cycles[i].max(1) as f64);
        put(format!("cpu.{tag}.ff_speedup"), pm.tick_ns[i] / pm.plain_ns[i]);
        put(format!("obs.disabled.over_plain.{tag}"), pm.disabled_ns[i] / pm.plain_ns[i]);
        put(format!("obs.attrib.over_plain.{tag}"), pm.attrib_ns[i] / pm.plain_ns[i]);
    }
    let attrib_self: f64 = (0..2).map(|i| pm.attrib_ns[i] - pm.disabled_ns[i]).sum();
    let cycles: u64 = pm.cycles.iter().sum();
    put("obs.attrib.self_ns_per_cycle".into(), attrib_self / cycles.max(1) as f64);
    put("coherence.ns_per_op".into(), coh_ns / coh_ops.max(1) as f64);
    out.insert("isa.block.build_us".into(), Summary::of(&block_us).ok_or("no programs")?);
    Ok(out)
}
