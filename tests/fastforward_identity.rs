//! Fast-forward identity: the event-driven cores' no-progress cycle
//! skipping is a pure wall-clock optimization.
//!
//! `RunLimits::tick_accurate()` sets `force_tick_accurate`, which keeps the
//! wakeup-horizon computation (so deadlock detection is unchanged) but
//! advances time one cycle at a time instead of jumping to the next event.
//! Every run here must produce a bit-identical `RunResult` either way —
//! counters, slot accounting, trap and misprediction totals, all of it —
//! and an observed run must also record the same events, metrics, CPI
//! stack and miss attribution either way.

use imo_util::check::Checker;
use imo_util::ensure_eq;
use informing_memops::core::instrument::{instrument, HandlerBody, HandlerKind, Scheme};
use informing_memops::core::Machine;
use informing_memops::cpu::{ooo, OooConfig, Outcome, RunLimits, RunResult, SimSession, TrapModel};
use informing_memops::isa::Program;
use informing_memops::mem::MshrMode;
use informing_memops::obs::{CategoryMask, Recorder};
use informing_memops::workloads::{all, by_name, Scale};

fn schemes() -> [(&'static str, Scheme); 5] {
    let one = HandlerBody::Generic { len: 1 };
    let body = HandlerBody::Generic { len: 10 };
    [
        ("none", Scheme::None),
        // Fig. 2's 1-instruction handlers: short enough that a missed
        // load's replay floor outlives its data, which moves the stall
        // class inside a fast-forwarded window.
        ("trap-1S", Scheme::Trap { handlers: HandlerKind::Single, body: one }),
        ("trap-1U", Scheme::Trap { handlers: HandlerKind::PerReference, body: one }),
        ("trap-10S", Scheme::Trap { handlers: HandlerKind::Single, body }),
        ("cc-10S", Scheme::ConditionCode { handlers: HandlerKind::Single, body }),
    ]
}

/// All 14 workloads x both machines x 5 schemes: event-driven equals
/// tick-accurate bit-for-bit.
#[test]
fn all_workloads_machines_schemes_are_tick_identical() {
    for spec in all() {
        let p = (spec.build)(Scale::Test);
        for (label, scheme) in &schemes() {
            let inst = instrument(&p, scheme).expect("instruments");
            for machine in [Machine::default_ooo(), Machine::default_in_order()] {
                let event = machine
                    .run_limited(&inst.program, RunLimits::default())
                    .unwrap_or_else(|e| panic!("{}/{label}: {e}", spec.name));
                let tick = machine
                    .run_limited(&inst.program, RunLimits::tick_accurate())
                    .unwrap_or_else(|e| panic!("{}/{label} (tick): {e}", spec.name));
                assert_eq!(
                    event,
                    tick,
                    "{}/{}/{label}: fast-forward must not change the simulation",
                    spec.name,
                    machine.name()
                );
            }
        }
    }
}

/// Block-batch property sweep: 32 seeded random configurations, each run in
/// one of the three modes that interact with the block-batched fast paths —
/// recorder on and attribution on (which ride through the batch path and
/// must observe exactly what a tick-accurate observed run observes), and a
/// `stop_at` landing mid-run (which checkpoints batch-fetched plain
/// instructions still queued and resumes them). Every mode must end
/// bit-identical to the tick-accurate reference.
#[test]
fn block_batch_modes_are_tick_identical() {
    let names: Vec<&'static str> = all().iter().map(|s| s.name).collect();
    Checker::new("fastforward_block_batch_modes").cases(32).run(|g| {
        let name = *g.pick(&names);
        let p = (by_name(name).expect("workload exists").build)(Scale::Test);
        let handlers = *g.pick(&[HandlerKind::Single, HandlerKind::PerReference]);
        let body = HandlerBody::Generic { len: *g.pick(&[1u32, 10, 100]) };
        let scheme = *g.pick(&[
            Scheme::None,
            Scheme::Trap { handlers, body },
            Scheme::ConditionCode { handlers, body },
        ]);
        let inst = instrument(&p, &scheme).map_err(|e| format!("{name}: {e}"))?;
        let machine = if g.bool() { Machine::default_ooo() } else { Machine::default_in_order() };
        let ctx = format!("{name} on {} under {scheme:?}", machine.name());
        let tick = machine
            .run_limited(&inst.program, RunLimits::tick_accurate())
            .map_err(|e| format!("{ctx} (tick): {e}"))?;
        match *g.pick(&["recorder", "attrib", "stop_at"]) {
            "recorder" => {
                let ev = observed(&machine, &inst.program, RunLimits::default(), full_recorder)?;
                ensure_eq!(ev.0, tick, "{ctx}: recorder on");
                ensure_eq!(ev.1.cpi.total(), tick.cycles, "{ctx}: CPI covers every cycle");
                let tk =
                    observed(&machine, &inst.program, RunLimits::tick_accurate(), full_recorder)?;
                same_observation(&ctx, &ev, &tk)?;
            }
            "attrib" => {
                let ev = observed(&machine, &inst.program, RunLimits::default(), attrib_recorder)?;
                ensure_eq!(ev.0, tick, "{ctx}: attribution on");
                let tk =
                    observed(&machine, &inst.program, RunLimits::tick_accurate(), attrib_recorder)?;
                same_observation(&ctx, &ev, &tk)?;
            }
            mode => {
                debug_assert_eq!(mode, "stop_at");
                let stop = g.int(1..tick.cycles.max(2));
                let outcome = SimSession::new(&inst.program, machine)
                    .stop_at(stop)
                    .run()
                    .map_err(|e| format!("{ctx} stop {stop}: {e}"))?;
                let resumed = match outcome {
                    Outcome::Paused(ckpt) => run_to_completion(
                        SimSession::new(&inst.program, machine)
                            .resume(&ckpt)
                            .map_err(|e| format!("{ctx} resume: {e}"))?,
                    )?,
                    Outcome::Complete { result, .. } => result,
                };
                ensure_eq!(resumed, tick, "{ctx}: stop_at {stop} mid-run");
            }
        }
        Ok(())
    });
}

fn run_to_completion(outcome: Outcome) -> Result<RunResult, String> {
    match outcome {
        Outcome::Complete { result, .. } => Ok(result),
        Outcome::Paused(c) => Err(format!("unexpected pause at cycle {}", c.cycle())),
    }
}

/// 32 random (workload, scheme, machine) triples — including the 1- and
/// 100-instruction handler bodies, per-reference handlers, and the
/// out-of-order configurations the fixed matrix above does not cover: trap
/// as exception (resolutions at graduation), 1 and 3 shadow checkpoints
/// (checkpoint-stalled dispatch), and standard MSHRs.
#[test]
fn random_configurations_are_tick_identical() {
    let names: Vec<&'static str> = all().iter().map(|s| s.name).collect();
    Checker::new("fastforward_identity_random").cases(32).run(|g| {
        let name = *g.pick(&names);
        let p = (by_name(name).expect("workload exists").build)(Scale::Test);
        let handlers = *g.pick(&[HandlerKind::Single, HandlerKind::PerReference]);
        let body = HandlerBody::Generic { len: *g.pick(&[1u32, 10, 100]) };
        let scheme = *g.pick(&[
            Scheme::None,
            Scheme::Trap { handlers, body },
            Scheme::ConditionCode { handlers, body },
        ]);
        let inst = instrument(&p, &scheme).map_err(|e| format!("{name}: {e}"))?;
        let (machine, variant) = if g.bool() {
            let mut cfg = OooConfig::paper();
            let variant =
                *g.pick(&["paper", "trap-exception", "1-checkpoint", "3-checkpoints", "std-mshr"]);
            match variant {
                "trap-exception" => cfg.trap_model = TrapModel::Exception,
                "1-checkpoint" => cfg.max_checkpoints = 1,
                "3-checkpoints" => cfg.max_checkpoints = 3,
                "std-mshr" => cfg.mshr_mode = MshrMode::Standard,
                _ => {}
            }
            (Machine::OutOfOrder(cfg), variant)
        } else {
            (Machine::default_in_order(), "paper")
        };
        let event = machine
            .run_limited(&inst.program, RunLimits::default())
            .map_err(|e| format!("{name} on {} {variant}: {e}", machine.name()))?;
        let tick = machine
            .run_limited(&inst.program, RunLimits::tick_accurate())
            .map_err(|e| format!("{name} on {} {variant} (tick): {e}", machine.name()))?;
        ensure_eq!(event, tick, "{name} on {} {variant} under {scheme:?}", machine.name());
        Ok(())
    });
}

/// Builds a fresh recorder for one observed run on a machine.
type MakeRecorder = fn(&Machine) -> Recorder;

/// A recorder keeping every event category in a ring that never evicts.
fn full_recorder(_: &Machine) -> Recorder {
    Recorder::with_capacity(CategoryMask::ALL, usize::MAX)
}

/// The `why_miss` configuration: no events kept, attribution on.
fn attrib_recorder(machine: &Machine) -> Recorder {
    let mut rec = Recorder::disabled();
    rec.enable_attribution(machine.attrib_config());
    rec
}

/// Runs `program` to completion under a fresh recorder from `make`.
fn observed(
    machine: &Machine,
    program: &Program,
    limits: RunLimits,
    make: MakeRecorder,
) -> Result<(RunResult, Recorder), String> {
    let mut rec = make(machine);
    let outcome = SimSession::new(program, *machine)
        .limits(limits)
        .recorder(&mut rec)
        .run()
        .map_err(|e| format!("{} observed run: {e}", machine.name()))?;
    Ok((run_to_completion(outcome)?, rec))
}

/// Every observable of two observed runs agrees: the result, the retained
/// events in order, the recorded and dropped counts, the CPI stack, the
/// metrics registry, and the attribution state.
fn same_observation(
    ctx: &str,
    (res_a, a): &(RunResult, Recorder),
    (res_b, b): &(RunResult, Recorder),
) -> Result<(), String> {
    ensure_eq!(res_a, res_b, "{ctx}: result");
    ensure_eq!(a.total_recorded(), b.total_recorded(), "{ctx}: events recorded");
    ensure_eq!(a.dropped(), 0, "{ctx}: the ring must retain every event");
    ensure_eq!(b.dropped(), 0, "{ctx}: the ring must retain every event");
    if a.events() != b.events() {
        let first = a.events().iter().zip(b.events()).position(|(x, y)| *x != y);
        return Err(format!("{ctx}: event streams differ (first at index {first:?})"));
    }
    ensure_eq!(a.cpi, b.cpi, "{ctx}: CPI stack");
    ensure_eq!(a.metrics, b.metrics, "{ctx}: metrics");
    ensure_eq!(
        format!("{:?}", a.attribution()),
        format!("{:?}", b.attribution()),
        "{ctx}: attribution state"
    );
    Ok(())
}

/// Observation must not change what is simulated nor what is observed:
/// 14 workloads x {N, trap-10S, cc-10S, trap-1U} x both machines, each
/// under a never-evicting full recorder and under attribution alone, run
/// event-driven (block-batched) and tick-accurate, agree on every
/// observable.
#[test]
fn observed_runs_are_tick_identical_on_every_observable() {
    let one = HandlerBody::Generic { len: 1 };
    let body = HandlerBody::Generic { len: 10 };
    let schemes = [
        ("none", Scheme::None),
        ("trap-10S", Scheme::Trap { handlers: HandlerKind::Single, body }),
        ("cc-10S", Scheme::ConditionCode { handlers: HandlerKind::Single, body }),
        ("trap-1U", Scheme::Trap { handlers: HandlerKind::PerReference, body: one }),
    ];
    let recorders: [(&str, MakeRecorder); 2] =
        [("full", full_recorder), ("attrib", attrib_recorder)];
    let mut failures = Vec::new();
    for spec in all() {
        let p = (spec.build)(Scale::Test);
        for (label, scheme) in &schemes {
            let inst = instrument(&p, scheme).expect("instruments");
            for machine in [Machine::default_ooo(), Machine::default_in_order()] {
                for (rec_label, make) in recorders {
                    let ctx = format!("{}/{}/{label}/{rec_label}", spec.name, machine.name());
                    let ev = observed(&machine, &inst.program, RunLimits::default(), make)
                        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    let tk = observed(&machine, &inst.program, RunLimits::tick_accurate(), make)
                        .unwrap_or_else(|e| panic!("{ctx} (tick): {e}"));
                    if let Err(e) = same_observation(&ctx, &ev, &tk) {
                        failures.push(e);
                    }
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} of 224 cases differ:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// Traced out-of-order runs ride the fast path too: the per-instruction
/// pipeline trace is identical event-driven and tick-accurate.
#[test]
fn traced_runs_are_tick_identical() {
    for spec in all() {
        let p = (spec.build)(Scale::Test);
        for (label, scheme) in &schemes() {
            let inst = instrument(&p, scheme).expect("instruments");
            let cfg = OooConfig::paper();
            let ev = ooo::simulate_traced(&inst.program, &cfg, RunLimits::default())
                .unwrap_or_else(|e| panic!("{}/{label}: {e}", spec.name));
            let tk = ooo::simulate_traced(&inst.program, &cfg, RunLimits::tick_accurate())
                .unwrap_or_else(|e| panic!("{}/{label} (tick): {e}", spec.name));
            assert_eq!(ev.0, tk.0, "{}/{label}: traced result", spec.name);
            assert!(ev.1 == tk.1, "{}/{label}: pipeline traces differ", spec.name);
        }
    }
}
