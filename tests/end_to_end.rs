//! Cross-crate integration tests: the headline results of the paper, each
//! verified end-to-end through the full stack (workload kernel → binary
//! rewriting → cycle-level simulation), at test scale.

use informing_memops::core::experiment::{figure2_variants, run_experiment};
use informing_memops::core::instrument::{instrument, HandlerBody, HandlerKind, Scheme};
use informing_memops::core::Machine;
use informing_memops::cpu::{OooConfig, RunLimits, TrapModel};
use informing_memops::workloads::{all, by_name, Scale};

fn program_of(name: &str) -> informing_memops::isa::Program {
    (by_name(name).expect("workload exists").build)(Scale::Test)
}

#[test]
fn every_workload_runs_instrumented_on_both_machines() {
    let scheme =
        Scheme::Trap { handlers: HandlerKind::Single, body: HandlerBody::Generic { len: 1 } };
    for spec in all() {
        let p = (spec.build)(Scale::Test);
        let inst = instrument(&p, &scheme).expect("instruments");
        for machine in [Machine::default_ooo(), Machine::default_in_order()] {
            let r = machine
                .run(&inst.program)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", spec.name, machine.name()));
            assert!(r.instructions > 1000, "{}: too little work", spec.name);
            assert_eq!(r.slots.total(), r.cycles * 4, "{}: slot accounting", spec.name);
        }
    }
}

#[test]
fn figure2_shape_single_handler_beats_unique_on_instructions() {
    // The single-handler configuration never executes more instructions
    // than the unique-handler one, for any workload (the setmhar tax).
    for name in ["compress", "alvinn"] {
        let p = program_of(name);
        let res = run_experiment(
            name,
            &p,
            &Machine::default_ooo(),
            &figure2_variants(),
            RunLimits::default(),
        )
        .expect("experiment runs");
        let by = |l: &str| res.raw.iter().find(|(x, _)| *x == l).unwrap().1;
        assert!(by("1S").instructions <= by("1U").instructions, "{name}");
        assert!(by("10S").instructions <= by("10U").instructions, "{name}");
        assert!(by("N").instructions <= by("1S").instructions, "{name}");
    }
}

#[test]
fn figure3_shape_su2cor_punishes_the_in_order_machine() {
    let p = program_of("su2cor");
    let variants = figure2_variants();
    let ooo_res =
        run_experiment("su2cor", &p, &Machine::default_ooo(), &variants, RunLimits::default())
            .expect("ooo runs");
    let ino_res =
        run_experiment("su2cor", &p, &Machine::default_in_order(), &variants, RunLimits::default())
            .expect("in-order runs");
    let bar = |r: &informing_memops::core::ExperimentResult, l: &str| {
        r.bars.iter().find(|b| b.label == l).unwrap().total
    };
    let ino_10s = bar(&ino_res, "10S");
    let ooo_10s = bar(&ooo_res, "10S");
    assert!(
        ino_10s > 2.0,
        "su2cor 10-instr handlers should blow up the in-order machine: {ino_10s}"
    );
    assert!(ooo_10s < 1.5, "but stay moderate out-of-order: {ooo_10s}");
}

#[test]
fn trap_as_exception_costs_more_and_gap_shrinks_with_handler_length() {
    let p = program_of("compress");
    let run = |trap_model: TrapModel, len: u32| {
        let scheme =
            Scheme::Trap { handlers: HandlerKind::Single, body: HandlerBody::Generic { len } };
        let inst = instrument(&p, &scheme).expect("instruments");
        let mut cfg = OooConfig::paper();
        cfg.trap_model = trap_model;
        Machine::OutOfOrder(cfg).run(&inst.program).expect("runs").cycles
    };
    let b1 = run(TrapModel::Branch, 1);
    let e1 = run(TrapModel::Exception, 1);
    let b10 = run(TrapModel::Branch, 10);
    let e10 = run(TrapModel::Exception, 10);
    assert!(e1 > b1, "exception treatment is slower (1-instr): {e1} vs {b1}");
    assert!(e10 > b10, "exception treatment is slower (10-instr): {e10} vs {b10}");
    let gap1 = e1 as f64 / b1 as f64;
    let gap10 = e10 as f64 / b10 as f64;
    assert!(
        gap1 > gap10,
        "the relative gap shrinks as handlers grow (paper: 9% -> 7%): {gap1:.3} vs {gap10:.3}"
    );
}

#[test]
fn zero_hit_overhead_of_the_single_trap_handler() {
    // ora barely misses: the single-handler trap scheme must cost (almost)
    // nothing, while the explicit condition-code check costs an instruction
    // per reference.
    let p = program_of("ora");
    let machine = Machine::default_ooo();
    let n = machine.run(&p).expect("baseline");
    let trap = instrument(
        &p,
        &Scheme::Trap { handlers: HandlerKind::Single, body: HandlerBody::Generic { len: 10 } },
    )
    .expect("instruments");
    let cc = instrument(
        &p,
        &Scheme::ConditionCode {
            handlers: HandlerKind::Single,
            body: HandlerBody::Generic { len: 10 },
        },
    )
    .expect("instruments");
    let rt = machine.run(&trap.program).expect("trap run");
    let rc = machine.run(&cc.program).expect("cc run");
    let trap_overhead = rt.cycles as f64 / n.cycles as f64;
    assert!(trap_overhead < 1.03, "trap scheme on hits ~free: {trap_overhead}");
    assert!(
        rc.instructions > rt.instructions,
        "the cc scheme fetches an explicit check per reference"
    );
}

#[test]
fn condition_code_and_trap_schemes_count_the_same_misses() {
    let p = program_of("espresso");
    let machine = Machine::default_in_order();
    let count = |scheme: &Scheme| {
        let inst = instrument(&p, scheme).expect("instruments");
        let (r, state) = machine.run_full(&inst.program).expect("runs");
        (state.int(informing_memops::core::instrument::COUNT_REG), r.informing_traps)
    };
    let (trap_count, trap_traps) =
        count(&Scheme::Trap { handlers: HandlerKind::Single, body: HandlerBody::CountInRegister });
    let (cc_count, cc_traps) = count(&Scheme::ConditionCode {
        handlers: HandlerKind::Single,
        body: HandlerBody::CountInRegister,
    });
    assert_eq!(trap_count, trap_traps);
    assert_eq!(cc_count, cc_traps);
    // The two mechanisms observe the same reference stream; the cc scheme's
    // extra bmiss instructions do not touch the data cache, so the counts
    // match exactly.
    assert_eq!(trap_count, cc_count);
}
