//! Property-based tests: both cycle-level models must be *functionally
//! transparent* — for any program, informing operations and miss handlers
//! included, the architectural results equal the functional executor's
//! (run against identical cache state), and basic timing invariants hold. Runs on the in-tree `imo_util::check` harness
//! (64 seeded cases per property, as under proptest).

use imo_util::check::{Checker, Gen};
use imo_util::{ensure, ensure_eq};

use imo_cpu::{InOrderConfig, Machine, OooConfig, Outcome, RunLimits, RunResult, SimSession};
use imo_isa::exec::{ArchState, Executor, MissDepth, MissOracle};
use imo_isa::{Asm, Cond, Instr, MemKind, Program, Reg};
use imo_mem::{HierarchyConfig, HitLevel, MemoryHierarchy};

/// Base of the data the generated programs touch (held in r15).
const DATA_BASE: u64 = 0x10_0000;
/// Rows of data words, 8 KB apart, so they conflict in both machines'
/// primary caches.
const ROWS: u64 = 8;
const ROW_BYTES: u64 = 8 * 1024;
/// Words per row.
const ROW_WORDS: u64 = 32;
/// The word the miss handler stores the MAR to (address held in r11).
const HANDLER_SLOT: u64 = 0x0F_F000;

/// One generated instruction. The miss-branch forms target the handler
/// label, so they are emitted through the assembler.
#[derive(Clone, Copy)]
enum Op {
    Instr(Instr),
    BranchOnMiss,
    BranchOnMemMiss,
}

/// A data reference's offset from r15: any word of any row.
fn arb_offset(g: &mut Gen) -> i64 {
    (g.int(0..ROWS) * ROW_BYTES + g.int(0..ROW_WORDS) * 8) as i64
}

fn arb_kind(g: &mut Gen) -> MemKind {
    if g.bool() {
        MemKind::Informing
    } else {
        MemKind::Normal
    }
}

fn arb_op(g: &mut Gen) -> Op {
    Op::Instr(match g.int(0u32..10) {
        0 => Instr::Add {
            rd: Reg::int(g.int(1u8..8)),
            rs: Reg::int(g.int(1u8..8)),
            rt: Reg::int(g.int(1u8..8)),
        },
        1 => Instr::Addi {
            rd: Reg::int(g.int(1u8..8)),
            rs: Reg::int(g.int(1u8..8)),
            imm: g.int(-64i64..64),
        },
        2 => Instr::Srl {
            rd: Reg::int(g.int(1u8..8)),
            rs: Reg::int(g.int(1u8..8)),
            sh: g.int(0u8..5),
        },
        3 => Instr::Mul {
            rd: Reg::int(g.int(1u8..8)),
            rs: Reg::int(g.int(1u8..8)),
            rt: Reg::int(g.int(1u8..8)),
        },
        4 => Instr::Load {
            rd: Reg::int(g.int(1u8..8)),
            base: Reg::int(15),
            offset: arb_offset(g),
            kind: arb_kind(g),
        },
        5 => Instr::Store {
            rs: Reg::int(g.int(1u8..8)),
            base: Reg::int(15),
            offset: arb_offset(g),
            kind: arb_kind(g),
        },
        6 => Instr::Prefetch { base: Reg::int(15), offset: arb_offset(g) },
        7 => return Op::BranchOnMiss,
        8 => return Op::BranchOnMemMiss,
        _ => Instr::Fadd {
            fd: Reg::fp(g.int(1u8..4)),
            fs: Reg::fp(g.int(1u8..4)),
            ft: Reg::fp(g.int(1u8..4)),
        },
    })
}

/// A structured random program: straight-line ALU/memory blocks (normal
/// and informing loads and stores, prefetches, `bmiss`/`bmissmem`) with a
/// bounded counted loop, always terminating in `halt`. Behind the `halt`
/// sits a miss handler, the target of every miss branch and — when the
/// program installs it with `set_mhar` — of every informing trap: it
/// counts in r9, reads the MAR into r10, stores it to a slot (r11) and sums
/// it into r12, then returns with `jmhrr`.
fn arb_program(g: &mut Gen) -> Program {
    let install = g.bool();
    let pro = g.vec(0..12, arb_op);
    let body = g.vec(1..10, arb_op);
    let trips = g.int(1u64..8);
    let mut a = Asm::new();
    let handler = a.label("handler");
    a.li(Reg::int(15), DATA_BASE as i64);
    a.li(Reg::int(11), HANDLER_SLOT as i64);
    if install {
        a.set_mhar(handler);
    }
    let emit = |a: &mut Asm, op: &Op| match *op {
        Op::Instr(i) => a.emit(i),
        Op::BranchOnMiss => a.branch_on_miss(handler),
        Op::BranchOnMemMiss => a.branch_on_mem_miss(handler),
    };
    for op in &pro {
        emit(&mut a, op);
    }
    let (ctr, lim) = (Reg::int(14), Reg::int(13));
    a.li(ctr, 0);
    a.li(lim, trips as i64);
    let top = a.here("top");
    for op in &body {
        emit(&mut a, op);
    }
    a.addi(ctr, ctr, 1);
    a.branch(Cond::Lt, ctr, lim, top);
    a.halt();
    a.bind(handler).expect("handler label is bound once");
    a.addi(Reg::int(9), Reg::int(9), 1);
    a.read_mar(Reg::int(10));
    a.store(Reg::int(10), Reg::int(11), 0);
    a.add(Reg::int(12), Reg::int(12), Reg::int(10));
    a.jump_mhrr();
    a.assemble().expect("generated program assembles")
}

/// Oracle reproducing the hierarchy's probe outcomes deterministically,
/// software prefetches included.
struct HierOracle(MemoryHierarchy);

impl MissOracle for HierOracle {
    fn probe(&mut self, addr: u64, is_store: bool) -> MissDepth {
        match self.0.probe_data(addr, is_store).level {
            HitLevel::L1 => MissDepth::Hit,
            HitLevel::L2 => MissDepth::L1Miss,
            HitLevel::Memory => MissDepth::MemMiss,
        }
    }

    fn prefetch(&mut self, addr: u64) {
        self.0.probe_prefetch(addr);
    }
}

/// Every data word a generated program can write.
fn touched_words() -> impl Iterator<Item = u64> {
    (0..ROWS * ROW_WORDS)
        .map(|i| DATA_BASE + i / ROW_WORDS * ROW_BYTES + i % ROW_WORDS * 8)
        .chain([HANDLER_SLOT])
}

/// A core's final architectural state matches the functional executor's:
/// r1–r15, every FP register, the instruction count and every touched
/// data word.
fn same_state(
    what: &str,
    core: &ArchState,
    core_instret: u64,
    fe: &Executor,
) -> Result<(), String> {
    for r in 1..16u8 {
        let reg = Reg::int(r);
        ensure_eq!(core.int(reg), fe.state().int(reg), "{} r{}", what, r);
    }
    for r in 0..32u8 {
        let reg = Reg::fp(r);
        ensure_eq!(core.fp(reg).to_bits(), fe.state().fp(reg).to_bits(), "{} f{}", what, r);
    }
    ensure_eq!(core_instret, fe.instret(), "{} instret", what);
    for addr in touched_words() {
        let (c, f) = (core.memory().read(addr), fe.state().memory().read(addr));
        ensure_eq!(c, f, "{} word {:#x}", what, addr);
    }
    Ok(())
}

/// The functional executor, driven by an oracle over a fresh hierarchy of
/// the given shape, run to completion.
fn reference(p: &Program, hier: HierarchyConfig) -> Executor<'_> {
    let mut oracle = HierOracle(MemoryHierarchy::new(hier));
    let mut fe = Executor::new(p);
    fe.run(&mut oracle, 1_000_000).expect("functional runs");
    fe
}

/// Both cycle-level models, fast and tick-accurate, agree with the
/// functional executor driven by their own machine's hierarchy: the
/// informing traps, miss branches and handler side effects they take are
/// exactly the architectural ones.
#[test]
fn models_are_functionally_transparent() {
    Checker::new("models_are_functionally_transparent").cases(64).run(|g| {
        let p = arb_program(g);
        let fast = RunLimits {
            max_instructions: 1_000_000,
            max_cycles: 10_000_000,
            ..RunLimits::default()
        };
        let tick = RunLimits { force_tick_accurate: true, ..fast };
        let ooo_ref = reference(&p, OooConfig::paper().hier);
        let inorder_ref = reference(&p, InOrderConfig::paper().hier);
        for (mode, limits) in [("fast", fast), ("tick", tick)] {
            let (r, s) = run_full(&p, Machine::default_ooo(), limits);
            same_state(&format!("ooo {mode}"), &s, r.instructions, &ooo_ref)?;
            let (r, s) = run_full(&p, Machine::default_in_order(), limits);
            same_state(&format!("inorder {mode}"), &s, r.instructions, &inorder_ref)?;
        }
        Ok(())
    });
}

/// Runs `p` on `machine` under `limits` to completion, with its final
/// architectural state.
fn run_full(p: &Program, machine: Machine, limits: RunLimits) -> (RunResult, ArchState) {
    match SimSession::new(p, machine).limits(limits).run() {
        Ok(Outcome::Complete { result, state }) => (result, state),
        Ok(Outcome::Paused(c)) => {
            panic!("{}: paused at {} without a stop boundary", machine.name(), c.cycle())
        }
        Err(e) => panic!("{} runs: {e}", machine.name()),
    }
}

/// Timing sanity: slot accounting is exhaustive, cycles bound the
/// instruction count from below (width 4), and simulation is
/// deterministic.
#[test]
fn timing_invariants() {
    Checker::new("timing_invariants").cases(64).run(|g| {
        let p = arb_program(g);
        let a = Machine::default_ooo().run(&p).expect("runs");
        let b = Machine::default_ooo().run(&p).expect("runs");
        ensure_eq!(a, b, "determinism");
        ensure_eq!(a.slots.total(), a.cycles * 4);
        ensure!(a.cycles * 4 >= a.instructions, "cannot graduate more than 4/cycle");
        ensure!(a.cycles >= 1);

        let i = Machine::default_in_order().run(&p).expect("runs");
        ensure_eq!(i.slots.total(), i.cycles * 4);
        ensure!(i.cycles * 4 >= i.instructions);
        Ok(())
    });
}

/// The functional executor driven by a fresh hierarchy oracle reproduces
/// exactly the informing behaviour the timing model saw: probe outcomes
/// depend only on program order, not on timing.
#[test]
fn probe_outcomes_are_timing_independent() {
    Checker::new("probe_outcomes_are_timing_independent").cases(64).run(|g| {
        let p = arb_program(g);
        let r = Machine::default_ooo().run(&p).expect("runs");
        let mut oracle = HierOracle(MemoryHierarchy::new(HierarchyConfig::out_of_order()));
        let mut fe = Executor::new(&p);
        fe.run(&mut oracle, 1_000_000).expect("functional runs");
        ensure_eq!(
            r.mem.l1d_misses,
            oracle.0.stats().l1d_misses_to_l2 + oracle.0.stats().l1d_misses_to_mem
        );
        ensure_eq!(r.mem.l1d_accesses, oracle.0.stats().data_refs);
        Ok(())
    });
}
