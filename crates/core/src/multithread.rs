//! §4.1.3 — software-controlled multithreading: context-switch on a miss.
//!
//! A single miss handler parks the interrupted thread's resume address and
//! resumes the other thread, entirely under software control. Following the
//! paper's proposed optimization, the register set is **statically
//! partitioned between the threads by the compiler**, so the handler saves
//! and restores *nothing* — it is four instructions:
//!
//! ```text
//! handler:  rdmhrr  r24            ; my resume address
//!           setmhrr r26            ; return to the *other* thread instead
//!           or      r26, r24, r0   ; park my resume for the next switch
//!           jmhrr
//! ```
//!
//! While the switched-out thread's miss is serviced by the non-blocking
//! cache, the other thread executes; by the time control switches back the
//! data has usually arrived.
//!
//! Two switch policies are provided, matching the paper's discussion:
//!
//! * [`SwitchPolicy::EveryMiss`] — low-overhead traps on every primary miss
//!   (zero hit overhead, but switching on a 12-cycle secondary-cache hit
//!   costs more than it hides);
//! * [`SwitchPolicy::SecondaryMiss`] — the paper's first optimization:
//!   "invoke a thread switch only on secondary (rather than primary) cache
//!   misses", isolated here with the secondary-level outcome condition code
//!   (`bmissmem`; footnote 4 of the paper).
//!
//! The demonstration workload is the case multithreading actually targets:
//! **dependent** misses that a dynamically-scheduled processor cannot
//! overlap by itself — pointer chains whose nodes live on distinct pages.
//! With `rounds > 1` the chains are re-walked after they have become
//! resident in the secondary cache, exposing the difference between the two
//! policies.

use imo_cpu::{Machine, RunResult, SimError};
use imo_isa::{Asm, Cond, Label, Program, Reg};

/// When the switch handler is invoked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SwitchPolicy {
    /// Switch on every primary-cache miss (informing traps; zero overhead on
    /// hits).
    #[default]
    EveryMiss,
    /// Switch only when the reference went all the way to memory, using an
    /// explicit `bmissmem` check after each chain load (one instruction of
    /// overhead per hop).
    SecondaryMiss,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadMode {
    Serial,
    Switching(SwitchPolicy),
}

/// Parameters of the two-thread demonstration workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultithreadDemo {
    /// Pointer hops each thread performs per round.
    pub iters_per_thread: u64,
    /// Bytes between consecutive chain nodes (≥ 4096 makes every first-round
    /// hop a cold miss to main memory).
    pub stride: u64,
    /// How many times each thread re-walks its chain. Rounds after the first
    /// hit in the secondary cache (as long as the chain fits), turning
    /// memory misses into 12-cycle L2 hits.
    pub rounds: u64,
    /// Extra save/restore instructions in the switch handler. Zero models
    /// the paper's fully-optimized compiler-partitioned case; larger values
    /// model handlers that must spill state ("a handful to over 100
    /// instructions", §4.1.3) — which is when switching only on secondary
    /// misses starts to pay.
    pub save_restore: u32,
}

impl Default for MultithreadDemo {
    fn default() -> MultithreadDemo {
        MultithreadDemo { iters_per_thread: 300, stride: 4096, rounds: 1, save_restore: 0 }
    }
}

/// Thread-private register windows (the compiler partitioning).
const T0_REGS: [u8; 4] = [1, 2, 3, 4]; // ptr, sum, hop counter, round counter
const T1_REGS: [u8; 4] = [8, 9, 10, 11];
const LIMIT_REG: u8 = 16; // shared read-only loop bound
const DONE_REG: u8 = 17; // completed-thread count
const TWO_REG: u8 = 18; // constant 2
const ROUNDS_REG: u8 = 19; // shared read-only round bound
const STOP_REG: u8 = 22; // set when a thread finishes: handler stops swapping
const SWAP_REG: u8 = 26; // other thread's resume address (handler-owned)

const T0_BASE: u64 = 0x100_0000;
const T1_BASE: u64 = 0x800_0000;

impl MultithreadDemo {
    fn emit_chain_data(&self, a: &mut Asm, base: u64) {
        for i in 0..self.iters_per_thread {
            a.word(base + i * self.stride, base + (i + 1) * self.stride);
        }
        // Close the cycle so multiple rounds re-walk the same nodes.
        a.word(base + self.iters_per_thread * self.stride, base);
    }

    fn emit_thread(
        &self,
        a: &mut Asm,
        regs: [u8; 4],
        base: u64,
        mode: ThreadMode,
        handler: Label,
        after: Label,
    ) {
        let [ptr, sum, ctr, rnd] = regs.map(Reg::int);
        a.li(rnd, 0);
        let round_top = a.here(&format!("round_{base:x}_{mode:?}"));
        a.li(ptr, base as i64);
        a.li(ctr, 0);
        let top = a.here(&format!("loop_{base:x}_{mode:?}"));
        match mode {
            ThreadMode::Switching(SwitchPolicy::EveryMiss) => {
                a.load_inf(ptr, ptr, 0);
            }
            ThreadMode::Switching(SwitchPolicy::SecondaryMiss) => {
                a.load(ptr, ptr, 0);
                a.branch_on_mem_miss(handler);
            }
            ThreadMode::Serial => {
                a.load(ptr, ptr, 0);
            }
        }
        a.add(sum, sum, ptr);
        a.addi(ctr, ctr, 1);
        a.branch(Cond::Lt, ctr, Reg::int(LIMIT_REG), top);
        a.addi(rnd, rnd, 1);
        a.branch(Cond::Lt, rnd, Reg::int(ROUNDS_REG), round_top);
        if let ThreadMode::Switching(policy) = mode {
            // Thread epilogue: count completion; the last thread halts, an
            // earlier finisher disables switching and resumes the other
            // thread.
            a.addi(Reg::int(DONE_REG), Reg::int(DONE_REG), 1);
            a.branch(Cond::Ge, Reg::int(DONE_REG), Reg::int(TWO_REG), after);
            match policy {
                SwitchPolicy::EveryMiss => a.clear_mhar(),
                SwitchPolicy::SecondaryMiss => a.li(Reg::int(STOP_REG), 1),
            }
            a.jr(Reg::int(SWAP_REG));
        }
        // Serial threads simply fall through to whatever follows.
    }

    /// Dependent dummy spill work standing in for register save/restore.
    fn emit_save_restore(&self, a: &mut Asm) {
        let spill = Reg::int(25);
        for _ in 0..self.save_restore {
            a.addi(spill, spill, 1);
        }
    }

    fn emit_common_prologue(&self, a: &mut Asm) {
        a.li(Reg::int(LIMIT_REG), self.iters_per_thread as i64);
        a.li(Reg::int(TWO_REG), 2);
        a.li(Reg::int(ROUNDS_REG), self.rounds.max(1) as i64);
    }

    /// The serial baseline: both chains walked back-to-back with ordinary
    /// loads (no informing machinery at all).
    pub fn serial_program(&self) -> Program {
        let mut a = Asm::new();
        let end = a.label("end");
        let dummy = a.label("unused_handler");
        self.emit_common_prologue(&mut a);
        self.emit_thread(&mut a, T0_REGS, T0_BASE, ThreadMode::Serial, dummy, end);
        self.emit_thread(&mut a, T1_REGS, T1_BASE, ThreadMode::Serial, dummy, end);
        a.bind(end).expect("label is bound exactly once");
        a.halt();
        a.bind(dummy).expect("label is bound exactly once");
        a.jump_mhrr(); // never reached
        self.emit_chain_data(&mut a, T0_BASE);
        self.emit_chain_data(&mut a, T1_BASE);
        a.assemble().expect("well-formed serial program")
    }

    /// The switching version under `policy`.
    pub fn switching_program(&self, policy: SwitchPolicy) -> Program {
        let mut a = Asm::new();
        let end = a.label("end");
        let handler = a.label("handler");
        let t1_entry = a.label("t1_entry");
        let mode = ThreadMode::Switching(policy);

        self.emit_common_prologue(&mut a);
        let t1_addr_reg = Reg::int(SWAP_REG);
        if policy == SwitchPolicy::EveryMiss {
            a.set_mhar(handler);
        }
        // Thread 1 "registers itself": jump to a stub that records thread
        // 1's body address into the swap register, then return into thread 0.
        a.jal(t1_entry); // r31 = address of thread 0's first instruction
                         // --- thread 0 body ---
        self.emit_thread(&mut a, T0_REGS, T0_BASE, mode, handler, end);
        // --- thread 1 registration stub ---
        a.bind(t1_entry).expect("label is bound exactly once");
        let here_plus = a.next_addr() + 8; // address of t1 body (after 2 instrs)
        a.li(t1_addr_reg, here_plus as i64);
        a.jr(Reg::LINK);
        debug_assert_eq!(a.next_addr(), here_plus);
        // --- thread 1 body ---
        self.emit_thread(&mut a, T1_REGS, T1_BASE, mode, handler, end);
        // --- switch handler ---
        a.bind(handler).expect("label is bound exactly once");
        let scratch = Reg::int(24);
        if policy == SwitchPolicy::SecondaryMiss {
            // A finished thread cannot be resumed: once STOP is set, return
            // straight to the interrupted thread.
            let ret = a.label("handler_ret");
            a.branch(Cond::Ne, Reg::int(STOP_REG), Reg::ZERO, ret);
            self.emit_save_restore(&mut a);
            a.read_mhrr(scratch);
            a.set_mhrr_reg(t1_addr_reg);
            a.or(t1_addr_reg, scratch, Reg::ZERO);
            a.bind(ret).expect("label is bound exactly once");
            a.jump_mhrr();
        } else {
            self.emit_save_restore(&mut a);
            a.read_mhrr(scratch);
            a.set_mhrr_reg(t1_addr_reg);
            a.or(t1_addr_reg, scratch, Reg::ZERO);
            a.jump_mhrr();
        }
        // --- end ---
        a.bind(end).expect("label is bound exactly once");
        a.halt();
        self.emit_chain_data(&mut a, T0_BASE);
        self.emit_chain_data(&mut a, T1_BASE);
        a.assemble().expect("well-formed switching program")
    }
}

/// Serial vs switch-on-miss comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultithreadComparison {
    /// The serial run.
    pub serial: RunResult,
    /// The switch-on-miss run.
    pub switching: RunResult,
}

impl MultithreadComparison {
    /// `serial cycles / switching cycles` (> 1 means switching won).
    pub fn speedup(&self) -> f64 {
        self.serial.cycles as f64 / self.switching.cycles.max(1) as f64
    }
}

/// Runs the demo workload serially and with every-miss switching.
///
/// # Errors
///
/// Propagates [`SimError`] from the simulator.
pub fn evaluate_multithreading(
    demo: &MultithreadDemo,
    machine: &Machine,
) -> Result<MultithreadComparison, SimError> {
    evaluate_multithreading_with(demo, machine, SwitchPolicy::EveryMiss)
}

/// Runs the demo workload serially and with switching under `policy`.
///
/// # Errors
///
/// Propagates [`SimError`] from the simulator.
pub fn evaluate_multithreading_with(
    demo: &MultithreadDemo,
    machine: &Machine,
    policy: SwitchPolicy,
) -> Result<MultithreadComparison, SimError> {
    let serial = machine.run(&demo.serial_program())?;
    let switching = machine.run(&demo.switching_program(policy))?;
    Ok(MultithreadComparison { serial, switching })
}

#[cfg(test)]
mod tests {
    use super::*;
    use imo_isa::exec::{Executor, NeverMiss};

    #[test]
    fn both_programs_compute_the_same_sums() {
        let demo =
            MultithreadDemo { iters_per_thread: 20, stride: 4096, rounds: 2, save_restore: 3 };
        // Functional check under a never-miss oracle (no switching at all).
        let ps = demo.serial_program();
        for policy in [SwitchPolicy::EveryMiss, SwitchPolicy::SecondaryMiss] {
            let pm = demo.switching_program(policy);
            let mut es = Executor::new(&ps);
            es.run(&mut NeverMiss, 100_000).unwrap();
            let mut em = Executor::new(&pm);
            em.run(&mut NeverMiss, 100_000).unwrap();
            for regs in [T0_REGS, T1_REGS] {
                let sum = Reg::int(regs[1]);
                assert_ne!(es.state().int(sum), 0, "chains actually walked");
                assert_eq!(es.state().int(sum), em.state().int(sum), "{policy:?}");
            }
            assert!(es.state().halted() && em.state().halted());
        }
    }

    #[test]
    fn switching_program_switches_and_completes_on_real_caches() {
        let demo =
            MultithreadDemo { iters_per_thread: 100, stride: 4096, rounds: 1, save_restore: 0 };
        let machine = Machine::default_ooo();
        let (res, state) =
            machine.run_full(&demo.switching_program(SwitchPolicy::EveryMiss)).unwrap();
        assert!(res.informing_traps > 50, "threads actually switched: {}", res.informing_traps);
        assert_eq!(state.int(Reg::int(DONE_REG)), 2, "both threads finished");
    }

    #[test]
    fn switching_sums_match_serial_under_real_caches() {
        // The architectural result must be identical regardless of how often
        // the threads interleave, for both policies.
        let demo =
            MultithreadDemo { iters_per_thread: 50, stride: 4096, rounds: 2, save_restore: 2 };
        let machine = Machine::default_in_order();
        let (_, ss) = machine.run_full(&demo.serial_program()).unwrap();
        for policy in [SwitchPolicy::EveryMiss, SwitchPolicy::SecondaryMiss] {
            let (_, sm) = machine.run_full(&demo.switching_program(policy)).unwrap();
            for regs in [T0_REGS, T1_REGS] {
                let sum = Reg::int(regs[1]);
                assert_eq!(ss.int(sum), sm.int(sum), "{policy:?}");
            }
        }
    }

    #[test]
    fn switch_on_miss_beats_serial_on_dependent_misses() {
        let demo =
            MultithreadDemo { iters_per_thread: 300, stride: 4096, rounds: 1, save_restore: 0 };
        for machine in [Machine::default_ooo(), Machine::default_in_order()] {
            let cmp = evaluate_multithreading(&demo, &machine).unwrap();
            assert!(cmp.speedup() > 1.2, "{}: speedup {}", machine.name(), cmp.speedup());
        }
    }

    #[test]
    fn switch_policy_tradeoff_depends_on_handler_weight() {
        // With the fully-optimized 4-instruction handler, switching even on
        // 12-cycle secondary-cache hits pays (switch cost < stall hidden).
        // With a heavier handler that spills state, warm-round switches
        // become a loss and the paper's switch-only-on-secondary-misses
        // policy (via the secondary condition code) wins.
        let machine = Machine::default_ooo();
        let run = |save_restore: u32, policy: SwitchPolicy| {
            let demo =
                MultithreadDemo { iters_per_thread: 200, stride: 4096, rounds: 4, save_restore };
            evaluate_multithreading_with(&demo, &machine, policy).unwrap().switching
        };

        let light_every = run(0, SwitchPolicy::EveryMiss);
        let light_secondary = run(0, SwitchPolicy::SecondaryMiss);
        assert!(
            light_every.cycles <= light_secondary.cycles,
            "cheap handler: switch on everything ({} vs {})",
            light_every.cycles,
            light_secondary.cycles
        );

        let heavy_every = run(24, SwitchPolicy::EveryMiss);
        let heavy_secondary = run(24, SwitchPolicy::SecondaryMiss);
        assert!(
            heavy_secondary.cycles < heavy_every.cycles,
            "heavy handler: only secondary misses are worth it ({} vs {})",
            heavy_secondary.cycles,
            heavy_every.cycles
        );
        assert!(
            heavy_secondary.informing_traps < heavy_every.informing_traps,
            "and it takes far fewer switches"
        );
    }
}
