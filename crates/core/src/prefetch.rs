//! §4.1.2 — software-controlled prefetching from the miss handler.
//!
//! The paper's "place prefetches directly in the miss handler" option:
//! prefetch overhead is induced *only when the application is actually
//! suffering from cache misses* (and hence prefetches should be beneficial).
//! The handler reads the missing address from the MAR and prefetches the
//! next few lines — effective for the streaming access patterns where
//! prefetching pays off.

use imo_cpu::{Machine, RunResult};
use imo_isa::Program;

use crate::experiment::ExperimentError;
use crate::instrument::{instrument, HandlerBody, HandlerKind, Instrumented, Scheme};

/// Rewrites `program` so that every primary miss triggers a handler that
/// prefetches the following `lines` cache lines.
///
/// # Errors
///
/// Returns [`crate::instrument::InstrumentError`] via [`ExperimentError`] if
/// the program cannot be instrumented.
pub fn add_adaptive_prefetching(
    program: &Program,
    lines: u32,
) -> Result<Instrumented, ExperimentError> {
    Ok(instrument(
        program,
        &Scheme::Trap {
            handlers: HandlerKind::Single,
            body: HandlerBody::NextLinePrefetch { lines },
        },
    )?)
}

/// Baseline-vs-prefetched comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefetchComparison {
    /// The uninstrumented run.
    pub baseline: RunResult,
    /// The run with in-handler prefetching.
    pub prefetched: RunResult,
}

impl PrefetchComparison {
    /// `baseline cycles / prefetched cycles` (> 1 means prefetching won).
    pub fn speedup(&self) -> f64 {
        self.baseline.cycles as f64 / self.prefetched.cycles.max(1) as f64
    }

    /// Fraction of baseline primary misses eliminated.
    pub fn miss_reduction(&self) -> f64 {
        let b = self.baseline.mem.l1d_misses.max(1) as f64;
        1.0 - self.prefetched.mem.l1d_misses as f64 / b
    }
}

/// Runs `program` with and without in-handler prefetching of `lines` lines.
///
/// # Errors
///
/// Returns [`ExperimentError`] if instrumentation or simulation fails.
pub fn evaluate_prefetching(
    program: &Program,
    machine: &Machine,
    lines: u32,
) -> Result<PrefetchComparison, ExperimentError> {
    let baseline = machine.run(program)?;
    let inst = add_adaptive_prefetching(program, lines)?;
    let prefetched = machine.run(&inst.program)?;
    Ok(PrefetchComparison { baseline, prefetched })
}

#[cfg(test)]
mod tests {
    use super::*;
    use imo_isa::{Asm, Cond, Reg};

    /// A streaming kernel: sequential walk over 2048 lines with some compute.
    fn streaming_kernel() -> Program {
        let mut a = Asm::new();
        let (i, n, p, v, s) = (Reg::int(1), Reg::int(2), Reg::int(3), Reg::int(4), Reg::int(5));
        a.li(i, 0);
        a.li(n, 8192);
        a.li(p, 0x10_0000);
        let top = a.here("top");
        a.load(v, p, 0);
        a.add(s, s, v);
        a.addi(p, p, 8);
        a.addi(i, i, 1);
        a.branch(Cond::Lt, i, n, top);
        a.halt();
        a.assemble().unwrap()
    }

    #[test]
    fn prefetching_reduces_misses_and_time_on_streams() {
        let p = streaming_kernel();
        for machine in [Machine::default_ooo(), Machine::default_in_order()] {
            let cmp = evaluate_prefetching(&p, &machine, 2).unwrap();
            assert!(
                cmp.miss_reduction() > 0.4,
                "{}: miss reduction {}",
                machine.name(),
                cmp.miss_reduction()
            );
            assert!(cmp.speedup() > 1.05, "{}: speedup {}", machine.name(), cmp.speedup());
        }
    }

    #[test]
    fn prefetching_is_cheap_when_there_are_no_misses() {
        // Hot kernel: hammer one line; the handler almost never runs, so the
        // instrumented run should cost barely more than the baseline.
        let mut a = Asm::new();
        let (i, n, p, v) = (Reg::int(1), Reg::int(2), Reg::int(3), Reg::int(4));
        a.li(i, 0);
        a.li(n, 2000);
        a.li(p, 0x10_0000);
        let top = a.here("top");
        a.load(v, p, 0);
        a.addi(i, i, 1);
        a.branch(Cond::Lt, i, n, top);
        a.halt();
        let prog = a.assemble().unwrap();
        let cmp = evaluate_prefetching(&prog, &Machine::default_ooo(), 2).unwrap();
        let overhead = cmp.prefetched.cycles as f64 / cmp.baseline.cycles as f64;
        assert!(overhead < 1.05, "near-zero overhead on hits: {overhead}");
    }
}
