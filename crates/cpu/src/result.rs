//! Simulation results and limits.

use std::error::Error;
use std::fmt;

use imo_isa::exec::ExecError;
use imo_util::stats::{Report, Summarize};

// The slot-accounting struct lives in the shared stats layer so the bench
// reporting code can consume it without depending on the CPU models.
pub use imo_util::stats::SlotBreakdown;

/// Memory-system counters captured at the end of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemCounters {
    /// Demand data references.
    pub l1d_accesses: u64,
    /// Primary data-cache misses.
    pub l1d_misses: u64,
    /// Primary misses served by main memory (missed in L2 too).
    pub l2_misses: u64,
    /// Primary instruction-cache line misses.
    pub inst_misses: u64,
}

impl MemCounters {
    /// Primary data-cache miss rate.
    pub fn l1d_miss_rate(&self) -> f64 {
        if self.l1d_accesses == 0 {
            0.0
        } else {
            self.l1d_misses as f64 / self.l1d_accesses as f64
        }
    }

    /// Fraction of primary misses that also missed in the secondary cache
    /// (`0.0` when there were no primary misses — never `NaN`).
    pub fn l2_miss_rate(&self) -> f64 {
        if self.l1d_misses == 0 {
            0.0
        } else {
            self.l2_misses as f64 / self.l1d_misses as f64
        }
    }
}

/// The outcome of simulating a program to completion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunResult {
    /// Total cycles.
    pub cycles: u64,
    /// Instructions graduated (includes miss-handler and instrumentation
    /// instructions).
    pub instructions: u64,
    /// Graduation-slot breakdown.
    pub slots: SlotBreakdown,
    /// Informing traps taken (low-overhead traps plus taken `bmiss`es).
    pub informing_traps: u64,
    /// Branch mispredictions suffered.
    pub mispredictions: u64,
    /// Branch-prediction accuracy over conditional branches.
    pub branch_accuracy: f64,
    /// Memory-system counters.
    pub mem: MemCounters,
}

impl RunResult {
    /// Graduated instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

impl Summarize for RunResult {
    fn report(&self) -> Report {
        let mut r = Report::new();
        r.push("cycles", self.cycles)
            .push("instructions", self.instructions)
            .push("ipc", self.ipc())
            .push("slots_busy", self.slots.busy)
            .push("slots_cache_stall", self.slots.cache_stall)
            .push("slots_other_stall", self.slots.other_stall)
            .push("informing_traps", self.informing_traps)
            .push("mispredictions", self.mispredictions)
            .push("branch_accuracy", self.branch_accuracy)
            .push("l1d_accesses", self.mem.l1d_accesses)
            .push("l1d_misses", self.mem.l1d_misses)
            .push("l1d_miss_rate", self.mem.l1d_miss_rate())
            .push("l2_misses", self.mem.l2_misses)
            .push("l2_miss_rate", self.mem.l2_miss_rate())
            .push("inst_misses", self.mem.inst_misses);
        r
    }
}

/// Bounds on a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLimits {
    /// Maximum instructions to graduate before giving up.
    pub max_instructions: u64,
    /// Maximum cycles to simulate before giving up.
    pub max_cycles: u64,
    /// Disable no-progress fast-forwarding: tick `now += 1` through idle
    /// windows instead of jumping to the next pending event. Slow; exists as
    /// the bit-identity reference for `tests/fastforward_identity.rs`.
    pub force_tick_accurate: bool,
}

impl RunLimits {
    /// Default limits with fast-forwarding disabled.
    #[must_use]
    pub fn tick_accurate() -> RunLimits {
        RunLimits { force_tick_accurate: true, ..RunLimits::default() }
    }
}

impl Default for RunLimits {
    fn default() -> RunLimits {
        RunLimits {
            max_instructions: 50_000_000,
            max_cycles: 500_000_000,
            force_tick_accurate: false,
        }
    }
}

/// Internal outcome of a core `run` loop: either the program completed, or
/// the loop reached [`crate::SimSession::stop_at`] and encoded its state for
/// resumption.
// One value exists per completed run; the variant size gap is irrelevant.
#[allow(clippy::large_enum_variant)]
pub(crate) enum RunOutcome {
    /// The program ran to completion.
    Done(RunResult, imo_isa::exec::ArchState),
    /// The run paused at a cycle boundary with an encoded checkpoint body.
    Paused {
        /// Cycle boundary at which the loop paused.
        cycle: u64,
        /// The core's encoded loop state (wrapped by `SimSession`).
        body: imo_util::json::Json,
    },
}

/// Errors from the cycle-level simulators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The functional executor faulted (PC left the text segment).
    Exec(ExecError),
    /// The instruction limit was reached before the program halted.
    InstructionLimit(u64),
    /// The cycle limit was reached before the program halted.
    CycleLimit(u64),
    /// The machine deadlocked (no forward progress; indicates a model bug or
    /// an impossible configuration such as zero functional units).
    Deadlock {
        /// Cycle at which progress stopped.
        cycle: u64,
    },
    /// A checkpoint could not be decoded or does not match this session's
    /// program/configuration.
    Checkpoint(imo_util::snapshot::SnapshotError),
    /// The out-of-order configuration asks for a reorder buffer larger than
    /// the 64 entries the core tracks (the paper's has 32).
    RobTooLarge {
        /// The configured `rob_entries`.
        entries: u32,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Exec(e) => write!(f, "functional execution failed: {e}"),
            SimError::InstructionLimit(n) => write!(f, "instruction limit {n} reached"),
            SimError::CycleLimit(n) => write!(f, "cycle limit {n} reached"),
            SimError::Deadlock { cycle } => write!(f, "no forward progress at cycle {cycle}"),
            SimError::Checkpoint(e) => write!(f, "checkpoint rejected: {e}"),
            SimError::RobTooLarge { entries } => {
                write!(f, "a {entries}-entry reorder buffer exceeds the supported 64")
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Exec(e) => Some(e),
            SimError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<imo_util::snapshot::SnapshotError> for SimError {
    fn from(e: imo_util::snapshot::SnapshotError) -> SimError {
        SimError::Checkpoint(e)
    }
}

impl From<ExecError> for SimError {
    fn from(e: ExecError) -> SimError {
        SimError::Exec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc() {
        let r = RunResult {
            cycles: 100,
            instructions: 250,
            slots: SlotBreakdown::default(),
            informing_traps: 0,
            mispredictions: 0,
            branch_accuracy: 1.0,
            mem: MemCounters::default(),
        };
        assert_eq!(r.ipc(), 2.5);
    }

    #[test]
    fn miss_rate() {
        let m = MemCounters { l1d_accesses: 200, l1d_misses: 20, l2_misses: 2, inst_misses: 0 };
        assert_eq!(m.l1d_miss_rate(), 0.1);
        assert_eq!(m.l2_miss_rate(), 0.1);
    }

    #[test]
    fn rates_of_an_empty_run_are_zero_not_nan() {
        let r = RunResult {
            cycles: 0,
            instructions: 0,
            slots: SlotBreakdown::default(),
            informing_traps: 0,
            mispredictions: 0,
            branch_accuracy: 1.0,
            mem: MemCounters::default(),
        };
        for v in [r.ipc(), r.mem.l1d_miss_rate(), r.mem.l2_miss_rate()] {
            assert_eq!(v, 0.0);
            assert!(!v.is_nan());
        }
        // The report must also carry finite values for every rate.
        let rep = r.report();
        assert_eq!(rep.get("ipc"), Some(&imo_util::stats::Metric::F64(0.0)));
        assert_eq!(rep.get("l1d_miss_rate"), Some(&imo_util::stats::Metric::F64(0.0)));
        assert_eq!(rep.get("l2_miss_rate"), Some(&imo_util::stats::Metric::F64(0.0)));
    }

    #[test]
    fn report_carries_slot_breakdown_and_rates() {
        let r = RunResult {
            cycles: 100,
            instructions: 250,
            slots: SlotBreakdown { busy: 250, cache_stall: 100, other_stall: 50 },
            informing_traps: 3,
            mispredictions: 1,
            branch_accuracy: 0.9,
            mem: MemCounters { l1d_accesses: 200, l1d_misses: 20, l2_misses: 2, inst_misses: 0 },
        };
        let rep = r.report();
        assert_eq!(rep.get("slots_cache_stall"), Some(&imo_util::stats::Metric::U64(100)));
        assert_eq!(rep.get("ipc"), Some(&imo_util::stats::Metric::F64(2.5)));
        assert_eq!(rep.get("l1d_miss_rate"), Some(&imo_util::stats::Metric::F64(0.1)));
    }

    #[test]
    fn error_display() {
        assert!(SimError::Deadlock { cycle: 7 }.to_string().contains("cycle 7"));
        assert!(SimError::InstructionLimit(5).to_string().contains('5'));
    }
}
