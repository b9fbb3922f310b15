//! Process-global simulation-speed counters.
//!
//! The fast paths in [`crate::inorder`] and [`crate::ooo`] batch straight-line
//! instruction runs through the pre-decoded [`imo_isa::BlockCache`]. These
//! counters report how much of the work those batches actually covered, so
//! the `simspeed` benchmark can publish `block_hit_rate` and
//! `batched_instr_pct` next to its wall-clock numbers.
//!
//! The counters deliberately live *outside* [`crate::RunResult`] and every
//! serialized checkpoint: they describe the simulator, not the simulated
//! machine, and must never perturb bit-identity with the tick-accurate
//! reference. Relaxed atomics are sufficient — readers only ever want a
//! snapshot taken while no simulation is running.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::frontend::FetchStats;

static GROUPS: AtomicU64 = AtomicU64::new(0);
static BLOCK_GROUPS: AtomicU64 = AtomicU64::new(0);
static PLAIN_INSTRS: AtomicU64 = AtomicU64::new(0);
static INSTRS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-global fast-path counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpeedStats {
    /// Fetch groups issued by fast-path front ends.
    pub groups: u64,
    /// Fetch groups served entirely from a single basic block.
    pub block_groups: u64,
    /// Instructions retired through batched `step_plain_run` runs.
    pub plain_instrs: u64,
    /// Instructions fetched by fast-path front ends in total.
    pub instrs: u64,
}

impl SpeedStats {
    /// The counts accumulated since the `earlier` snapshot.
    #[must_use]
    pub fn since(&self, earlier: SpeedStats) -> SpeedStats {
        SpeedStats {
            groups: self.groups - earlier.groups,
            block_groups: self.block_groups - earlier.block_groups,
            plain_instrs: self.plain_instrs - earlier.plain_instrs,
            instrs: self.instrs - earlier.instrs,
        }
    }

    /// Fraction of fetch groups served from a single block (0.0 when no
    /// groups have been issued).
    pub fn block_hit_rate(&self) -> f64 {
        if self.groups == 0 {
            0.0
        } else {
            self.block_groups as f64 / self.groups as f64
        }
    }

    /// Percentage of fetched instructions that went through a batched
    /// `step_plain_run` run (0.0 when nothing has been fetched).
    pub fn batched_instr_pct(&self) -> f64 {
        if self.instrs == 0 {
            0.0
        } else {
            100.0 * self.plain_instrs as f64 / self.instrs as f64
        }
    }
}

/// Folds one run's [`FetchStats`] into the process-global counters. Called
/// by the cores at the end of a fast-path run.
pub(crate) fn flush(stats: FetchStats) {
    GROUPS.fetch_add(stats.groups, Ordering::Relaxed);
    BLOCK_GROUPS.fetch_add(stats.block_groups, Ordering::Relaxed);
    PLAIN_INSTRS.fetch_add(stats.plain_instrs, Ordering::Relaxed);
    INSTRS.fetch_add(stats.instrs, Ordering::Relaxed);
}

/// Reads the current counter values.
pub fn speed_stats() -> SpeedStats {
    SpeedStats {
        groups: GROUPS.load(Ordering::Relaxed),
        block_groups: BLOCK_GROUPS.load(Ordering::Relaxed),
        plain_instrs: PLAIN_INSTRS.load(Ordering::Relaxed),
        instrs: INSTRS.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_accumulates_and_ratios_are_exact() {
        let before = speed_stats();
        flush(FetchStats { groups: 8, block_groups: 6, plain_instrs: 20, instrs: 25 });
        let s = speed_stats().since(before);
        assert_eq!(s, SpeedStats { groups: 8, block_groups: 6, plain_instrs: 20, instrs: 25 });
        assert!((s.block_hit_rate() - 0.75).abs() < 1e-12);
        assert!((s.batched_instr_pct() - 80.0).abs() < 1e-12);
        assert_eq!(SpeedStats::default().block_hit_rate(), 0.0);
        assert_eq!(SpeedStats::default().batched_instr_pct(), 0.0);
    }
}
