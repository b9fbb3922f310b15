//! §4.1.1 — performance monitoring: exact per-reference miss profiles.
//!
//! Two tools, matching the paper's discussion:
//!
//! * [`profile_misses`] — unique per-reference counting handlers (one
//!   `setmhar` of hit overhead per reference, exact counts, no hashing);
//! * [`profile_misses_hashed`] — the paper's single ~10-instruction
//!   hash-table handler keyed on the MHRR: **zero hit overhead**, with
//!   possible bucket collisions.

use imo_cpu::{Machine, RunResult};
use imo_isa::Program;

use crate::experiment::ExperimentError;
use crate::instrument::{instrument, HandlerBody, HandlerKind, Scheme};

/// Default base address for profiler tables (above all workload data).
pub const PROFILE_TABLE_BASE: u64 = 0x7000_0000;

/// Miss count for one static reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteCount {
    /// Address of the reference in the *original* program.
    pub old_pc: u64,
    /// Address in the instrumented program.
    pub new_pc: u64,
    /// Primary-cache misses suffered by this static reference.
    pub misses: u64,
}

/// A per-reference miss profile.
#[derive(Debug, Clone)]
pub struct MissProfile {
    /// Counts per static reference, in text order.
    pub sites: Vec<SiteCount>,
    /// Timing result of the instrumented run (for overhead assessment).
    pub run: RunResult,
}

impl MissProfile {
    /// Sites sorted by miss count, hottest first.
    pub fn hottest(&self) -> Vec<SiteCount> {
        let mut v = self.sites.clone();
        v.sort_by(|a, b| b.misses.cmp(&a.misses).then(a.old_pc.cmp(&b.old_pc)));
        v
    }

    /// Total misses attributed to instrumented references.
    pub fn total_misses(&self) -> u64 {
        self.sites.iter().map(|s| s.misses).sum()
    }

    /// Exports the profile into an observability metrics registry:
    /// `profile.sites`, `profile.total_misses`, and per-site
    /// `profile.site.<old_pc>` counters.
    pub fn record_metrics(&self, m: &mut imo_obs::MetricsRegistry) {
        m.set("profile.sites", self.sites.len() as u64);
        m.set("profile.total_misses", self.total_misses());
        for s in &self.sites {
            m.set(&format!("profile.site.{:#x}", s.old_pc), s.misses);
        }
    }
}

/// Profiles `program` on `machine` with exact per-reference counters.
///
/// # Errors
///
/// Returns [`ExperimentError`] if instrumentation or simulation fails.
pub fn profile_misses(
    program: &Program,
    machine: &Machine,
) -> Result<MissProfile, ExperimentError> {
    let scheme = Scheme::Trap {
        handlers: HandlerKind::PerReference,
        body: HandlerBody::CountPerReference { table_base: PROFILE_TABLE_BASE },
    };
    let inst = instrument(program, &scheme)?;
    let (run, state) = machine.run_full(&inst.program)?;
    let sites = inst
        .refs
        .iter()
        .map(|r| SiteCount {
            old_pc: r.old_pc,
            new_pc: r.new_pc,
            misses: state.memory().read(r.counter_slot.expect("counting body has slots")),
        })
        .collect();
    Ok(MissProfile { sites, run })
}

/// Profiles `program` with the zero-hit-overhead hash handler. Returns the
/// per-reference counts recovered from the bucket table; references whose
/// return addresses collide in the table share a bucket (collisions are
/// reported by [`HashedProfile::collisions`]).
///
/// # Errors
///
/// Returns [`ExperimentError`] if instrumentation or simulation fails.
pub fn profile_misses_hashed(
    program: &Program,
    machine: &Machine,
    buckets: u64,
) -> Result<HashedProfile, ExperimentError> {
    let scheme = Scheme::Trap {
        handlers: HandlerKind::Single,
        body: HandlerBody::PcHash { table_base: PROFILE_TABLE_BASE, buckets },
    };
    let inst = instrument(program, &scheme)?;
    let (run, state) = machine.run_full(&inst.program)?;
    let bucket_of = |ret: u64| ((ret >> 2) & (buckets - 1)) * 8 + PROFILE_TABLE_BASE;
    let mut seen = std::collections::HashMap::new();
    let mut collisions = 0;
    let mut sites = Vec::with_capacity(inst.refs.len());
    for r in &inst.refs {
        let b = bucket_of(r.return_pc);
        if let Some(_prev) = seen.insert(b, r.old_pc) {
            collisions += 1;
        }
        sites.push(SiteCount {
            old_pc: r.old_pc,
            new_pc: r.new_pc,
            misses: state.memory().read(b),
        });
    }
    Ok(HashedProfile { profile: MissProfile { sites, run }, collisions })
}

/// Result of [`profile_misses_hashed`].
#[derive(Debug, Clone)]
pub struct HashedProfile {
    /// The recovered profile (counts are per-bucket).
    pub profile: MissProfile,
    collisions: usize,
}

impl HashedProfile {
    /// Number of static references whose buckets collided with another
    /// reference (their counts are merged).
    pub fn collisions(&self) -> usize {
        self.collisions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imo_isa::{Asm, Cond, Reg};

    /// Two loads: one walks lines (misses every 4th iteration), the other
    /// hammers a single word (misses once).
    fn two_site_kernel() -> Program {
        let mut a = Asm::new();
        let (i, n, p, hot, v) = (Reg::int(1), Reg::int(2), Reg::int(3), Reg::int(4), Reg::int(5));
        a.li(i, 0);
        a.li(n, 64);
        a.li(p, 0x10_0000);
        a.li(hot, 0x20_0400); // distinct cache set from the walk and counters
        let top = a.here("top");
        a.load(v, p, 0); // cold-walks: misses every 4th (8B stride, 32B lines)
        a.load(v, hot, 0); // hot word: misses once
        a.addi(p, p, 8);
        a.addi(i, i, 1);
        a.branch(Cond::Lt, i, n, top);
        a.halt();
        a.assemble().unwrap()
    }

    #[test]
    fn exact_profile_distinguishes_sites() {
        let p = two_site_kernel();
        let prof = profile_misses(&p, &Machine::default_ooo()).unwrap();
        assert_eq!(prof.sites.len(), 2);
        let hot = prof.hottest();
        // 64 iterations / 4 per line = 16 cold misses, plus a few conflict
        // misses from the handler's own counter traffic (the paper's
        // "tolerable data cache perturbations").
        assert!((16..=24).contains(&hot[0].misses), "walking site: {}", hot[0].misses);
        assert!((1..=6).contains(&hot[1].misses), "hot-word site: {}", hot[1].misses);
        assert!(hot[0].misses > 2 * hot[1].misses, "ordering is unambiguous");
    }

    #[test]
    fn profile_agrees_across_machines() {
        let p = two_site_kernel();
        let a = profile_misses(&p, &Machine::default_ooo()).unwrap();
        let b = profile_misses(&p, &Machine::default_in_order()).unwrap();
        // Different cache geometries perturb differently, but both machines
        // must identify the same hottest site, with comparable totals.
        assert_eq!(a.hottest()[0].old_pc, b.hottest()[0].old_pc);
        let (ta, tb) = (a.total_misses() as f64, b.total_misses() as f64);
        assert!((ta - tb).abs() / ta.max(tb) < 0.5, "totals comparable: {ta} vs {tb}");
    }

    #[test]
    fn hashed_profile_matches_exact_when_collision_free() {
        let p = two_site_kernel();
        let exact = profile_misses(&p, &Machine::default_ooo()).unwrap();
        let hashed = profile_misses_hashed(&p, &Machine::default_ooo(), 4096).unwrap();
        assert_eq!(hashed.collisions(), 0);
        for (e, h) in exact.sites.iter().zip(hashed.profile.sites.iter()) {
            assert_eq!(e.old_pc, h.old_pc);
            // The two instrumentations perturb the cache differently, so
            // counts agree only approximately.
            let (em, hm) = (e.misses as i64, h.misses as i64);
            assert!((em - hm).abs() <= 6, "site {:#x}: {em} vs {hm}", e.old_pc);
        }
    }

    #[test]
    fn hashed_profile_has_no_per_ref_inline_overhead() {
        let p = two_site_kernel();
        let exact = profile_misses(&p, &Machine::default_ooo()).unwrap();
        let hashed = profile_misses_hashed(&p, &Machine::default_ooo(), 4096).unwrap();
        // The exact profiler executes one setmhar per reference; the hash
        // profiler does not, so it retires fewer instructions.
        assert!(hashed.profile.run.instructions < exact.run.instructions);
    }
}
