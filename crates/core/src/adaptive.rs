//! §4.1.2 — adapting prefetching "on the fly" with code versioning.
//!
//! The paper's first dynamic-prefetching option: "generating multiple
//! versions of a piece of code (e.g., a loop) with different prefetching
//! strategies and using informing information to select which version to
//! run". This module builds exactly that program:
//!
//! * a one-instruction counting miss handler keeps the running miss count in
//!   a register (the informing information);
//! * the loop body exists in two versions — plain, and with an inline
//!   `pref` of the line two ahead;
//! * after every chunk of iterations, the program compares the miss-count
//!   delta against a threshold and selects the version for the next chunk.
//!
//! The demonstration workload changes phase halfway: it first streams over a
//! large region (prefetching wins), then hammers a cache-resident region
//! (prefetching is pure overhead). The adaptive program should track the
//! better static version in each phase.

use imo_cpu::{Machine, RunResult, SimError};
use imo_isa::{Asm, Cond, MemKind, Program, Reg};

/// Which loop version(s) the generated program uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VersionPolicy {
    /// Always run the plain loop.
    AlwaysPlain,
    /// Always run the prefetching loop.
    AlwaysPrefetch,
    /// Select per chunk from the miss-count delta (the paper's proposal).
    Adaptive,
}

/// Parameters of the phase-changing demonstration workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveDemo {
    /// Iterations per chunk (the adaptation granularity).
    pub chunk_iters: u64,
    /// Chunks of the streaming phase (prefetch-friendly).
    pub stream_chunks: u64,
    /// Chunks of the cache-resident phase (prefetch is overhead).
    pub hot_chunks: u64,
    /// Miss-count delta per chunk at or above which the prefetching version
    /// is selected.
    pub threshold_on: u64,
    /// Probe period mask: every `(probe_mask + 1)`-th chunk runs the plain
    /// version and the selection is updated from its miss delta. Successful
    /// prefetching suppresses the very misses that selected it, so deciding
    /// from prefetched chunks would oscillate; periodic plain probes keep an
    /// unbiased signal (the sampling idea of §4.2.2). Must be a power of two
    /// minus one.
    pub probe_mask: u64,
}

impl Default for AdaptiveDemo {
    fn default() -> AdaptiveDemo {
        AdaptiveDemo {
            chunk_iters: 64,
            stream_chunks: 48,
            hot_chunks: 48,
            threshold_on: 8,
            probe_mask: 7,
        }
    }
}

const STREAM_BASE: u64 = 0x40_0000;
const HOT_BASE: u64 = 0x100_0000;
const HOT_MASK: u64 = 0x1ff; // 512 B hot region (cold misses negligible)

impl AdaptiveDemo {
    /// Builds the program under `policy`.
    pub fn program(&self, policy: VersionPolicy) -> Program {
        let mut a = Asm::new();
        let (ptr, v, sum) = (Reg::int(1), Reg::int(2), Reg::int(3));
        let (chunk, nchunks) = (Reg::int(4), Reg::int(5));
        let (i, n) = (Reg::int(6), Reg::int(7));
        let (last, delta, thresh_on, usepref) =
            (Reg::int(8), Reg::int(9), Reg::int(10), Reg::int(11));
        let phase2_at = Reg::int(12);
        let probe = Reg::int(13); // zero on probe chunks
        let runpref = Reg::int(14);
        let misses = crate::instrument::COUNT_REG; // r27, handler-maintained

        let handler = a.label("count_handler");
        let loop_plain = a.label("loop_plain");
        let loop_pref = a.label("loop_pref");
        let chunk_done = a.label("chunk_done");
        let next_chunk = a.label("next_chunk");
        let end = a.label("end");

        a.set_mhar(handler);
        a.li(ptr, STREAM_BASE as i64);
        a.li(chunk, 0);
        a.li(nchunks, (self.stream_chunks + self.hot_chunks) as i64);
        a.li(n, self.chunk_iters as i64);
        a.li(thresh_on, self.threshold_on as i64);
        a.li(phase2_at, self.stream_chunks as i64);
        a.li(
            usepref,
            match policy {
                VersionPolicy::AlwaysPrefetch => 1,
                _ => 0,
            },
        );

        let chunk_top = a.here("chunk_top");
        // Phase switch: at chunk == chunks_per_phase, move to the hot region.
        let no_switch = a.label("no_switch");
        a.branch(Cond::Ne, chunk, phase2_at, no_switch);
        a.li(ptr, HOT_BASE as i64);
        a.bind(no_switch).expect("label is bound exactly once");

        a.li(i, 0);
        if policy == VersionPolicy::Adaptive {
            // Probe chunks run plain regardless of the current selection.
            a.andi(probe, chunk, self.probe_mask);
            a.li(runpref, 0);
            let decided = a.label(&format!("decided_{}", a.len()));
            a.branch(Cond::Eq, probe, Reg::ZERO, decided);
            a.or(runpref, usepref, Reg::ZERO);
            a.bind(decided).expect("label is bound exactly once");
            a.branch(Cond::Ne, runpref, Reg::ZERO, loop_pref);
        } else {
            a.branch(Cond::Ne, usepref, Reg::ZERO, loop_pref);
        }

        let v2 = Reg::int(15);
        // --- version A: plain (two loads per iteration: the loop keeps the
        // memory unit busy, so an extra prefetch is a real structural cost)
        a.bind(loop_plain).expect("label is bound exactly once");
        a.emit(imo_isa::Instr::Load { rd: v, base: ptr, offset: 0, kind: MemKind::Informing });
        a.emit(imo_isa::Instr::Load { rd: v2, base: ptr, offset: 8, kind: MemKind::Informing });
        a.add(sum, sum, v);
        a.add(sum, sum, v2);
        a.addi(ptr, ptr, 16);
        a.addi(i, i, 1);
        a.branch(Cond::Lt, i, n, loop_plain);
        a.jump(chunk_done);

        // --- version B: inline prefetch eight lines ahead (enough lead to
        // cover the 75-cycle memory latency at this loop's pace) ---
        a.bind(loop_pref).expect("label is bound exactly once");
        a.prefetch(ptr, 256);
        a.emit(imo_isa::Instr::Load { rd: v, base: ptr, offset: 0, kind: MemKind::Informing });
        a.emit(imo_isa::Instr::Load { rd: v2, base: ptr, offset: 8, kind: MemKind::Informing });
        a.add(sum, sum, v);
        a.add(sum, sum, v2);
        a.addi(ptr, ptr, 16);
        a.addi(i, i, 1);
        a.branch(Cond::Lt, i, n, loop_pref);

        a.bind(chunk_done).expect("label is bound exactly once");
        if policy == VersionPolicy::Adaptive {
            // delta = misses - last; last = misses. The selection is updated
            // only from probe (plain) chunks, whose miss counts are not
            // masked by the prefetching itself.
            a.sub(delta, misses, last);
            a.or(last, misses, Reg::ZERO);
            let skip_update = a.label(&format!("skip_update_{}", a.len()));
            a.branch(Cond::Ne, probe, Reg::ZERO, skip_update);
            a.slt(usepref, delta, thresh_on);
            a.li(v, 1);
            a.sub(usepref, v, usepref); // usepref = (delta >= threshold)
            a.bind(skip_update).expect("label is bound exactly once");
        }
        a.bind(next_chunk).expect("label is bound exactly once");
        // Keep the hot phase inside its small region.
        let in_stream = a.label("in_stream");
        a.branch(Cond::Lt, chunk, phase2_at, in_stream);
        a.andi(v, ptr, HOT_MASK);
        a.li(ptr, HOT_BASE as i64);
        a.add(ptr, ptr, v);
        a.bind(in_stream).expect("label is bound exactly once");
        a.addi(chunk, chunk, 1);
        a.branch(Cond::Lt, chunk, nchunks, chunk_top);
        a.jump(end);

        // --- counting miss handler (one instruction) ---
        a.bind(handler).expect("label is bound exactly once");
        a.addi(misses, misses, 1);
        a.jump_mhrr();

        a.bind(end).expect("label is bound exactly once");
        a.halt();
        a.assemble().expect("adaptive program assembles")
    }
}

/// The three-way comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveComparison {
    /// Always-plain run.
    pub plain: RunResult,
    /// Always-prefetch run.
    pub prefetch: RunResult,
    /// Adaptive run.
    pub adaptive: RunResult,
}

impl AdaptiveComparison {
    /// Cycles of the better *static* version.
    pub fn best_static(&self) -> u64 {
        self.plain.cycles.min(self.prefetch.cycles)
    }
}

/// Runs all three policies on `machine`.
///
/// # Errors
///
/// Propagates [`SimError`] from the simulator.
pub fn evaluate_adaptive(
    demo: &AdaptiveDemo,
    machine: &Machine,
) -> Result<AdaptiveComparison, SimError> {
    Ok(AdaptiveComparison {
        plain: machine.run(&demo.program(VersionPolicy::AlwaysPlain))?,
        prefetch: machine.run(&demo.program(VersionPolicy::AlwaysPrefetch))?,
        adaptive: machine.run(&demo.program(VersionPolicy::Adaptive))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use imo_isa::exec::{Executor, NeverMiss};

    #[test]
    fn all_versions_compute_the_same_sum() {
        let demo = AdaptiveDemo {
            chunk_iters: 16,
            stream_chunks: 4,
            hot_chunks: 4,
            threshold_on: 4,
            probe_mask: 1,
        };
        let mut sums = Vec::new();
        for policy in
            [VersionPolicy::AlwaysPlain, VersionPolicy::AlwaysPrefetch, VersionPolicy::Adaptive]
        {
            let p = demo.program(policy);
            let mut e = Executor::new(&p);
            e.run(&mut NeverMiss, 1_000_000).unwrap();
            assert!(e.state().halted());
            sums.push(e.state().int(Reg::int(3)));
        }
        assert_eq!(sums[0], sums[1]);
        assert_eq!(sums[0], sums[2]);
    }

    #[test]
    fn phases_have_the_intended_miss_profiles() {
        let demo = AdaptiveDemo::default();
        let machine = Machine::default_ooo();
        let plain = machine.run(&demo.program(VersionPolicy::AlwaysPlain)).unwrap();
        // Streaming phase: one miss per line (1/4 of iterations); hot phase:
        // nearly none. So overall miss rate should be ~1/8 of references.
        let rate = plain.mem.l1d_miss_rate();
        assert!((0.05..0.25).contains(&rate), "miss rate {rate}");
    }

    #[test]
    fn prefetch_version_wins_streaming_loses_hot() {
        let machine = Machine::default_ooo();
        let stream_only =
            AdaptiveDemo { stream_chunks: 64, hot_chunks: 0, ..AdaptiveDemo::default() };
        let s = evaluate_adaptive(&stream_only, &machine).unwrap();
        assert!(
            s.prefetch.cycles < s.plain.cycles,
            "streaming: prefetch {} vs plain {}",
            s.prefetch.cycles,
            s.plain.cycles
        );
        let hot_only = AdaptiveDemo { stream_chunks: 0, hot_chunks: 64, ..AdaptiveDemo::default() };
        let h = evaluate_adaptive(&hot_only, &machine).unwrap();
        assert!(
            h.plain.cycles <= h.prefetch.cycles,
            "hot: plain {} vs prefetch {}",
            h.plain.cycles,
            h.prefetch.cycles
        );
    }

    #[test]
    fn adaptive_tracks_the_better_version() {
        let demo = AdaptiveDemo::default();
        let machine = Machine::default_ooo();
        let cmp = evaluate_adaptive(&demo, &machine).unwrap();
        // The adaptive version must beat the *worse* static version clearly
        // and come close to (or beat) the better one: it pays one chunk of
        // lag per phase change.
        let worst = cmp.plain.cycles.max(cmp.prefetch.cycles);
        assert!(cmp.adaptive.cycles < worst, "{:?}", cmp);
        assert!(
            (cmp.adaptive.cycles as f64) < cmp.best_static() as f64 * 1.10,
            "adaptive {} should be within 10% of best static {}",
            cmp.adaptive.cycles,
            cmp.best_static()
        );
    }
}
