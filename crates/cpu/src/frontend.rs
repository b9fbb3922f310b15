//! Shared instruction-fetch front end.
//!
//! Both processor models fetch along the **architecturally correct path**:
//! instructions are executed functionally (through [`imo_isa::exec`]) in
//! program order at fetch time, with the timing model's cache hierarchy
//! acting as the [`MissOracle`]. Control-flow surprises — mispredicted
//! branches, taken `bmiss` instructions, and informing traps — do not fetch
//! wrong-path instructions; instead fetch *blocks* until the surprising
//! instruction resolves in the timing model, which reproduces the
//! misprediction/trap penalty. This "correct-path-with-bubbles" discipline is
//! what keeps informing-memory outcomes (which are architecturally visible)
//! deterministic.
//!
//! Fetch hands each instruction to the cores as one 32-byte [`Fetched`]
//! handle, which both cores queue and the out-of-order reorder buffer keeps
//! until graduation. The handle holds only what fetch learned: the sequence
//! number, the fetch cycle, the probe outcome, the trap bit and what fetch
//! waits on. The `pc`, the `Instr` and its `InstrMeta` are static program
//! text, read by the handle's text index from the `Program` and the
//! [`BlockCache`]. [`FrontEnd::fetch`] fetches one instruction at a time and
//! is the tick-accurate reference; [`FrontEnd::fetch_fast`] batches plain
//! runs from the block cache. Both push into the same queue.

use std::collections::VecDeque;

use imo_isa::exec::{ArchState, ControlFlow, ExecError, Executor, MissDepth, MissOracle};
use imo_isa::{BlockCache, Instr, Program};
use imo_mem::{HitLevel, MemoryHierarchy, ProbeResult};
use imo_obs::{EventKind, Observer};
use imo_util::json::Json;
use imo_util::snapshot::{self, Snapshot, SnapshotError};

use crate::config::TrapModel;
use crate::predictor::TwoBitPredictor;

/// What (if anything) the front end is waiting on for this instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum Resolve {
    /// Fetch continued past this instruction.
    #[default]
    None,
    /// Fetch blocks until this instruction's outcome is known at execute
    /// (mispredicted branch; taken `bmiss`; informing load trap under
    /// [`TrapModel::Branch`]).
    AtExecute,
    /// Fetch blocks until this instruction graduates (informing trap under
    /// [`TrapModel::Exception`]; informing store traps, which probe at
    /// commit).
    AtGraduate,
}

/// One instruction in flight, from fetch to issue (in-order) or graduation
/// (out-of-order). Static program text is read by `idx`; the handle holds
/// only the dynamic state, with the probe result packed into `line`,
/// `level` and `store`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fetched {
    /// Dynamic sequence number (program order).
    pub(crate) seq: u64,
    /// Cycle the instruction was fetched.
    pub(crate) fetch_cycle: u64,
    /// Line the data-cache probe touched (0 without a probe).
    line: u64,
    /// Text index: the instruction is `program.instrs()[idx]`.
    pub(crate) idx: u32,
    /// Level that served the probe; `None` for instructions that do not
    /// touch the data cache.
    level: Option<HitLevel>,
    /// The probe was a store's.
    store: bool,
    /// This informing operation missed and trapped to its handler.
    pub(crate) informing_trap: bool,
    /// What the front end is blocked on.
    pub(crate) resolve: Resolve,
}

const _: () = assert!(std::mem::size_of::<Fetched>() <= 40);

impl Fetched {
    /// A handle for the instruction at text index `idx`.
    pub(crate) fn new(
        seq: u64,
        idx: u32,
        fetch_cycle: u64,
        probe: Option<ProbeResult>,
        informing_trap: bool,
        resolve: Resolve,
    ) -> Fetched {
        Fetched {
            seq,
            fetch_cycle,
            line: probe.map_or(0, |p| p.line),
            idx,
            level: probe.map(|p| p.level),
            store: probe.is_some_and(|p| p.is_store),
            informing_trap,
            resolve,
        }
    }

    /// The instruction's address.
    pub(crate) fn pc(&self) -> u64 {
        Program::addr_of(self.idx as usize)
    }

    /// The data-cache probe outcome of a load, store or prefetch.
    #[inline]
    pub(crate) fn probe(&self) -> Option<ProbeResult> {
        self.level.map(|level| ProbeResult { level, line: self.line, is_store: self.store })
    }
}

/// Adapter presenting the timing hierarchy as the executor's miss oracle.
/// Alongside the probe outcome it captures the effective address and
/// whether the probe was a software prefetch, for the attribution events.
struct HierOracle<'a> {
    hier: &'a mut MemoryHierarchy,
    last: Option<ProbeResult>,
    last_addr: u64,
    last_prefetch: bool,
}

impl MissOracle for HierOracle<'_> {
    fn probe(&mut self, addr: u64, is_store: bool) -> MissDepth {
        let r = self.hier.probe_data(addr, is_store);
        self.last = Some(r);
        self.last_addr = addr;
        self.last_prefetch = false;
        match r.level {
            HitLevel::L1 => MissDepth::Hit,
            HitLevel::L2 => MissDepth::L1Miss,
            HitLevel::Memory => MissDepth::MemMiss,
        }
    }

    fn prefetch(&mut self, addr: u64) {
        let r = self.hier.probe_prefetch(addr);
        self.last = Some(r);
        self.last_addr = addr;
        self.last_prefetch = true;
    }
}

/// The provenance bit tracked for a register in the pointer-chase mask.
fn reg_bit(r: imo_isa::Reg) -> u64 {
    1u64 << r.logical()
}

/// The shared fetch engine.
#[derive(Debug)]
pub(crate) struct FrontEnd<'p> {
    exec: Executor<'p>,
    pred: TwoBitPredictor,
    trap_model: TrapModel,
    /// Earliest cycle fetch may proceed (taken-branch redirects, I-misses).
    resume_at: u64,
    /// Sequence number whose resolution fetch is blocked on.
    blocked_on: Option<u64>,
    /// The current block is an informing-trap redirect (handler dispatch),
    /// not a branch mispredict — drives CPI handler-cycle attribution.
    blocked_trap: bool,
    halted: bool,
    /// Line currently in the fetch buffer (avoids re-probing the I-cache).
    cur_line: Option<u64>,
    mispredictions: u64,
    informing_traps: u64,
    line_bytes: u64,
    /// Pointer-chase provenance: bit `Reg::logical()` is set while the
    /// register's most recent writer was a load. Purely observational —
    /// only feeds `ptr_base` on recorded data-access events.
    reg_from_load: u64,
    /// Pre-decoded block table of the program: text indices for the
    /// handles, and the plain-run table for [`FrontEnd::fetch_fast`]. Pure
    /// acceleration state — never snapshotted.
    blocks: &'p BlockCache,
    /// Speed counters for the fast path (never snapshotted; flushed to the
    /// process-global [`crate::speed`] counters at run end).
    stats: FetchStats,
}

/// Fast-path fetch counters, accumulated per run and flushed to
/// [`crate::speed`] by the cores. Excluded from checkpoints: they describe
/// how the simulator ran, not what it simulated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct FetchStats {
    /// Fetch-group formations through the fast path.
    pub groups: u64,
    /// Groups fully served from within a single cached basic block.
    pub block_groups: u64,
    /// Instructions streamed through the plain-run batch path
    /// (`Executor::step_plain_run`).
    pub plain_instrs: u64,
    /// Total instructions fetched through the fast path.
    pub instrs: u64,
}

impl<'p> FrontEnd<'p> {
    /// Creates a front end positioned at the program's entry. `blocks` must
    /// have been built from `program`.
    pub(crate) fn new(
        program: &'p Program,
        blocks: &'p BlockCache,
        predictor_entries: usize,
        trap_model: TrapModel,
        line_bytes: u64,
    ) -> FrontEnd<'p> {
        debug_assert_eq!(blocks.len(), program.len());
        FrontEnd {
            exec: Executor::new(program),
            pred: TwoBitPredictor::new(predictor_entries),
            trap_model,
            resume_at: 0,
            blocked_on: None,
            blocked_trap: false,
            halted: false,
            cur_line: None,
            mispredictions: 0,
            informing_traps: 0,
            line_bytes,
            reg_from_load: 0,
            blocks,
            stats: FetchStats::default(),
        }
    }

    /// Fast-path fetch counters accumulated so far this run.
    pub(crate) fn stats(&self) -> FetchStats {
        self.stats
    }

    /// Sequence number the next fetched instruction will carry: every
    /// executed instruction takes the next one, so it is the executor's
    /// retired-instruction count.
    pub(crate) fn next_seq(&self) -> u64 {
        self.exec.instret()
    }

    /// Whether `halt` has been fetched (the pipeline may still be draining).
    #[inline]
    pub(crate) fn halted(&self) -> bool {
        self.halted
    }

    /// Consumes the front end, yielding the final architectural state
    /// (registers and data memory after the run).
    pub(crate) fn into_state(self) -> imo_isa::exec::ArchState {
        self.exec.into_state()
    }

    /// Mispredicted conditional branches so far.
    pub(crate) fn mispredictions(&self) -> u64 {
        self.mispredictions
    }

    /// Informing traps (including taken `bmiss`) so far.
    pub(crate) fn informing_traps(&self) -> u64 {
        self.informing_traps
    }

    /// Conditional-branch prediction accuracy so far.
    pub(crate) fn branch_accuracy(&self) -> f64 {
        self.pred.accuracy()
    }

    /// The sequence number fetch is currently blocked on, if any.
    #[inline]
    pub(crate) fn blocked_on(&self) -> Option<u64> {
        self.blocked_on
    }

    /// Whether fetch is blocked on an informing-trap resolution (handler
    /// dispatch in flight) rather than a branch mispredict.
    #[inline]
    pub(crate) fn blocked_on_trap(&self) -> bool {
        self.blocked_on.is_some() && self.blocked_trap
    }

    /// Earliest cycle at which fetch can proceed (meaningful when not
    /// blocked on a sequence number).
    #[inline]
    pub(crate) fn resume_at(&self) -> u64 {
        self.resume_at
    }

    /// Whether a fetch call at `cycle` could deliver anything — the same
    /// guard [`FrontEnd::fetch`] and [`FrontEnd::fetch_fast`] apply on
    /// entry, exposed so hot core loops can skip the call entirely.
    #[inline]
    pub(crate) fn fetch_ready(&self, cycle: u64) -> bool {
        !self.halted && self.blocked_on.is_none() && cycle >= self.resume_at
    }

    /// Unblocks fetch: the instruction `seq` resolved at `cycle`. Fetch
    /// restarts `1 + redirect_penalty` cycles later.
    pub(crate) fn resolve(&mut self, seq: u64, cycle: u64, redirect_penalty: u64) {
        if self.blocked_on == Some(seq) {
            self.blocked_on = None;
            self.blocked_trap = false;
            self.resume_at = self.resume_at.max(cycle + 1 + redirect_penalty);
        }
    }

    /// Encodes the front end's entire mutable state (architectural state,
    /// predictor table, fetch-blocking bookkeeping) as a checkpoint body
    /// fragment for [`FrontEnd::restore`].
    pub(crate) fn encode(&self) -> Json {
        let pred: String = self.pred.counters().iter().map(|&c| char::from(b'0' + c)).collect();
        Json::obj([
            ("arch", self.exec.state().encode()),
            ("instret", snapshot::u64_json(self.exec.instret())),
            ("pred", Json::Str(pred)),
            ("pred_hits", snapshot::u64_json(self.pred.hits())),
            ("pred_lookups", snapshot::u64_json(self.pred.lookups())),
            ("resume_at", snapshot::u64_json(self.resume_at)),
            ("blocked_on", snapshot::opt_u64_json(self.blocked_on)),
            ("blocked_trap", Json::Bool(self.blocked_trap)),
            ("halted", Json::Bool(self.halted)),
            ("cur_line", snapshot::opt_u64_json(self.cur_line)),
            ("mispredictions", snapshot::u64_json(self.mispredictions)),
            ("informing_traps", snapshot::u64_json(self.informing_traps)),
            ("reg_from_load", snapshot::u64_json(self.reg_from_load)),
        ])
    }

    /// Rebuilds a front end from a [`FrontEnd::encode`] fragment. The
    /// configuration-derived arguments (`predictor_entries`, `trap_model`,
    /// `line_bytes`) must come from the same session configuration the
    /// checkpoint was taken under; mismatches surface as
    /// [`SnapshotError::Bad`].
    pub(crate) fn restore(
        program: &'p Program,
        blocks: &'p BlockCache,
        predictor_entries: usize,
        trap_model: TrapModel,
        line_bytes: u64,
        data: &Json,
    ) -> Result<FrontEnd<'p>, SnapshotError> {
        let state = ArchState::decode(snapshot::field(data, "arch")?)?;
        let instret = snapshot::get_u64(data, "instret")?;
        let pred_str = snapshot::get_str(data, "pred")?;
        if pred_str.len() != predictor_entries || !pred_str.is_ascii() {
            return Err(SnapshotError::Bad("pred"));
        }
        let counters: Vec<u8> = pred_str.bytes().map(|b| b.wrapping_sub(b'0')).collect();
        let pred = TwoBitPredictor::restore(
            counters,
            snapshot::get_u64(data, "pred_hits")?,
            snapshot::get_u64(data, "pred_lookups")?,
        )
        .ok_or(SnapshotError::Bad("pred"))?;
        Ok(FrontEnd {
            exec: Executor::restore(program, state, instret),
            pred,
            trap_model,
            resume_at: snapshot::get_u64(data, "resume_at")?,
            blocked_on: snapshot::get_opt_u64(data, "blocked_on")?,
            blocked_trap: snapshot::get_bool(data, "blocked_trap")?,
            halted: snapshot::get_bool(data, "halted")?,
            cur_line: snapshot::get_opt_u64(data, "cur_line")?,
            mispredictions: snapshot::get_u64(data, "mispredictions")?,
            informing_traps: snapshot::get_u64(data, "informing_traps")?,
            line_bytes,
            reg_from_load: snapshot::get_u64(data, "reg_from_load")?,
            blocks,
            stats: FetchStats::default(),
        })
    }

    /// Fetches up to `width` instructions at `cycle`, appending to `out`,
    /// one instruction at a time.
    ///
    /// `obs` receives the fetch, cache-outcome and trap-entry events; [`NoObs`] records nothing and compiles the
    /// hooks out.
    ///
    /// [`NoObs`]: imo_obs::NoObs
    ///
    /// # Errors
    ///
    /// Propagates [`ExecError`] if the architectural path leaves the text
    /// segment (a malformed program).
    pub(crate) fn fetch<O: Observer>(
        &mut self,
        cycle: u64,
        width: u32,
        hier: &mut MemoryHierarchy,
        out: &mut VecDeque<Fetched>,
        obs: &mut O,
    ) -> Result<(), ExecError> {
        if !self.fetch_ready(cycle) {
            return Ok(());
        }
        self.resume_at = cycle; // any older redirect target is now stale
        for _ in 0..width {
            let pc = self.exec.state().pc();
            if self.cross_line(pc, cycle, hier, obs) {
                break;
            }
            let idx = self.blocks.index_of(pc).ok_or(ExecError::InvalidPc(pc))?;
            let (f, ends_group) = self.fetch_one(pc, idx, cycle, hier, obs)?;
            out.push_back(f);
            if ends_group {
                break;
            }
        }
        Ok(())
    }

    /// The batched twin of [`FrontEnd::fetch`]: consumes the pre-decoded
    /// block table to stream runs of *plain* instructions (no memory
    /// access, no control transfer) through [`Executor::step_plain_run`]
    /// in one batch, falling back to the per-instruction arm at every
    /// batch-breaking instruction.
    ///
    /// Bit-identical to `fetch` by construction, events included: the
    /// batch path only covers instructions for which `fetch` performs no
    /// probe, no predictor access, no trap, and no fetch break, and it emits their `Fetch` events in order;
    /// everything else takes the arm `fetch` itself uses.
    ///
    /// # Errors
    ///
    /// Propagates [`ExecError`] if the architectural path leaves the text
    /// segment (a malformed program).
    pub(crate) fn fetch_fast<O: Observer>(
        &mut self,
        cycle: u64,
        width: u32,
        hier: &mut MemoryHierarchy,
        out: &mut VecDeque<Fetched>,
        obs: &mut O,
    ) -> Result<(), ExecError> {
        if !self.fetch_ready(cycle) {
            return Ok(());
        }
        let cache = self.blocks;
        self.resume_at = cycle; // any older redirect target is now stale
        self.stats.groups += 1;
        let start_block = cache.index_of(self.exec.state().pc()).map(|i| cache.block_index(i));
        let mut same_block = true;
        let mut fetched = 0u32;
        while fetched < width {
            let pc = self.exec.state().pc();
            if self.cross_line(pc, cycle, hier, obs) {
                break;
            }

            let Some(idx) = cache.index_of(pc) else {
                return Err(ExecError::InvalidPc(pc));
            };
            same_block &= Some(cache.block_index(idx)) == start_block;

            let run_len = cache.plain_run_len(idx);
            if run_len != 0 {
                // Plain run: batch up to the group limit, the end of the
                // I-cache line (`fetch` re-probes at each line crossing),
                // and the end of the plain run (pre-sized at block-cache
                // build — no per-instruction meta scan).
                let line = pc & !(self.line_bytes - 1);
                let line_limit = ((line + self.line_bytes - pc) / 4) as u32;
                let k = (width - fetched).min(line_limit).min(run_len);
                let seq0 = self.next_seq();
                // Plain instructions never consult the oracle, never touch
                // control, and never miss — the batch runs to completion.
                self.exec.step_plain_run(k)?;
                // Plain writers are never loads: clean their pointer-chase
                // taint bits in one or-fold over the pre-built dest table.
                let mut written = 0u64;
                for b in cache.dest_bits(idx, k as usize) {
                    written |= b;
                }
                self.reg_from_load &= !written;
                for i in 0..k {
                    let seq = seq0 + u64::from(i);
                    if O::ON {
                        obs.record(cycle, EventKind::Fetch { seq, pc: pc + 4 * u64::from(i) });
                    }
                    let f = Fetched::new(seq, idx as u32 + i, cycle, None, false, Resolve::None);
                    out.push_back(f);
                }
                same_block &= Some(cache.block_index(idx + k as usize - 1)) == start_block;
                self.stats.plain_instrs += u64::from(k);
                fetched += k;
                continue;
            }

            let (f, ends_group) = self.fetch_one(pc, idx, cycle, hier, obs)?;
            fetched += 1;
            out.push_back(f);
            if ends_group {
                break;
            }
        }
        self.stats.instrs += u64::from(fetched);
        if fetched > 0 && same_block {
            self.stats.block_groups += 1;
        }
        Ok(())
    }

    /// Instruction-cache line crossing at `pc` (with next-line stream
    /// prefetch, so straight-line code misses once per redirect, not once
    /// per line). Returns `true` when a miss stalls the rest of this fetch
    /// group.
    #[inline(always)]
    fn cross_line<O: Observer>(
        &mut self,
        pc: u64,
        cycle: u64,
        hier: &mut MemoryHierarchy,
        obs: &mut O,
    ) -> bool {
        let line = pc & !(self.line_bytes - 1);
        if self.cur_line == Some(line) {
            return false;
        }
        let lvl = hier.probe_inst(pc);
        hier.prefetch_inst(line + self.line_bytes);
        self.cur_line = Some(line);
        if lvl != HitLevel::L1 {
            obs.record(cycle, EventKind::InstMiss { pc });
            let ready = hier.schedule_inst(lvl, cycle);
            if ready > cycle {
                self.resume_at = ready;
                return true;
            }
        }
        false
    }

    /// Fetches and functionally executes the one instruction at `pc`, text
    /// index `idx`: probe, pointer-chase provenance, predictor and trap
    /// dispatch, with their events. Returns the handle and whether it ends
    /// the fetch group.
    #[inline(always)]
    fn fetch_one<O: Observer>(
        &mut self,
        pc: u64,
        idx: usize,
        cycle: u64,
        hier: &mut MemoryHierarchy,
        obs: &mut O,
    ) -> Result<(Fetched, bool), ExecError> {
        let seq = self.next_seq();
        let mut oracle = HierOracle { hier, last: None, last_addr: 0, last_prefetch: false };
        let info = self.exec.step(&mut oracle)?;
        let probe = oracle.last;
        let (probe_addr, probe_prefetch) = (oracle.last_addr, oracle.last_prefetch);

        // Pointer-chase provenance: a data reference whose base register
        // was last written by a load is chasing a pointer. Loads taint
        // their destination; any other writer cleans it.
        let ptr_base = match info.instr {
            Instr::Load { base, .. } | Instr::Store { base, .. } | Instr::Prefetch { base, .. } => {
                self.reg_from_load & reg_bit(base) != 0
            }
            _ => false,
        };
        if let Some(rd) = info.instr.dest() {
            if !rd.is_zero() {
                if matches!(info.instr, Instr::Load { .. }) {
                    self.reg_from_load |= reg_bit(rd);
                } else {
                    self.reg_from_load &= !reg_bit(rd);
                }
            }
        }

        let mut f = Fetched::new(seq, idx as u32, cycle, probe, false, Resolve::None);
        obs.record(cycle, EventKind::Fetch { seq, pc });
        if let Some(p) = probe {
            obs.record(
                cycle,
                EventKind::DataAccess {
                    served: p.served_by(),
                    pc,
                    addr: probe_addr,
                    line: p.line,
                    store: p.is_store,
                    prefetch: probe_prefetch,
                    ptr_base,
                },
            );
        }

        let ends_group = match info.control {
            ControlFlow::Halt => {
                self.halted = true;
                true
            }
            ControlFlow::Sequential => false,
            ControlFlow::NotTaken => {
                // Only a conditional branch can mispredict here: a bmiss on
                // a hit is statically predicted not-taken, which is correct.
                let mispredicted = matches!(info.instr, Instr::Branch { .. })
                    && self.pred.predict_and_update(pc, false);
                if mispredicted {
                    // Predicted taken, actually fell through.
                    self.mispredictions += 1;
                    f.resolve = Resolve::AtExecute;
                    self.blocked_on = Some(seq);
                }
                mispredicted
            }
            ControlFlow::Taken(_) => {
                match info.instr {
                    Instr::Branch { .. } => {
                        if self.pred.predict_and_update(pc, true) {
                            // Correctly-predicted taken branch: redirect costs
                            // the rest of this fetch cycle only (BTB assumed).
                            self.resume_at = cycle + 1;
                        } else {
                            self.mispredictions += 1;
                            f.resolve = Resolve::AtExecute;
                            self.blocked_on = Some(seq);
                        }
                    }
                    Instr::BranchOnMiss { .. } | Instr::BranchOnMemMiss { .. } => {
                        // Taken bmiss: statically predicted not-taken, so this
                        // is always a mispredict-style redirect (the paper's
                        // "normal branch mispredict penalty only applies to
                        // the cache miss case").
                        self.informing_traps += 1;
                        obs.record(cycle, EventKind::TrapEnter { seq, pc });
                        f.resolve = Resolve::AtExecute;
                        self.blocked_on = Some(seq);
                        self.blocked_trap = true;
                    }
                    // Direct jumps, returns and handler returns are predicted
                    // (BTB / return-address stack): one-cycle fetch redirect.
                    _ => self.resume_at = cycle + 1,
                }
                true
            }
            ControlFlow::InformingTrap { .. } => {
                self.informing_traps += 1;
                f.informing_trap = true;
                obs.record(cycle, EventKind::TrapEnter { seq, pc });
                let is_store = matches!(info.instr, Instr::Store { .. });
                f.resolve = if self.trap_model == TrapModel::Branch && !is_store {
                    Resolve::AtExecute
                } else {
                    Resolve::AtGraduate
                };
                self.blocked_on = Some(seq);
                self.blocked_trap = true;
                true
            }
        };
        Ok((f, ends_group))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imo_isa::{Asm, Cond, Reg};
    use imo_mem::HierarchyConfig;
    use imo_obs::NoObs;

    fn hier() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig::out_of_order())
    }

    fn cache(p: &Program) -> BlockCache {
        BlockCache::build(p, |_| 1)
    }

    fn fe<'p>(p: &'p Program, c: &'p BlockCache) -> FrontEnd<'p> {
        FrontEnd::new(p, c, 256, TrapModel::Branch, 32)
    }

    /// The instruction a handle names.
    fn instr(p: &Program, f: &Fetched) -> Instr {
        p.instrs()[f.idx as usize]
    }

    fn straight_line() -> Program {
        let mut a = Asm::new();
        for _ in 0..6 {
            a.nop();
        }
        a.halt();
        a.assemble().unwrap()
    }

    #[test]
    fn fetches_up_to_width() {
        let p = straight_line();
        let c = cache(&p);
        let mut f = fe(&p, &c);
        let mut h = hier();
        let mut out = VecDeque::new();
        // Cycle 0: the first line misses in the I-cache -> nothing fetched.
        f.fetch(0, 4, &mut h, &mut out, &mut NoObs).unwrap();
        assert!(out.is_empty(), "cold I-miss blocks fetch");
        let resume = f.resume_at();
        assert!(resume > 0);
        f.fetch(resume, 4, &mut h, &mut out, &mut NoObs).unwrap();
        assert_eq!(out.len(), 4, "full width once the line arrives");
        out.clear();
        f.fetch(resume + 1, 4, &mut h, &mut out, &mut NoObs).unwrap();
        assert_eq!(out.len(), 3, "remaining nops + halt");
        assert!(f.halted());
    }

    #[test]
    fn straight_line_code_pays_one_i_miss_not_one_per_line() {
        // The next-line stream prefetcher must keep sequential fetch from
        // stalling a full memory latency on every 32-byte line.
        let mut a = Asm::new();
        for _ in 0..64 {
            a.nop(); // 8 lines of text
        }
        a.halt();
        let p = a.assemble().unwrap();
        let c = cache(&p);
        let mut f = fe(&p, &c);
        let mut h = hier();
        let mut out = VecDeque::new();
        let mut cycle = 0;
        let mut stall_events = 0;
        while !f.halted() && cycle < 10_000 {
            let before = out.len();
            f.fetch(cycle, 4, &mut h, &mut out, &mut NoObs).unwrap();
            if out.len() == before && f.blocked_on().is_none() {
                stall_events += 1;
                cycle = f.resume_at().max(cycle + 1);
            } else {
                cycle += 1;
            }
        }
        assert!(f.halted());
        assert_eq!(out.len(), 65);
        assert!(stall_events <= 2, "only the initial I-miss stalls: {stall_events}");
    }

    #[test]
    fn taken_branch_splits_fetch_groups() {
        let mut a = Asm::new();
        let t = a.label("t");
        a.jump(t);
        a.nop(); // skipped
        a.bind(t).unwrap();
        a.halt();
        let p = a.assemble().unwrap();
        let c = cache(&p);
        let mut f = fe(&p, &c);
        let mut h = hier();
        let mut out = VecDeque::new();
        f.fetch(0, 4, &mut h, &mut out, &mut NoObs).unwrap();
        let resume = f.resume_at();
        f.fetch(resume, 4, &mut h, &mut out, &mut NoObs).unwrap();
        assert_eq!(out.len(), 1, "jump ends its fetch group");
        out.clear();
        f.fetch(resume + 1, 4, &mut h, &mut out, &mut NoObs).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(instr(&p, &out[0]), Instr::Halt);
    }

    #[test]
    fn mispredicted_branch_blocks_until_resolved() {
        // A branch that is taken on first encounter (cold predictor says
        // not-taken) -> mispredict.
        let mut a = Asm::new();
        let t = a.label("t");
        a.li(Reg::int(1), 1);
        a.branch(Cond::Eq, Reg::int(1), Reg::int(1), t);
        a.nop();
        a.bind(t).unwrap();
        a.halt();
        let p = a.assemble().unwrap();
        let c = cache(&p);
        let mut f = fe(&p, &c);
        let mut h = hier();
        let mut out = VecDeque::new();
        f.fetch(0, 4, &mut h, &mut out, &mut NoObs).unwrap();
        let resume = f.resume_at();
        f.fetch(resume, 4, &mut h, &mut out, &mut NoObs).unwrap();
        assert_eq!(out.len(), 2, "li + branch; blocked after mispredict");
        let bseq = out[1].seq;
        assert_eq!(out[1].resolve, Resolve::AtExecute);
        assert_eq!(f.blocked_on(), Some(bseq));
        assert_eq!(f.mispredictions(), 1);

        // Nothing fetched while blocked.
        out.clear();
        f.fetch(resume + 5, 4, &mut h, &mut out, &mut NoObs).unwrap();
        assert!(out.is_empty());

        // Resolve at resume+20 with 1-cycle redirect: fetch resumes 2 later.
        f.resolve(bseq, resume + 20, 1);
        f.fetch(resume + 21, 4, &mut h, &mut out, &mut NoObs).unwrap();
        assert!(out.is_empty());
        f.fetch(resume + 22, 4, &mut h, &mut out, &mut NoObs).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(instr(&p, &out[0]), Instr::Halt);
    }

    #[test]
    fn informing_trap_blocks_and_reports() {
        let mut a = Asm::new();
        let hdl = a.label("h");
        a.set_mhar(hdl);
        a.li(Reg::int(1), 0x4000);
        a.load_inf(Reg::int(2), Reg::int(1), 0);
        a.halt();
        a.bind(hdl).unwrap();
        a.addi(Reg::int(10), Reg::int(10), 1);
        a.jump_mhrr();
        let p = a.assemble().unwrap();
        let c = cache(&p);
        let mut f = fe(&p, &c);
        let mut h = hier();
        let mut out = VecDeque::new();
        f.fetch(0, 4, &mut h, &mut out, &mut NoObs).unwrap();
        let resume = f.resume_at();
        f.fetch(resume, 4, &mut h, &mut out, &mut NoObs).unwrap();
        let trap = out.iter().find(|x| x.informing_trap).expect("trap fetched");
        assert_eq!(trap.resolve, Resolve::AtExecute, "branch trap model");
        assert_eq!(f.informing_traps(), 1);
        let tseq = trap.seq;

        f.resolve(tseq, resume + 30, 1);
        out.clear();
        f.fetch(resume + 32, 4, &mut h, &mut out, &mut NoObs).unwrap();
        // Handler instructions are the correct path after the trap.
        let first = instr(&p, &out[0]);
        assert!(matches!(first, Instr::Addi { .. }), "handler fetched: {first:?}");
    }

    #[test]
    fn exception_trap_model_resolves_at_graduate() {
        let mut a = Asm::new();
        let hdl = a.label("h");
        a.set_mhar(hdl);
        a.li(Reg::int(1), 0x4000);
        a.load_inf(Reg::int(2), Reg::int(1), 0);
        a.halt();
        a.bind(hdl).unwrap();
        a.jump_mhrr();
        let p = a.assemble().unwrap();
        let c = cache(&p);
        let mut f = FrontEnd::new(&p, &c, 256, TrapModel::Exception, 32);
        let mut h = hier();
        let mut out = VecDeque::new();
        f.fetch(0, 4, &mut h, &mut out, &mut NoObs).unwrap();
        let resume = f.resume_at();
        f.fetch(resume, 4, &mut h, &mut out, &mut NoObs).unwrap();
        let trap = out.iter().find(|x| x.informing_trap).expect("trap fetched");
        assert_eq!(trap.resolve, Resolve::AtGraduate);
    }

    #[test]
    fn taken_bmiss_blocks_fetch_as_a_trap() {
        let mut a = Asm::new();
        let hdl = a.label("h");
        a.li(Reg::int(1), 0x4000);
        a.load(Reg::int(2), Reg::int(1), 0);
        a.branch_on_miss(hdl);
        a.halt();
        a.bind(hdl).unwrap();
        a.jump_mhrr();
        let p = a.assemble().unwrap();
        let c = cache(&p);
        let mut f = fe(&p, &c);
        let mut h = hier();
        let mut out = VecDeque::new();
        f.fetch(0, 4, &mut h, &mut out, &mut NoObs).unwrap();
        let resume = f.resume_at();
        f.fetch(resume, 4, &mut h, &mut out, &mut NoObs).unwrap();
        let bm = out
            .iter()
            .find(|x| matches!(instr(&p, x), Instr::BranchOnMiss { .. }))
            .expect("bmiss fetched");
        // The load cold-missed, so the bmiss is taken -> trap counted, blocked.
        assert_eq!(f.informing_traps(), 1);
        assert_eq!(bm.resolve, Resolve::AtExecute);
        assert_eq!(f.blocked_on(), Some(bm.seq));
        assert!(f.blocked_on_trap());
    }

    #[test]
    fn encode_restore_mid_block_continues_identically() {
        // Checkpoint while fetch is blocked on a mispredicted branch, restore
        // into a fresh front end, and drive both to completion in lockstep.
        let mut a = Asm::new();
        let t = a.label("t");
        a.li(Reg::int(1), 1);
        a.branch(Cond::Eq, Reg::int(1), Reg::int(1), t);
        a.nop();
        a.bind(t).unwrap();
        a.li(Reg::int(2), 0x4000);
        a.load(Reg::int(3), Reg::int(2), 0);
        a.halt();
        let p = a.assemble().unwrap();
        let c = cache(&p);
        let mut f = fe(&p, &c);
        let mut h = hier();
        let mut out = VecDeque::new();
        f.fetch(0, 4, &mut h, &mut out, &mut NoObs).unwrap();
        let resume = f.resume_at();
        f.fetch(resume, 4, &mut h, &mut out, &mut NoObs).unwrap();
        let bseq = f.blocked_on().expect("blocked on mispredict");

        let frag = f.encode();
        let text = frag.pretty();
        let parsed = imo_util::json::parse(&text).expect("parses");
        let mut g =
            FrontEnd::restore(&p, &c, 256, TrapModel::Branch, 32, &parsed).expect("restores");
        assert_eq!(g.blocked_on(), Some(bseq));
        assert_eq!(g.mispredictions(), f.mispredictions());
        assert_eq!(g.encode().pretty(), text, "re-encode is byte-stable");

        let mut h2 = MemoryHierarchy::from_wire(&h.to_wire()).expect("hier restores");
        let (mut out_f, mut out_g) = (VecDeque::new(), VecDeque::new());
        f.resolve(bseq, resume + 10, 1);
        g.resolve(bseq, resume + 10, 1);
        for cycle in resume + 11..resume + 40 {
            f.fetch(cycle, 4, &mut h, &mut out_f, &mut NoObs).unwrap();
            g.fetch(cycle, 4, &mut h2, &mut out_g, &mut NoObs).unwrap();
        }
        assert!(f.halted() && g.halted());
        assert_eq!(out_f.len(), out_g.len());
        for (x, y) in out_f.iter().zip(&out_g) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn loads_carry_probe_results() {
        let mut a = Asm::new();
        a.li(Reg::int(1), 0x4000);
        a.load(Reg::int(2), Reg::int(1), 0);
        a.halt();
        let p = a.assemble().unwrap();
        let c = cache(&p);
        let mut f = fe(&p, &c);
        let mut h = hier();
        let mut out = VecDeque::new();
        f.fetch(0, 4, &mut h, &mut out, &mut NoObs).unwrap();
        let resume = f.resume_at();
        f.fetch(resume, 4, &mut h, &mut out, &mut NoObs).unwrap();
        let ld = out.iter().find(|x| instr(&p, x).is_data_ref()).unwrap();
        assert_eq!(ld.pc(), Program::addr_of(1));
        let probe = ld.probe().expect("probe recorded");
        assert!(probe.level.is_l1_miss());
        assert!(!ld.informing_trap, "normal load never traps");
    }
}
