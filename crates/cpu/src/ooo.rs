//! The out-of-order-issue processor model (MIPS-R10000-like, §3.2).
//!
//! A renaming, reorder-buffer machine:
//!
//! * **Dispatch** — up to `issue_width` instructions per cycle enter the
//!   32-entry reorder buffer. Conditional branches (and, under
//!   [`TrapModel::Branch`], informing memory operations) each hold one of the
//!   `max_checkpoints` rename shadow checkpoints while unresolved; dispatch
//!   stalls when checkpoints are exhausted — this is the §3.2 "3× shadow
//!   state" pressure, measurable by varying
//!   [`OooConfig::max_checkpoints`].
//! * **Issue** — oldest-ready-first within per-class functional-unit limits
//!   (2 INT, 2 FP, 1 branch, 1 memory). True (RAW) dependences only, as
//!   renaming removes the false ones. Memory operations contend for cache
//!   banks, MSHRs and main-memory bandwidth in `imo-mem`. Event-driven runs
//!   count each entry's unissued producers at dispatch and wake it when the
//!   last one issues, instead of re-polling it every cycle (DESIGN.md
//!   §10.5).
//! * **Graduate** — up to `issue_width` completed instructions per cycle, in
//!   order. Stores probe/write at graduation through a finite write buffer.
//!   Graduation-slot accounting follows the paper's Figure 2 methodology.
//! * **Informing traps** — under [`TrapModel::Branch`] the handler is
//!   fetched as soon as the load's miss is detected at execute; under
//!   [`TrapModel::Exception`] fetch waits until the informing operation
//!   reaches the head of the reorder buffer.
//!
//! Every in-flight instruction stays where the front end put it, in one
//! window of [`Fetched`] handles: dispatch moves the reorder buffer's
//! boundary and graduation pops the front. What dispatch adds lives in
//! [`Rob`]'s per-slot arrays.

use std::collections::VecDeque;

use imo_isa::{BlockCache, Instr, InstrMeta, Program, NO_REG};
use imo_mem::{HitLevel, MemoryHierarchy, MshrFile, MshrId};
use imo_obs::{CpiCategory, CpiStack, EventKind, NoObs, Observer, Recorder};
use imo_util::json::Json;
use imo_util::snapshot::{self, Snapshot as _, SnapshotError};

use crate::ckpt;
use crate::config::{OooConfig, TrapModel};
use crate::frontend::{Fetched, FrontEnd, Resolve};
use crate::result::{MemCounters, RunLimits, RunOutcome, RunResult, SimError, SlotBreakdown};
use crate::sched::{Horizon, ReleasePool, WakeupQueue};
use crate::trace::InstrTrace;

/// No producer: an entry of [`Rob::producers`] or of the rename map.
const NONE: u64 = u64::MAX;

/// The position in [`Rob::producers`] of the condition-code producer. A
/// value source is satisfied when its producer's result is available; the
/// condition-code source when the producer's cache outcome is known.
const CC: usize = 2;

/// Slots of the per-entry arrays. A dispatched instruction's scheduling
/// state lives at slot `seq & 63`, so the reorder buffer holds at most this
/// many entries.
const SLOTS: usize = 64;

/// The slot of sequence number `seq`.
#[inline(always)]
fn slot(seq: u64) -> usize {
    (seq & (SLOTS as u64 - 1)) as usize
}

/// [`Rob::dep_bound`] of a producer that has not issued: no cycle bounds it.
const UNISSUED: u64 = u64::MAX;

/// The reorder buffer's scheduling state.
///
/// The instructions stay in the window the front end fetched them into:
/// positions `..len` are the reorder buffer (position 0 is seq `base`), the
/// rest wait for dispatch. What dispatch adds is written in place into one
/// record per slot `seq & 63`, kept as parallel arrays; issue and graduation
/// read it there. Reorder-buffer seqs are contiguous and number at most 64,
/// so live slots never collide. An entry is Waiting or Issued when its bit
/// is set in `waiting` or `issued`, and Complete when neither is.
///
/// Event-driven runs also count wakeups. A Waiting entry's `pending` counts
/// its distinct producers that are still Waiting; it holds its bit in each
/// one's word `waiters[p]`, and in `parked` while the count is above 0. Its
/// `ready_at` is the largest completion cycle of its issued value producers
/// and its fetch-to-issue floor: with the count at 0 the entry's values are
/// ready exactly when `ready_at <= now`. A producer's issue lowers its
/// waiters' counts and raises their `ready_at`. Entries with a
/// condition-code source are in `outcome_consumers`; for
/// them `ready_at` is only a lower bound, and issue rechecks their sources,
/// because a Complete producer that graduates readies them before its
/// outcome cycle. Counts, bounds and masks are derived state: resume
/// rebuilds them from the decoded entries.
struct Rob {
    /// Seq of the oldest entry, the window's front; every older instruction
    /// has graduated.
    base: u64,
    /// Dispatched entries: the window's first `len` handles.
    len: usize,
    /// Pre-decoded scheduling metadata, copied from the block cache.
    meta: [InstrMeta; SLOTS],
    /// The seqs of the entry's producers: the last writers of its register
    /// sources, then at [`CC`] the data reference whose cache outcome a
    /// condition-code branch reads; [`NONE`] where there is none.
    producers: [[u64; 3]; SLOTS],
    complete: [u64; SLOTS],
    /// Cycle the hit/miss outcome (memory) or direction (branch) is known.
    outcome: [u64; SLOTS],
    dispatch: [u64; SLOTS],
    issue: [u64; SLOTS],
    mshr: [Option<MshrId>; SLOTS],
    waiting: u64,
    issued: u64,
    /// At most the earliest `complete` of an Issued entry: the complete
    /// stage has nothing to do before it.
    next_complete: u64,
    pending: [u8; SLOTS],
    ready_at: [u64; SLOTS],
    waiters: [u64; SLOTS],
    parked: u64,
    outcome_consumers: u64,
    /// At most the earliest `ready_at` of an unparked Waiting entry: the
    /// event-driven issue scan has nothing to do before it.
    issue_due: u64,
}

const _: () = assert!(std::mem::size_of::<Rob>() <= 6_400);

impl Rob {
    fn new(base: u64) -> Rob {
        let meta = InstrMeta {
            src1: NO_REG,
            src2: NO_REG,
            dest: NO_REG,
            fu: 0,
            kind: 0,
            flags: 0,
            lat: 0,
        };
        Rob {
            base,
            len: 0,
            meta: [meta; SLOTS],
            producers: [[NONE; 3]; SLOTS],
            complete: [u64::MAX; SLOTS],
            outcome: [u64::MAX; SLOTS],
            dispatch: [0; SLOTS],
            issue: [u64::MAX; SLOTS],
            mshr: [None; SLOTS],
            waiting: 0,
            issued: 0,
            next_complete: 0,
            pending: [0; SLOTS],
            ready_at: [0; SLOTS],
            waiters: [0; SLOTS],
            parked: 0,
            outcome_consumers: 0,
            issue_due: 0,
        }
    }

    /// Whether the entry in slot `s` is Complete.
    #[inline(always)]
    fn is_complete(&self, s: usize) -> bool {
        (self.waiting | self.issued) & (1 << s) == 0
    }

    /// Earliest cycle at which the source produced by `seq` (its cache
    /// outcome if `outcome`, else its value) can possibly become ready: 0
    /// when it is ready now, a provable future lower bound otherwise.
    /// Readiness means the producer has graduated (left the ROB), or — for
    /// values — completed by `now`, or — for outcomes — left `Waiting` with
    /// its `outcome` cycle due. [`NONE`] is always ready. `bound <= now` is
    /// exactly that predicate, and a future bound is a pure filter for the
    /// issue stage: re-evaluating at or after it gives the truth, so skipping
    /// the dep walk before it is exact.
    ///
    /// * A `Waiting` producer cannot ready a consumer until it issues
    ///   (issuing yields completion/outcome cycles strictly in the future,
    ///   and graduation requires completion first), so no cycle is a bound:
    ///   [`UNISSUED`].
    /// * An `Issued` producer's `complete`/`outcome` are fixed at issue;
    ///   during the issue stage they are strictly future (the complete
    ///   stage already retired anything due). Graduation — which also
    ///   readies outcome consumers — cannot precede `complete + 1`.
    /// * A `Complete` producer may still leave the ROB next cycle, readying
    ///   an outcome consumer before `outcome`, so only `now + 1` is provable
    ///   there.
    fn dep_bound(&self, seq: u64, outcome: bool, now: u64) -> u64 {
        if seq.wrapping_sub(self.base) >= self.len as u64 {
            return 0; // graduated, or no producer
        }
        let p = slot(seq);
        if self.waiting & (1 << p) != 0 {
            UNISSUED
        } else if self.issued & (1 << p) != 0 {
            if outcome {
                self.outcome[p].min(self.complete[p] + 1)
            } else {
                self.complete[p]
            }
        } else if outcome && self.outcome[p] > now {
            self.outcome[p].min(now + 1)
        } else {
            0
        }
    }

    /// Counts and bounds the Waiting entry in slot `s`, whose fetch-to-issue
    /// floor is `floor`, against its producers' states now: each source
    /// whose producer is Waiting adds the entry's bit to that producer's
    /// wakeup word, counting each distinct producer once; every other source
    /// raises `ready_at`. Runs at dispatch, and on resume in ROB order.
    /// `graduated` is the last cycle whose graduation stage has run: `now`
    /// at dispatch, but `now - 1` on resume, where this cycle's graduation
    /// may still retire a Complete condition-code producer before its
    /// outcome cycle.
    #[inline(always)]
    fn link(&mut self, s: usize, floor: u64, graduated: u64) {
        let bit = 1u64 << s;
        let [v1, v2, cc] = self.producers[s];
        let (mut pending, mut ready_at) = (0u8, floor);
        let mut wait_on = |rob: &mut Rob, p: u64| {
            let w = &mut rob.waiters[slot(p)];
            if *w & bit == 0 {
                *w |= bit;
                pending += 1;
            }
        };
        for p in [v1, v2] {
            if p.wrapping_sub(self.base) >= self.len as u64 {
                continue; // graduated, or no producer
            }
            if self.waiting & (1 << slot(p)) != 0 {
                wait_on(self, p);
            } else {
                ready_at = ready_at.max(self.complete[slot(p)]);
            }
        }
        if cc == NONE {
            self.outcome_consumers &= !bit;
        } else {
            self.outcome_consumers |= bit;
            match self.dep_bound(cc, true, graduated) {
                UNISSUED => wait_on(self, cc),
                b => ready_at = ready_at.max(b),
            }
        }
        self.pending[s] = pending;
        self.ready_at[s] = ready_at;
        if pending > 0 {
            self.parked |= bit;
        } else {
            self.issue_due = self.issue_due.min(ready_at);
        }
        debug_assert!(self.wakeups_consistent(s));
    }

    /// The earliest cycle at which every source of slot `s` can be ready:
    /// the polling walk over its producers.
    fn sources_bound(&self, s: usize, now: u64) -> u64 {
        let [v1, v2, cc] = self.producers[s];
        self.dep_bound(v1, false, now)
            .max(self.dep_bound(v2, false, now))
            .max(self.dep_bound(cc, true, now))
    }

    /// The distinct producers of slot `s` that are still Waiting.
    fn unissued_producers(&self, s: usize) -> u8 {
        let mut seen = 0u64;
        for (i, &p) in self.producers[s].iter().enumerate() {
            if self.dep_bound(p, i == CC, 0) == UNISSUED {
                seen |= 1 << slot(p);
            }
        }
        seen.count_ones() as u8
    }

    /// Debug check of one Waiting entry's wakeup bookkeeping: it is parked
    /// exactly when its count is above 0, and the count is its number of
    /// distinct unissued producers.
    fn wakeups_consistent(&self, s: usize) -> bool {
        let parked = self.parked & (1 << s) != 0;
        parked == (self.pending[s] > 0) && self.pending[s] == self.unissued_producers(s)
    }

    /// Whether the entry at the head is a data reference waiting on a
    /// primary miss (graduation slots lost to it are cache stalls).
    #[inline]
    fn head_is_miss_stall(&self, window: &VecDeque<Fetched>) -> bool {
        if self.len == 0 {
            return false;
        }
        let h = slot(self.base);
        !self.is_complete(h)
            && self.meta[h].flags & InstrMeta::DATA_REF != 0
            && window[0].probe().is_some_and(|p| p.level.is_l1_miss())
    }

    /// Records the graduation at `now` of handle `f` from slot `h` in the
    /// pipeline trace and to the observer.
    #[inline(always)]
    fn note_graduation<O: Observer>(
        &self,
        h: usize,
        f: &Fetched,
        now: u64,
        program: &Program,
        trace: &mut Option<&mut Vec<InstrTrace>>,
        obs: &mut O,
    ) {
        if let Some(tr) = trace.as_deref_mut() {
            tr.push(InstrTrace {
                seq: f.seq,
                pc: f.pc(),
                instr: program.instrs()[f.idx as usize],
                fetch: f.fetch_cycle,
                dispatch: self.dispatch[h],
                issue: self.issue[h],
                complete: self.complete[h],
                graduate: now,
            });
        }
        if O::ON {
            obs.record(now, EventKind::Graduate { seq: f.seq });
            if matches!(program.instrs()[f.idx as usize], Instr::JumpMhrr) {
                obs.record(now, EventKind::TrapReturn { seq: f.seq });
            }
            if self.meta[h].kind == InstrMeta::KIND_LOAD && self.issue[h] != u64::MAX {
                obs.observe("cpu.load_to_use", self.complete[h].saturating_sub(self.issue[h]));
            }
            if f.informing_trap {
                let resolved = if f.resolve == Resolve::AtGraduate { now } else { self.outcome[h] };
                obs.observe("cpu.trap_redirect", resolved.saturating_sub(f.fetch_cycle));
            }
        }
    }

    /// Issues the Waiting entry in slot `s`, handle `f`, at `now`: schedules
    /// its memory access, fixes its completion and outcome cycles, allocates
    /// its MSHR and queues its checkpoint release and front-end resolution.
    /// Returns `(complete, outcome)`.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn issue<O: Observer>(
        &mut self,
        s: usize,
        f: &Fetched,
        now: u64,
        cfg: &OooConfig,
        ckpt_flags: u8,
        hier: &mut MemoryHierarchy,
        mshrs: &mut MshrFile,
        fills: &mut WakeupQueue<MshrId>,
        ckpt_release_q: &mut WakeupQueue<()>,
        resolve_q: &mut WakeupQueue<u64>,
        obs: &mut O,
    ) -> (u64, u64) {
        let m = self.meta[s];
        let (complete, outcome, alloc_mshr) = match m.kind {
            InstrMeta::KIND_LOAD => {
                let probe = f.probe().expect("loads probe");
                let t = hier.schedule_data(probe, now);
                let outcome = t.start + cfg.hier.l1_latency;
                (t.complete, outcome, probe.level.is_l1_miss().then_some((probe.line, t.complete)))
            }
            InstrMeta::KIND_PREFETCH => {
                if let Some(probe) = f.probe() {
                    let _ = hier.schedule_data(probe, now);
                }
                (now + 1, now + 1, None)
            }
            InstrMeta::KIND_STORE => {
                // Address generation now; the cache is probed at
                // graduation. The outcome (for the condition code) is
                // known after an early tag probe.
                (now + 1, now + cfg.hier.l1_latency, None)
            }
            _ => {
                let lat = u64::from(m.lat);
                (now + lat, now + lat, None)
            }
        };
        let bit = 1u64 << s;
        self.waiting &= !bit;
        self.issued |= bit;
        self.issue[s] = now;
        self.complete[s] = complete;
        self.outcome[s] = outcome;
        self.next_complete = self.next_complete.min(complete);
        obs.record(now, EventKind::Issue { seq: f.seq });
        if let Some((line, fill)) = alloc_mshr {
            let fresh = mshrs.find(line).is_none();
            if let Some(id) = mshrs.allocate(line) {
                self.mshr[s] = Some(id);
                if fresh {
                    fills.push(fill, id);
                    obs.record(now, EventKind::MshrAllocate { line });
                } else {
                    obs.record(now, EventKind::MshrMerge { line });
                }
            }
        }
        if m.flags & ckpt_flags != 0 {
            ckpt_release_q.push(outcome, ());
        }
        if f.resolve == Resolve::AtExecute {
            resolve_q.push_keyed(outcome, f.seq, f.seq);
        }
        (complete, outcome)
    }
}

/// The [`InstrMeta`] flags of instructions that hold a rename shadow
/// checkpoint from dispatch until their outcome is known: every conditional
/// and condition-code branch, and informing memory operations when the trap
/// is modelled as a branch.
fn checkpoint_flags(trap_model: TrapModel) -> u8 {
    let branches = InstrMeta::COND_BRANCH | InstrMeta::BMISS | InstrMeta::BMISS_MEM;
    match trap_model {
        TrapModel::Branch => branches | InstrMeta::INFORMING,
        TrapModel::Exception => branches,
    }
}

/// The checkpoint record of the reorder-buffer entry with handle `f`.
fn entry_json(rob: &Rob, f: &Fetched, ckpt_flags: u8) -> Json {
    let s = slot(f.seq);
    let deps = rob.producers[s].iter().enumerate().filter(|&(_, &p)| p != NONE).map(|(i, &p)| {
        let kind = u64::from(i == CC);
        Json::obj([("kind", snapshot::u64_json(kind)), ("seq", snapshot::u64_json(p))])
    });
    let state = if rob.waiting & (1 << s) != 0 {
        0
    } else if rob.issued & (1 << s) != 0 {
        1
    } else {
        2
    };
    Json::obj([
        ("f", ckpt::fetched_json(f)),
        ("state", snapshot::u64_json(state)),
        ("deps", Json::arr(deps)),
        ("complete", snapshot::u64_json(rob.complete[s])),
        ("outcome", snapshot::u64_json(rob.outcome[s])),
        ("ckpt", Json::Bool(rob.meta[s].flags & ckpt_flags != 0)),
        ("mshr", snapshot::opt_u64_json(rob.mshr[s].map(|id| id.raw() as u64))),
        ("dispatch", snapshot::u64_json(rob.dispatch[s])),
        ("issue", snapshot::u64_json(rob.issue[s])),
    ])
}

/// Decodes one [`entry_json`] record into its slot of `rob`, returning its
/// handle. Slots are trusted only after [`check_window`] has passed.
fn decode_entry(
    program: &Program,
    cache: &BlockCache,
    cfg: &OooConfig,
    rob: &mut Rob,
    j: &Json,
) -> Result<Fetched, SnapshotError> {
    // Dispatch lists at most two value producers (kind 0), then at most
    // one condition-code producer (kind 1).
    let mut producers = [NONE; 3];
    let mut values = 0;
    for d in snapshot::field(j, "deps")?.as_arr().ok_or(SnapshotError::Bad("deps"))? {
        let at = match snapshot::get_u64(d, "kind")? {
            0 if values < CC && producers[CC] == NONE => {
                values += 1;
                values - 1
            }
            1 if producers[CC] == NONE => CC,
            _ => return Err(SnapshotError::Bad("deps")),
        };
        producers[at] = snapshot::get_u64(d, "seq")?;
        if producers[at] == NONE {
            return Err(SnapshotError::Bad("deps"));
        }
    }
    let mshr = match snapshot::get_opt_u64(j, "mshr")? {
        Some(raw) if raw < u64::from(cfg.hier.mshrs) => Some(MshrId::from_raw(raw as usize)),
        Some(_) => return Err(SnapshotError::Bad("mshr")),
        None => None,
    };
    let f = ckpt::decode_fetched(program, snapshot::field(j, "f")?)?;
    // `decode_fetched` checked the index against the program, which the
    // cache was built from.
    let m = *cache.meta_idx(f.idx as usize);
    // The checkpoint need is derived from the instruction; the wire copy
    // must agree with it.
    if snapshot::get_bool(j, "ckpt")? != (m.flags & checkpoint_flags(cfg.trap_model) != 0) {
        return Err(SnapshotError::Bad("ckpt"));
    }
    let s = slot(f.seq);
    let bit = 1u64 << s;
    match snapshot::get_u64(j, "state")? {
        0 => rob.waiting |= bit,
        1 => rob.issued |= bit,
        2 => {}
        _ => return Err(SnapshotError::Bad("state")),
    }
    rob.meta[s] = m;
    rob.producers[s] = producers;
    rob.complete[s] = snapshot::get_u64(j, "complete")?;
    rob.outcome[s] = snapshot::get_u64(j, "outcome")?;
    rob.mshr[s] = mshr;
    rob.dispatch[s] = snapshot::get_u64(j, "dispatch")?;
    rob.issue[s] = snapshot::get_u64(j, "issue")?;
    Ok(f)
}

/// Rejects a decoded instruction window that dispatch could not have built.
/// The issue stage finds producers and wakeup words at slot `seq & 63`, so
/// it relies on all of these: the ROB fits its configured size, its seqs run
/// contiguously from `rob_base`, and every dependency names an older seq;
/// the fetched-but-undispatched tail continues from the ROB, ends at the
/// front end's `next_seq`, and holds less than `3 × issue_width` handles
/// (fetch runs only below `2 × issue_width` and adds at most
/// `issue_width`); and every rename-map entry names a dispatched
/// instruction. Text indices were checked as each record decoded.
fn check_window(
    cfg: &OooConfig,
    rob: &Rob,
    window: &VecDeque<Fetched>,
    next_seq: u64,
    last_writer: &[u64; 64],
) -> Result<(), SnapshotError> {
    let contiguous = |from: u64, fs: std::collections::vec_deque::Iter<'_, Fetched>| {
        fs.enumerate().all(|(i, f)| f.seq.checked_sub(from) == Some(i as u64))
    };
    let rob_ok = rob.len <= cfg.rob_entries as usize
        && contiguous(rob.base, window.range(..rob.len))
        && window
            .range(..rob.len)
            .all(|f| rob.producers[slot(f.seq)].iter().all(|&p| p == NONE || p < f.seq));
    if !rob_ok {
        return Err(SnapshotError::Bad("rob"));
    }
    let tail = rob.base.saturating_add(rob.len as u64);
    let undispatched = window.len() - rob.len;
    let tail_ok = undispatched < 3 * cfg.issue_width as usize
        && tail.checked_add(undispatched as u64) == Some(next_seq)
        && contiguous(tail, window.range(rob.len..));
    if !tail_ok {
        return Err(SnapshotError::Bad("fetch_q"));
    }
    if last_writer.iter().any(|&w| w != NONE && w >= tail) {
        return Err(SnapshotError::Bad("last_writer"));
    }
    Ok(())
}

/// Simulates `program` to completion on the out-of-order model, recording
/// a per-instruction pipeline trace ([`InstrTrace`]) for every graduated
/// instruction — see [`crate::trace`] for rendering and invariant checking.
/// Untraced runs go through [`crate::SimSession`] or [`crate::Machine`].
///
/// # Errors
///
/// Returns [`SimError`] if the program faults, exceeds `limits`, or the
/// model detects a deadlock.
pub fn simulate_traced(
    program: &Program,
    cfg: &OooConfig,
    limits: RunLimits,
) -> Result<(RunResult, Vec<InstrTrace>), SimError> {
    let mut traces = Vec::new();
    match run(program, cfg, limits, None, Some(&mut traces), None, None)? {
        RunOutcome::Done(result, _) => Ok((result, traces)),
        RunOutcome::Paused { .. } => unreachable!("a run without a stop boundary never pauses"),
    }
}

/// Encodes every `run`-loop local at a cycle boundary (the checkpoint body).
#[allow(clippy::too_many_arguments)]
fn encode_loop(
    hier: &MemoryHierarchy,
    fe: &FrontEnd,
    mshrs: &MshrFile,
    rob: &Rob,
    window: &VecDeque<Fetched>,
    last_writer: &[u64; 64],
    resolve_q: &WakeupQueue<u64>,
    ckpt_release_q: &WakeupQueue<()>,
    fills: &WakeupQueue<MshrId>,
    checkpoints_in_use: u32,
    wb_release: &ReleasePool,
    now: u64,
    slots: SlotBreakdown,
    cpi: &CpiStack,
    ckpt_flags: u8,
) -> Json {
    Json::obj([
        ("hier", hier.to_wire()),
        ("fe", fe.encode()),
        ("mshrs", mshrs.to_wire()),
        ("rob", Json::arr(window.range(..rob.len).map(|f| entry_json(rob, f, ckpt_flags)))),
        ("rob_base", snapshot::u64_json(rob.base)),
        ("fetch_q", Json::arr(window.range(rob.len..).map(ckpt::fetched_json))),
        (
            "last_writer",
            Json::arr(
                last_writer.iter().map(|&w| snapshot::opt_u64_json((w != NONE).then_some(w))),
            ),
        ),
        ("resolve_q", ckpt::wakeup_json(resolve_q, |&s| s)),
        ("ckpt_release_q", ckpt::wakeup_json(ckpt_release_q, |()| 0)),
        ("fills", ckpt::wakeup_json(fills, |id| id.raw() as u64)),
        ("checkpoints_in_use", snapshot::u64_json(u64::from(checkpoints_in_use))),
        ("wb_release", snapshot::u64s_json(&wb_release.releases())),
        ("now", snapshot::u64_json(now)),
        ("slots", ckpt::slots_json(slots)),
        ("cpi", ckpt::cpi_json(cpi)),
    ])
}

/// Runs `program` from its entry, or from the checkpoint body `resume`,
/// until it completes or reaches the first cycle boundary at or after
/// `stop_at`.
pub(crate) fn run(
    program: &Program,
    cfg: &OooConfig,
    limits: RunLimits,
    stop_at: Option<u64>,
    trace: Option<&mut Vec<InstrTrace>>,
    obs: Option<&mut Recorder>,
    resume: Option<&Json>,
) -> Result<RunOutcome, SimError> {
    if cfg.rob_entries as usize > SLOTS {
        return Err(SimError::RobTooLarge { entries: cfg.rob_entries });
    }
    match obs {
        Some(rec) => run_with(program, cfg, limits, stop_at, trace, rec, resume),
        None => run_with(program, cfg, limits, stop_at, trace, &mut NoObs, resume),
    }
}

#[allow(clippy::too_many_lines)]
fn run_with<O: Observer>(
    program: &Program,
    cfg: &OooConfig,
    limits: RunLimits,
    stop_at: Option<u64>,
    mut trace: Option<&mut Vec<InstrTrace>>,
    obs: &mut O,
    resume: Option<&Json>,
) -> Result<RunOutcome, SimError> {
    let mut hier;
    let mut fe;
    let mut mshrs;
    let mut rob: Rob;
    // Every in-flight instruction, oldest first: the reorder buffer's
    // `rob.len` entries, then the fetched ones waiting for dispatch.
    let mut window: VecDeque<Fetched>;
    // The rename map: the seq of each register's last writer, or `NONE`.
    let mut last_writer: [u64; 64];
    // The most recent data reference dispatched: the producer of the
    // cache-outcome condition code a `bmiss` reads. Dispatch runs in program
    // order, so it is the last data reference fetched before the `bmiss`.
    let mut last_data_ref: Option<u64>;
    // Future-event queues (deterministic min-heaps; see `crate::sched`).
    let mut resolve_q: WakeupQueue<u64>; // seq due at cycle
    let mut ckpt_release_q: WakeupQueue<()>;
    let mut fills: WakeupQueue<MshrId>;
    let mut checkpoints_in_use: u32;
    let mut wb_release;
    let mut now: u64;
    let mut slots;
    let mut cpi;
    // The pre-decoded block table drives dispatch, issue and graduation in
    // both modes; only fast runs batch plain runs from it at fetch.
    let cache = BlockCache::build(program, |i| cfg.latency(i));
    let ckpt_flags = checkpoint_flags(cfg.trap_model);
    // Fast mode: event-driven runs — observed, traced or not — fetch plain
    // runs in batches and count wakeups instead of polling.
    // Tick-accurate runs are the unchanged bit-identity reference.
    let fast = !limits.force_tick_accurate;
    if let Some(body) = resume {
        hier = MemoryHierarchy::from_wire(snapshot::field(body, "hier")?)?;
        fe = FrontEnd::restore(
            program,
            &cache,
            cfg.predictor_entries,
            cfg.trap_model,
            cfg.hier.l1i.line_bytes,
            snapshot::field(body, "fe")?,
        )?;
        mshrs = MshrFile::from_wire(snapshot::field(body, "mshrs")?)?;
        rob = Rob::new(snapshot::get_u64(body, "rob_base")?);
        window = VecDeque::with_capacity(SLOTS + 3 * cfg.issue_width as usize);
        for j in snapshot::field(body, "rob")?.as_arr().ok_or(SnapshotError::Bad("rob"))? {
            let f = decode_entry(program, &cache, cfg, &mut rob, j)?;
            window.push_back(f);
        }
        rob.len = window.len();
        for j in snapshot::field(body, "fetch_q")?.as_arr().ok_or(SnapshotError::Bad("fetch_q"))? {
            window.push_back(ckpt::decode_fetched(program, j)?);
        }
        let lw = snapshot::get_arr(body, "last_writer", |j| match j {
            Json::Null => Ok(NONE),
            Json::Str(s) => match u64::from_str_radix(s, 16) {
                Ok(w) if w != NONE => Ok(w),
                _ => Err(SnapshotError::Bad("last_writer")),
            },
            _ => Err(SnapshotError::Bad("last_writer")),
        })?;
        if lw.len() != 64 {
            return Err(SnapshotError::Bad("last_writer").into());
        }
        last_writer = [NONE; 64];
        for (slot, w) in last_writer.iter_mut().zip(lw) {
            *slot = w;
        }
        check_window(cfg, &rob, &window, fe.next_seq(), &last_writer)?;
        // An older data reference has graduated, which readies its
        // condition-code consumers anyway.
        last_data_ref = window
            .range(..rob.len)
            .rev()
            .find(|f| rob.meta[slot(f.seq)].flags & InstrMeta::DATA_REF != 0)
            .map(|f| f.seq);
        resolve_q = ckpt::decode_wakeup(snapshot::field(body, "resolve_q")?, "resolve_q", Ok)?;
        ckpt_release_q = ckpt::decode_wakeup(
            snapshot::field(body, "ckpt_release_q")?,
            "ckpt_release_q",
            |_| Ok(()),
        )?;
        fills = ckpt::decode_wakeup(snapshot::field(body, "fills")?, "fills", |raw| {
            if raw < u64::from(cfg.hier.mshrs) {
                Ok(MshrId::from_raw(raw as usize))
            } else {
                Err(SnapshotError::Bad("fills"))
            }
        })?;
        checkpoints_in_use = snapshot::get_u32(body, "checkpoints_in_use")?;
        let releases = snapshot::get_u64s(body, "wb_release")?;
        if releases.len() != cfg.write_buffer as usize {
            return Err(SnapshotError::Bad("wb_release").into());
        }
        wb_release = ReleasePool::restore(releases);
        now = snapshot::get_u64(body, "now")?;
        slots = ckpt::decode_slots(snapshot::field(body, "slots")?)?;
        cpi = ckpt::decode_cpi(snapshot::field(body, "cpi")?)?;
        // Counts, bounds and wakeup words are not on the wire: rebuild them
        // in ROB order, as dispatch built them. A pause falls before this
        // cycle's graduation, which dispatch had already seen.
        if fast {
            rob.issue_due = u64::MAX;
            for f in window.range(..rob.len) {
                let s = slot(f.seq);
                if rob.waiting & (1 << s) != 0 {
                    rob.link(s, f.fetch_cycle + cfg.frontend_depth, now.saturating_sub(1));
                }
            }
        }
    } else {
        hier = MemoryHierarchy::new(cfg.hier);
        fe = FrontEnd::new(
            program,
            &cache,
            cfg.predictor_entries,
            cfg.trap_model,
            cfg.hier.l1i.line_bytes,
        );
        mshrs = MshrFile::new(cfg.hier.mshrs, cfg.mshr_mode);
        rob = Rob::new(0);
        // Fetch runs below `2 × issue_width` undispatched handles and adds
        // at most `issue_width`.
        window = VecDeque::with_capacity(SLOTS + 3 * cfg.issue_width as usize);
        last_writer = [NONE; 64];
        last_data_ref = None;
        // Structural bounds: at most one pending resolution / shadow
        // checkpoint per ROB entry, one fill per MSHR.
        resolve_q = WakeupQueue::with_capacity(cfg.rob_entries as usize);
        ckpt_release_q = WakeupQueue::with_capacity(cfg.rob_entries as usize);
        fills = WakeupQueue::with_capacity(cfg.hier.mshrs as usize);
        checkpoints_in_use = 0;
        wb_release = ReleasePool::new(cfg.write_buffer as usize);
        now = 0;
        slots = SlotBreakdown::default();
        cpi = CpiStack::default();
    }

    // Programs without condition-code branches never create condition-code
    // edges, so their wakeup horizon can skip the per-entry outcome-cycle
    // candidates (the common case on the figure 2/3 trap schemes).
    let has_cc_consumers =
        cache.meta().iter().any(|m| m.flags & (InstrMeta::BMISS | InstrMeta::BMISS_MEM) != 0);

    let width = cfg.issue_width as u64;
    let mut done = false;

    // Issue slots per functional-unit class, indexed by `InstrMeta::fu`.
    let fu_limit = [cfg.int_units, cfg.fp_units, cfg.branch_units, cfg.mem_units];

    // CPI-stack classification for a cycle that graduates nothing. The trap
    // check precedes the memory checks so the handler-redirect bubbles land
    // in `Handler` (the paper's informing overhead) even when the trapping
    // load is also the miss-blocked ROB head.
    let classify = |rob: &Rob, window: &VecDeque<Fetched>, fe: &FrontEnd| -> CpiCategory {
        if fe.blocked_on_trap() {
            return CpiCategory::Handler;
        }
        if rob.head_is_miss_stall(window) {
            match window[0].probe().map(|p| p.level) {
                Some(HitLevel::L2) => return CpiCategory::L1Miss,
                Some(HitLevel::Memory) => return CpiCategory::L2Miss,
                _ => {}
            }
        }
        CpiCategory::IssueStall
    };

    while !done {
        // Checkpoint boundary: pause before this cycle mutates anything, so
        // a resumed run re-enters the loop with bit-identical state.
        if stop_at.is_some_and(|stop| now >= stop) {
            crate::speed::flush(fe.stats());
            return Ok(RunOutcome::Paused {
                cycle: now,
                body: encode_loop(
                    &hier,
                    &fe,
                    &mshrs,
                    &rob,
                    &window,
                    &last_writer,
                    &resolve_q,
                    &ckpt_release_q,
                    &fills,
                    checkpoints_in_use,
                    &wb_release,
                    now,
                    slots,
                    &cpi,
                    ckpt_flags,
                ),
            });
        }
        debug_assert!(rob.len <= cfg.rob_entries as usize, "ROB occupancy");
        debug_assert!(window.len() - rob.len < 3 * cfg.issue_width as usize, "fetched tail");
        debug_assert_eq!(rob.waiting & rob.issued, 0, "Waiting and Issued are exclusive");
        debug_assert!(!fast || rob.parked & !rob.waiting == 0, "only Waiting entries park");

        let mut progress = false;

        // ---- 1. MSHR fills due this cycle ----
        if fills.next_due().is_some_and(|t| t <= now) {
            while let Some((_, id)) = fills.pop_due(now) {
                mshrs.note_fill(id);
            }
            mshrs.reap();
            progress = true;
        }

        // ---- 2. Graduate ----
        let mut g = 0;
        while g < width && rob.len > 0 {
            let h = slot(rob.base);
            if !rob.is_complete(h) {
                break;
            }
            let m = rob.meta[h];
            // Stores drain through the write buffer at graduation. Any free
            // slot is as good as any other, so the pool hands out the
            // earliest-released one (see `ReleasePool`).
            if m.kind == InstrMeta::KIND_STORE {
                if !wb_release.has_free(now) {
                    break; // write buffer full: stall graduation
                }
                let probe = window[0].probe().expect("stores probe the cache");
                let t = hier.schedule_data(probe, now);
                wb_release.acquire_until(now, t.complete);
            }
            let f = window.pop_front().expect("the ROB is not empty");
            rob.note_graduation(h, &f, now, program, &mut trace, obs);
            rob.base += 1;
            rob.len -= 1;
            if let Some(id) = rob.mshr[h] {
                mshrs.graduate(id);
            }
            if f.resolve == Resolve::AtGraduate {
                fe.resolve(f.seq, now, cfg.redirect_penalty);
            }
            g += 1;
            progress = true;
            if m.kind == InstrMeta::KIND_HALT {
                done = true;
                break;
            }
        }
        slots.busy += g;
        if g < width && !done {
            let lost = width - g;
            if rob.head_is_miss_stall(&window) {
                slots.cache_stall += lost;
            } else {
                slots.other_stall += lost;
            }
        }
        // Exactly one CPI-stack cycle per loop iteration: this point runs
        // before every `break`, and the fast-forward path below attributes
        // the cycles it skips, so the stack total always equals `cycles`.
        if O::ON {
            if g > 0 {
                cpi.add(CpiCategory::Base, 1);
            } else {
                cpi.add(classify(&rob, &window, &fe), 1);
            }
        }

        if done {
            break;
        }

        // ---- 3. Complete ----
        if rob.next_complete <= now {
            let mut next = u64::MAX;
            let mut m = rob.issued;
            while m != 0 {
                let s = m.trailing_zeros() as usize;
                m &= m - 1;
                if rob.complete[s] <= now {
                    rob.issued &= !(1u64 << s);
                    progress = true;
                } else {
                    next = next.min(rob.complete[s]);
                }
            }
            rob.next_complete = next;
        }

        // ---- 4. Checkpoint releases ----
        while ckpt_release_q.pop_due(now).is_some() {
            checkpoints_in_use = checkpoints_in_use.saturating_sub(1);
            progress = true;
        }

        // ---- 5. Front-end resolutions due ----
        while let Some((t, seq)) = resolve_q.pop_due(now) {
            fe.resolve(seq, t, cfg.redirect_penalty);
            progress = true;
        }

        // ---- 6. Issue (oldest-ready-first within FU limits) ----
        let mut fu_used = [0u32; 4];
        if fast {
            // An entry whose count is 0 and whose bound is due issues
            // without a dependency walk.
            if rob.issue_due <= now {
                let base = rob.base;
                let rot = slot(base) as u32;
                // First find the unparked Waiting entries whose bound is
                // due, in ROB order (masks rotated so bit `pos` is ROB
                // position `pos`), and the earliest bound of the others.
                let mut scan = (rob.waiting & !rob.parked).rotate_right(rot);
                let (mut ready, mut due) = (0u64, u64::MAX);
                while scan != 0 {
                    let pos = scan.trailing_zeros();
                    scan &= scan - 1;
                    let ready_at = rob.ready_at[slot(base + u64::from(pos))];
                    let later = ready_at > now;
                    ready |= u64::from(!later) << pos;
                    due = due.min(if later { ready_at } else { u64::MAX });
                }
                while ready != 0 {
                    let pos = ready.trailing_zeros() as usize;
                    ready &= ready - 1;
                    let s = slot(base + pos as u64);
                    let mut ready_at = rob.ready_at[s];
                    if rob.outcome_consumers & (1 << s) != 0 {
                        // Recheck: a condition code may be ready later than
                        // the bound, or — its producer graduating — earlier.
                        ready_at = ready_at.max(rob.sources_bound(s, now));
                        debug_assert_ne!(ready_at, UNISSUED, "counted producers have issued");
                        rob.ready_at[s] = ready_at;
                        if ready_at > now {
                            due = due.min(ready_at);
                            continue;
                        }
                    }
                    let fu = rob.meta[s].fu as usize;
                    if fu_used[fu] >= fu_limit[fu] {
                        // Structural hazards clear next cycle.
                        due = due.min(ready_at);
                        continue;
                    }
                    fu_used[fu] += 1;
                    progress = true;
                    let (complete, outcome) = rob.issue(
                        s,
                        &window[pos],
                        now,
                        cfg,
                        ckpt_flags,
                        &mut hier,
                        &mut mshrs,
                        &mut fills,
                        &mut ckpt_release_q,
                        &mut resolve_q,
                        obs,
                    );
                    // Wake this producer's waiters. A value is ready at
                    // `complete`; `min(complete, outcome)` bounds a
                    // condition code from below (see `dep_bound`). A
                    // consumer sits after its producer in ROB order, so one
                    // whose count reaches 0 and whose bound is due joins the
                    // rest of this pass, as the polling scan would visit it.
                    let mut woken = std::mem::take(&mut rob.waiters[s]);
                    while woken != 0 {
                        let c = woken.trailing_zeros() as usize;
                        woken &= woken - 1;
                        let bit = 1u64 << c;
                        let value = if rob.outcome_consumers & bit != 0 {
                            complete.min(outcome)
                        } else {
                            complete
                        };
                        rob.ready_at[c] = rob.ready_at[c].max(value);
                        rob.pending[c] -= 1;
                        if rob.pending[c] == 0 {
                            rob.parked &= !bit;
                            if rob.ready_at[c] <= now {
                                ready |= bit.rotate_right(rot);
                            } else {
                                due = due.min(rob.ready_at[c]);
                            }
                        }
                        debug_assert!(rob.wakeups_consistent(c));
                    }
                }
                rob.issue_due = due;
            }
        } else {
            // The polling reference: walk every Waiting entry's sources
            // every cycle.
            for f in window.range(..rob.len) {
                let s = slot(f.seq);
                if rob.waiting & (1 << s) == 0 {
                    continue;
                }
                let bound = (f.fetch_cycle + cfg.frontend_depth).max(rob.sources_bound(s, now));
                if bound > now {
                    continue; // includes an unissued producer (`UNISSUED`)
                }
                let fu = rob.meta[s].fu as usize;
                if fu_used[fu] >= fu_limit[fu] {
                    continue;
                }
                fu_used[fu] += 1;
                progress = true;
                rob.issue(
                    s,
                    f,
                    now,
                    cfg,
                    ckpt_flags,
                    &mut hier,
                    &mut mshrs,
                    &mut fills,
                    &mut ckpt_release_q,
                    &mut resolve_q,
                    obs,
                );
            }
        }

        // ---- 7. Dispatch ----
        let mut d = 0;
        let mut undispatched = window.range(rob.len..);
        while d < cfg.issue_width && rob.len < cfg.rob_entries as usize {
            let Some(f) = undispatched.next() else { break };
            let m = *cache.meta_idx(f.idx as usize);
            let needs_ckpt = m.flags & ckpt_flags != 0;
            if needs_ckpt && checkpoints_in_use >= cfg.max_checkpoints {
                break;
            }
            if needs_ckpt {
                checkpoints_in_use += 1;
            }
            let (seq, floor) = (f.seq, f.fetch_cycle + cfg.frontend_depth);
            debug_assert_eq!(seq, rob.base + rob.len as u64, "seq contiguity");
            let s = slot(seq);
            let writer = |r: u8| if r == NO_REG { NONE } else { last_writer[r as usize] };
            // A condition-code producer that has left the ROB is ready: no
            // edge.
            let cc = if m.flags & (InstrMeta::BMISS | InstrMeta::BMISS_MEM) != 0 {
                last_data_ref.filter(|&p| p >= rob.base).unwrap_or(NONE)
            } else {
                NONE
            };
            rob.producers[s] = [writer(m.src1), writer(m.src2), cc];
            if m.flags & InstrMeta::DATA_REF != 0 {
                last_data_ref = Some(seq);
            }
            if m.dest != NO_REG {
                last_writer[m.dest as usize] = seq;
            }
            rob.meta[s] = m;
            rob.complete[s] = u64::MAX;
            rob.outcome[s] = u64::MAX;
            rob.mshr[s] = None;
            rob.dispatch[s] = now;
            rob.issue[s] = u64::MAX;
            rob.waiting |= 1 << s;
            rob.len += 1;
            if fast {
                rob.waiters[s] = 0;
                rob.link(s, floor, now);
            }
            d += 1;
            progress = true;
        }

        // ---- 8. Fetch ----
        if window.len() - rob.len < 2 * cfg.issue_width as usize {
            let before = window.len();
            if fast {
                if fe.fetch_ready(now) {
                    fe.fetch_fast(now, cfg.issue_width, &mut hier, &mut window, obs)?;
                }
            } else {
                fe.fetch(now, cfg.issue_width, &mut hier, &mut window, obs)?;
            }
            if window.len() > before {
                progress = true;
            }
        }

        // ---- 9. Termination / limits ----
        if fe.halted() && window.is_empty() {
            // Halt graduated in a previous iteration (done flag), or the
            // program ended in an unusual state; either way we are finished.
            break;
        }
        if rob.base >= limits.max_instructions {
            return Err(SimError::InstructionLimit(limits.max_instructions));
        }
        if now >= limits.max_cycles {
            return Err(SimError::CycleLimit(limits.max_cycles));
        }

        // ---- 10. Advance time (with fast-forward over quiet cycles) ----
        if progress {
            now += 1;
        } else {
            // Fold every wakeup source into the earliest *future* event;
            // anything at or before `now` is not a wake-up source (it
            // already had its chance this cycle).
            let mut h = Horizon::new(now);
            if fast {
                // A parked entry cannot issue before its producers do, so
                // the unparked entries' bounds cover every Waiting entry.
                h.consider(rob.issue_due);
                h.consider(rob.next_complete);
            } else {
                for f in window.range(..rob.len) {
                    let s = slot(f.seq);
                    if rob.waiting & (1 << s) != 0 {
                        h.consider(f.fetch_cycle + cfg.frontend_depth);
                    } else if rob.issued & (1 << s) != 0 {
                        h.consider(rob.complete[s]);
                    }
                }
            }
            if has_cc_consumers {
                // `outcome` can precede completion (a miss's early tag
                // probe) or follow it (a store's tag probe after its 1-cycle
                // address generation); either way it readies condition-code
                // consumers, so it is a wake-up source of its own. A Waiting
                // entry's is `u64::MAX`, which no horizon takes.
                for f in window.range(..rob.len) {
                    h.consider(rob.outcome[slot(f.seq)]);
                }
            }
            h.consider_opt(resolve_q.next_due());
            h.consider_opt(ckpt_release_q.next_due());
            h.consider_opt(fills.next_due());
            if !fe.halted() && fe.blocked_on().is_none() {
                h.consider(fe.resume_at());
            }
            if rob.len > 0
                && rob.is_complete(slot(rob.base))
                && rob.meta[slot(rob.base)].kind == InstrMeta::KIND_STORE
            {
                // Graduation blocked on the write buffer.
                h.consider_opt(wb_release.next_release());
            }
            let Some(next) = h.earliest() else {
                return Err(SimError::Deadlock { cycle: now });
            };
            if limits.force_tick_accurate {
                // Reference mode: the horizon was still computed (so deadlock
                // detection is identical), but time advances one cycle.
                now += 1;
                continue;
            }
            let skipped = next - now - 1;
            if skipped > 0 {
                // Attribute the skipped slots exactly as the per-cycle
                // accounting would have.
                let lost = skipped * width;
                if rob.head_is_miss_stall(&window) {
                    slots.cache_stall += lost;
                } else {
                    slots.other_stall += lost;
                }
                if O::ON {
                    // The skipped cycles would each have graduated nothing
                    // with this exact (frozen) machine state.
                    cpi.add(classify(&rob, &window, &fe), skipped);
                }
            }
            now = next;
        }
    }

    let cycles = now + 1;
    let total = cycles * width;
    let accounted = slots.total();
    if total > accounted {
        slots.other_stall += total - accounted;
    }
    crate::speed::flush(fe.stats());

    let result = RunResult {
        cycles,
        instructions: rob.base,
        slots,
        informing_traps: fe.informing_traps(),
        mispredictions: fe.mispredictions(),
        branch_accuracy: fe.branch_accuracy(),
        mem: MemCounters {
            l1d_accesses: hier.stats().data_refs,
            l1d_misses: hier.stats().l1d_misses_to_l2 + hier.stats().l1d_misses_to_mem,
            l2_misses: hier.stats().l1d_misses_to_mem,
            inst_misses: hier.stats().inst_misses,
        },
    };
    if let Some(rec) = obs.recorder() {
        rec.cpi.merge(&cpi);
        rec.metrics.set("cpu.cycles", result.cycles);
        rec.metrics.set("cpu.instructions", result.instructions);
        rec.metrics.set("cpu.informing_traps", result.informing_traps);
        rec.metrics.set("cpu.mispredictions", result.mispredictions);
        let (seen, dropped) = (rec.total_recorded(), rec.dropped());
        rec.metrics.set("obs.events_seen", seen);
        rec.metrics.set("obs.events_dropped", dropped);
        hier.stats().record_metrics(&mut rec.metrics);
    }
    Ok(RunOutcome::Done(result, fe.into_state()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Machine;
    use imo_isa::{Asm, Cond, Reg};

    fn run(p: &Program) -> RunResult {
        Machine::default_ooo().run(p).expect("simulates")
    }

    fn r(i: u8) -> Reg {
        Reg::int(i)
    }

    #[test]
    fn straight_line_completes() {
        let mut a = Asm::new();
        for i in 0..20 {
            a.li(r(1 + (i % 8) as u8), i);
        }
        a.halt();
        let p = a.assemble().unwrap();
        let res = run(&p);
        assert_eq!(res.instructions, 21);
        assert!(res.cycles > 5, "I-miss + frontend depth cost cycles");
        assert!(res.cycles < 200);
        assert_eq!(res.slots.total(), res.cycles * 4);
    }

    #[test]
    fn independent_instructions_reach_high_ipc() {
        // Long run of independent int ops: IPC should approach 2 (2 INT units).
        let mut a = Asm::new();
        for i in 0..4000 {
            a.addi(r(1 + (i % 8) as u8), Reg::ZERO, i);
        }
        a.halt();
        let p = a.assemble().unwrap();
        let res = run(&p);
        assert!(res.ipc() > 1.5, "ipc = {}", res.ipc());
    }

    #[test]
    fn dependent_chain_limits_ipc() {
        let mut a = Asm::new();
        for _ in 0..2000 {
            a.addi(r(1), r(1), 1);
        }
        a.halt();
        let p = a.assemble().unwrap();
        let res = run(&p);
        assert!(res.ipc() < 1.2, "serial chain ipc = {}", res.ipc());
        assert!(res.ipc() > 0.8, "but still ~1/cycle: {}", res.ipc());
    }

    #[test]
    fn load_miss_stalls_are_attributed_to_cache() {
        // Pointer-chase across many lines: every load misses and the next
        // load depends on it.
        let mut a = Asm::new();
        // Build a chain in memory: mem[i*4096 + 0x10_0000] = (i+1)*4096 + 0x10_0000
        for i in 0..64u64 {
            a.word(0x10_0000 + i * 4096, 0x10_0000 + (i + 1) * 4096);
        }
        a.li(r(1), 0x10_0000);
        for _ in 0..64 {
            a.load(r(1), r(1), 0);
        }
        a.halt();
        let p = a.assemble().unwrap();
        let res = run(&p);
        assert!(res.mem.l1d_misses >= 64);
        assert!(
            res.slots.cache_stall > res.slots.busy,
            "memory-bound chain dominated by cache stalls: {:?}",
            res.slots
        );
    }

    #[test]
    fn branchy_loop_trains_predictor() {
        let mut a = Asm::new();
        let (i, n) = (r(1), r(2));
        a.li(i, 0);
        a.li(n, 500);
        let top = a.here("top");
        a.addi(i, i, 1);
        a.branch(Cond::Lt, i, n, top);
        a.halt();
        let p = a.assemble().unwrap();
        let res = run(&p);
        assert_eq!(res.instructions, 3 + 500 * 2);
        assert!(res.branch_accuracy > 0.95, "accuracy {}", res.branch_accuracy);
        assert!(res.mispredictions <= 5);
    }

    #[test]
    fn informing_trap_executes_handler_with_overlap() {
        // One informing load that misses; handler of 10 dependent adds.
        let mut a = Asm::new();
        let hdl = a.label("h");
        a.set_mhar(hdl);
        a.li(r(1), 0x40_0000);
        a.load_inf(r(2), r(1), 0);
        a.addi(r(3), r(2), 1); // consumer of the load
        a.halt();
        a.bind(hdl).unwrap();
        for _ in 0..10 {
            a.addi(r(20), r(20), 1);
        }
        a.jump_mhrr();
        let p = a.assemble().unwrap();
        let res = run(&p);
        assert_eq!(res.informing_traps, 1);
        // 4 main instrs + 1 halt? main: set_mhar, li, load, addi, halt = 5; handler 11.
        assert_eq!(res.instructions, 5 + 11);
    }

    #[test]
    fn trap_as_exception_is_slower_than_branch() {
        // Many informing misses: the exception model waits for graduation
        // before fetching the handler; the branch model does not.
        let mut a = Asm::new();
        let hdl = a.label("h");
        a.set_mhar(hdl);
        a.li(r(1), 0x40_0000);
        let top = a.label("top");
        a.li(r(2), 0);
        a.li(r(3), 200);
        a.bind(top).unwrap();
        a.load_inf(r(4), r(1), 0);
        a.addi(r(1), r(1), 4096); // new line/page every time -> always miss
        a.addi(r(2), r(2), 1);
        a.branch(Cond::Lt, r(2), r(3), top);
        a.halt();
        a.bind(hdl).unwrap();
        for _ in 0..10 {
            a.addi(r(20), r(20), 1);
        }
        a.jump_mhrr();
        let p = a.assemble().unwrap();

        let mut cfg = OooConfig::paper();
        cfg.trap_model = TrapModel::Branch;
        let branch = Machine::OutOfOrder(cfg).run(&p).unwrap();
        cfg.trap_model = TrapModel::Exception;
        let exception = Machine::OutOfOrder(cfg).run(&p).unwrap();

        assert_eq!(branch.informing_traps, 200);
        assert_eq!(exception.informing_traps, 200);
        assert!(
            exception.cycles > branch.cycles,
            "exception {} should exceed branch {}",
            exception.cycles,
            branch.cycles
        );
    }

    #[test]
    fn checkpoint_pressure_slows_dispatch() {
        // Dense informing loads (all hitting after warmup) with the branch
        // trap model consume checkpoints; a machine with 1 checkpoint must be
        // slower than one with 8.
        let mut a = Asm::new();
        let hdl = a.label("h");
        a.set_mhar(hdl);
        a.li(r(1), 0x40_0000);
        for _ in 0..50 {
            for o in 0..4 {
                a.load_inf(r(2 + o as u8), r(1), o * 8);
            }
        }
        a.halt();
        a.bind(hdl).unwrap();
        a.jump_mhrr();
        let p = a.assemble().unwrap();

        let mut cfg = OooConfig::paper();
        cfg.max_checkpoints = 1;
        let tight = Machine::OutOfOrder(cfg).run(&p).unwrap();
        cfg.max_checkpoints = 8;
        let loose = Machine::OutOfOrder(cfg).run(&p).unwrap();
        assert!(
            tight.cycles > loose.cycles,
            "1 checkpoint ({}) should be slower than 8 ({})",
            tight.cycles,
            loose.cycles
        );
    }

    #[test]
    fn bmiss_scheme_invokes_handler_only_on_miss() {
        let mut a = Asm::new();
        let hdl = a.label("h");
        a.li(r(1), 0x40_0000);
        // First load misses (cold), second hits (same line).
        a.load(r(2), r(1), 0);
        a.branch_on_miss(hdl);
        a.load(r(3), r(1), 8);
        a.branch_on_miss(hdl);
        a.halt();
        a.bind(hdl).unwrap();
        a.addi(r(20), r(20), 1);
        a.jump_mhrr();
        let p = a.assemble().unwrap();
        let res = run(&p);
        assert_eq!(res.informing_traps, 1, "only the cold miss dispatches");
        assert_eq!(res.instructions, 6 + 2);
    }

    #[test]
    fn bmiss_waits_for_the_outcome_of_the_last_data_reference() {
        let mut a = Asm::new();
        let hdl = a.label("h");
        a.li(r(1), 0x40_0000);
        a.load(r(2), r(1), 0); // cold miss
        a.branch_on_miss(hdl); // no register source: only the outcome orders it
        a.halt();
        a.bind(hdl).unwrap();
        a.jump_mhrr();
        let p = a.assemble().unwrap();
        let cfg = OooConfig::paper();
        let (_, traces) = simulate_traced(&p, &cfg, RunLimits::default()).unwrap();
        let issue = |want: fn(&Instr) -> bool| {
            traces.iter().find(|t| want(&t.instr)).expect("graduated").issue
        };
        let load = issue(|i| matches!(i, Instr::Load { .. }));
        let bmiss = issue(|i| matches!(i, Instr::BranchOnMiss { .. }));
        assert!(
            bmiss >= load + cfg.hier.l1_latency,
            "bmiss issued at {bmiss}, before the load's outcome ({load} + {})",
            cfg.hier.l1_latency
        );
    }

    /// Runs `p` traced, event-driven and tick-accurate; the two must agree
    /// on the result and on every instruction's pipeline timing.
    fn traced_both_ways(p: &Program) -> Vec<InstrTrace> {
        let cfg = OooConfig::paper();
        let (ev, ev_trace) = simulate_traced(p, &cfg, RunLimits::default()).expect("event run");
        let (tk, tk_trace) =
            simulate_traced(p, &cfg, RunLimits::tick_accurate()).expect("tick-accurate run");
        assert_eq!(ev, tk);
        assert!(ev_trace == tk_trace, "pipeline traces differ");
        ev_trace
    }

    /// The trace of the first graduated instruction matching `want`.
    fn traced(traces: &[InstrTrace], want: fn(&Instr) -> bool) -> InstrTrace {
        traces.iter().find(|t| want(&t.instr)).cloned().expect("graduated")
    }

    #[test]
    fn consumer_naming_one_unissued_producer_twice_issues_at_its_completion() {
        // The add dispatches with the missing load still Waiting and names
        // it through both sources: one producer, counted once.
        let mut a = Asm::new();
        a.li(r(10), 0x40_0000);
        a.load(r(1), r(10), 0);
        a.add(r(3), r(1), r(1));
        a.halt();
        let p = a.assemble().unwrap();
        let traces = traced_both_ways(&p);
        let load = traced(&traces, |i| matches!(i, Instr::Load { .. }));
        let add = traced(&traces, |i| matches!(i, Instr::Add { .. }));
        assert_eq!(add.dispatch, load.dispatch, "both wait at dispatch together");
        assert!(load.complete > load.issue + 10, "the load misses: {load:?}");
        assert_eq!(add.issue, load.complete, "the add issues when its value is ready");
    }

    #[test]
    fn consumer_of_two_loads_issues_at_the_later_completion() {
        // The first load misses to memory; the second issues later but hits
        // the line an earlier load fetched, so it completes first.
        let mut a = Asm::new();
        a.li(r(10), 0x40_0000);
        a.li(r(11), 0x80_0000);
        a.load(r(5), r(11), 0);
        a.load(r(1), r(10), 0);
        a.load(r(2), r(11), 8);
        a.add(r(3), r(1), r(2));
        a.halt();
        let p = a.assemble().unwrap();
        let traces = traced_both_ways(&p);
        let loads: Vec<InstrTrace> =
            traces.iter().filter(|t| matches!(t.instr, Instr::Load { .. })).cloned().collect();
        let (slow, fast) = (&loads[1], &loads[2]);
        let add = traced(&traces, |i| matches!(i, Instr::Add { .. }));
        assert!(fast.issue > slow.issue && fast.complete < slow.complete, "{slow:?} {fast:?}");
        assert!(add.dispatch <= slow.issue, "the add waits on both loads unissued");
        assert_eq!(add.issue, slow.complete, "the add issues at the later completion");
    }

    #[test]
    fn a_reorder_buffer_wider_than_the_slot_arrays_is_rejected() {
        let mut a = Asm::new();
        a.halt();
        let p = a.assemble().unwrap();
        let mut cfg = OooConfig::paper();
        cfg.rob_entries = 65;
        let err = Machine::OutOfOrder(cfg).run(&p).unwrap_err();
        assert_eq!(err, SimError::RobTooLarge { entries: 65 });
        cfg.rob_entries = 64;
        assert!(Machine::OutOfOrder(cfg).run(&p).is_ok());
    }

    #[test]
    fn store_heavy_code_respects_write_buffer() {
        let mut a = Asm::new();
        a.li(r(1), 0x40_0000);
        for i in 0..200 {
            a.store(r(1), r(1), (i * 4096) as i64); // every store misses
        }
        a.halt();
        let p = a.assemble().unwrap();
        let res = run(&p);
        assert_eq!(res.instructions, 202);
        assert!(res.mem.l1d_misses >= 200);
    }

    #[test]
    fn result_slot_accounting_is_exhaustive() {
        let mut a = Asm::new();
        let (i, n) = (r(1), r(2));
        a.li(i, 0);
        a.li(n, 100);
        let top = a.here("top");
        a.load(r(3), i, 0x40_0000);
        a.addi(i, i, 64);
        a.branch(Cond::Lt, i, n, top);
        a.halt();
        let p = a.assemble().unwrap();
        let res = run(&p);
        assert_eq!(res.slots.total(), res.cycles * 4);
    }

    #[test]
    fn deadlock_reported_for_impossible_config() {
        let mut a = Asm::new();
        a.fadd(Reg::fp(1), Reg::fp(2), Reg::fp(3));
        a.halt();
        let p = a.assemble().unwrap();
        let mut cfg = OooConfig::paper();
        cfg.fp_units = 0;
        let err = Machine::OutOfOrder(cfg).run(&p).unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }), "{err}");
    }

    #[test]
    fn cycle_limit_enforced() {
        let mut a = Asm::new();
        let top = a.here("top");
        a.addi(r(1), r(1), 1);
        a.jump(top);
        let p = a.assemble().unwrap();
        let err = Machine::default_ooo()
            .run_limited(
                &p,
                RunLimits { max_instructions: u64::MAX, max_cycles: 1000, ..RunLimits::default() },
            )
            .unwrap_err();
        assert!(matches!(err, SimError::CycleLimit(1000)));
    }
}
