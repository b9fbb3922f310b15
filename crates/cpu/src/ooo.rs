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
//!   park an entry whose producer has not issued on that producer's wakeup
//!   list instead of re-polling it every cycle (DESIGN.md §10.5).
//! * **Graduate** — up to `issue_width` completed instructions per cycle, in
//!   order. Stores probe/write at graduation through a finite write buffer.
//!   Graduation-slot accounting follows the paper's Figure 2 methodology.
//! * **Informing traps** — under [`TrapModel::Branch`] the handler is
//!   fetched as soon as the load's miss is detected at execute; under
//!   [`TrapModel::Exception`] fetch waits until the informing operation
//!   reaches the head of the reorder buffer.

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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EState {
    Waiting,
    Issued,
    Complete,
}

#[derive(Debug, Clone, Copy)]
enum Dep {
    /// Satisfied when the producer's result is available.
    Value(u64),
    /// Satisfied when the producer's cache outcome is known (condition-code
    /// consumers).
    Outcome(u64),
}

impl Dep {
    fn seq(self) -> u64 {
        match self {
            Dep::Value(s) | Dep::Outcome(s) => s,
        }
    }
}

#[derive(Debug)]
struct Entry {
    f: Fetched,
    /// Pre-decoded scheduling metadata of `f.instr`, copied from the block
    /// cache at dispatch.
    m: InstrMeta,
    state: EState,
    deps: [Option<Dep>; 3],
    complete_cycle: u64,
    /// Cycle the hit/miss outcome (memory) or direction (branch) is known.
    outcome_cycle: u64,
    mshr: Option<MshrId>,
    dispatch_cycle: u64,
    issue_cycle: u64,
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

fn entry_json(e: &Entry, ckpt_flags: u8) -> Json {
    let deps = e.deps.iter().flatten().map(|d| {
        let (kind, seq) = match *d {
            Dep::Value(s) => (0, s),
            Dep::Outcome(s) => (1, s),
        };
        Json::obj([("kind", snapshot::u64_json(kind)), ("seq", snapshot::u64_json(seq))])
    });
    Json::obj([
        ("f", ckpt::fetched_json(&e.f)),
        (
            "state",
            snapshot::u64_json(match e.state {
                EState::Waiting => 0,
                EState::Issued => 1,
                EState::Complete => 2,
            }),
        ),
        ("deps", Json::arr(deps)),
        ("complete", snapshot::u64_json(e.complete_cycle)),
        ("outcome", snapshot::u64_json(e.outcome_cycle)),
        ("ckpt", Json::Bool(e.m.flags & ckpt_flags != 0)),
        ("mshr", snapshot::opt_u64_json(e.mshr.map(|id| id.raw() as u64))),
        ("dispatch", snapshot::u64_json(e.dispatch_cycle)),
        ("issue", snapshot::u64_json(e.issue_cycle)),
    ])
}

fn decode_entry(
    program: &Program,
    cache: &BlockCache,
    cfg: &OooConfig,
    j: &Json,
) -> Result<Entry, SnapshotError> {
    let deps_wire = snapshot::field(j, "deps")?.as_arr().ok_or(SnapshotError::Bad("deps"))?;
    if deps_wire.len() > 3 {
        return Err(SnapshotError::Bad("deps"));
    }
    let mut deps: [Option<Dep>; 3] = [None; 3];
    for (slot, d) in deps.iter_mut().zip(deps_wire) {
        let seq = snapshot::get_u64(d, "seq")?;
        *slot = Some(match snapshot::get_u64(d, "kind")? {
            0 => Dep::Value(seq),
            1 => Dep::Outcome(seq),
            _ => return Err(SnapshotError::Bad("deps")),
        });
    }
    let mshr = match snapshot::get_opt_u64(j, "mshr")? {
        Some(raw) if raw < u64::from(cfg.hier.mshrs) => Some(MshrId::from_raw(raw as usize)),
        Some(_) => return Err(SnapshotError::Bad("mshr")),
        None => None,
    };
    let f = ckpt::decode_fetched(program, snapshot::field(j, "f")?)?;
    let m = *cache.meta_at(f.pc).ok_or(SnapshotError::Bad("pc"))?;
    // The checkpoint need is derived from the instruction; the wire copy
    // must agree with it.
    if snapshot::get_bool(j, "ckpt")? != (m.flags & checkpoint_flags(cfg.trap_model) != 0) {
        return Err(SnapshotError::Bad("ckpt"));
    }
    Ok(Entry {
        f,
        m,
        state: match snapshot::get_u64(j, "state")? {
            0 => EState::Waiting,
            1 => EState::Issued,
            2 => EState::Complete,
            _ => return Err(SnapshotError::Bad("state")),
        },
        deps,
        complete_cycle: snapshot::get_u64(j, "complete")?,
        outcome_cycle: snapshot::get_u64(j, "outcome")?,
        mshr,
        dispatch_cycle: snapshot::get_u64(j, "dispatch")?,
        issue_cycle: snapshot::get_u64(j, "issue")?,
    })
}

/// Rejects a decoded instruction window that dispatch could not have built.
/// The issue stage finds producers at `seq - rob_base` and wakeup words at
/// `seq & 63`, so it relies on all of these: the ROB fits its configured
/// size, its seqs run contiguously from `rob_base`, and every dependency
/// names an older seq; the fetch queue continues from the ROB tail, ends at
/// the front end's `next_seq`, and holds less than `3 × issue_width`
/// entries (fetch runs only below `2 × issue_width` and adds at most
/// `issue_width`); and every rename-map entry names a dispatched
/// instruction.
fn check_window(
    cfg: &OooConfig,
    rob: &VecDeque<Entry>,
    rob_base: u64,
    fetch_q: &VecDeque<Fetched>,
    next_seq: u64,
    last_writer: &[Option<u64>; 64],
) -> Result<(), SnapshotError> {
    let rob_ok = rob.len() <= cfg.rob_entries as usize
        && rob.iter().enumerate().all(|(i, e)| {
            e.f.seq.checked_sub(rob_base) == Some(i as u64)
                && e.deps.iter().flatten().all(|d| d.seq() < e.f.seq)
        });
    if !rob_ok {
        return Err(SnapshotError::Bad("rob"));
    }
    let tail = rob_base.saturating_add(rob.len() as u64);
    let fetch_q_ok = fetch_q.len() < 3 * cfg.issue_width as usize
        && tail.checked_add(fetch_q.len() as u64) == Some(next_seq)
        && fetch_q.iter().enumerate().all(|(i, f)| {
            f.seq.checked_sub(tail) == Some(i as u64) && f.cc_dep.is_none_or(|c| c < f.seq)
        });
    if !fetch_q_ok {
        return Err(SnapshotError::Bad("fetch_q"));
    }
    if last_writer.iter().flatten().any(|&w| w >= tail) {
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
    rob: &VecDeque<Entry>,
    rob_base: u64,
    fetch_q: &VecDeque<Fetched>,
    last_writer: &[Option<u64>; 64],
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
        ("rob", Json::arr(rob.iter().map(|e| entry_json(e, ckpt_flags)))),
        ("rob_base", snapshot::u64_json(rob_base)),
        ("fetch_q", Json::arr(fetch_q.iter().map(ckpt::fetched_json))),
        ("last_writer", Json::arr(last_writer.iter().map(|w| snapshot::opt_u64_json(*w)))),
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
    let mut rob: VecDeque<Entry>;
    let mut rob_base: u64; // seq of rob.front()
    let mut fetch_q: VecDeque<Fetched>;
    let mut last_writer: [Option<u64>; 64];
    // Future-event queues (deterministic min-heaps; see `crate::sched`).
    let mut resolve_q: WakeupQueue<u64>; // seq due at cycle
    let mut ckpt_release_q: WakeupQueue<()>;
    let mut fills: WakeupQueue<MshrId>;
    let mut checkpoints_in_use: u32;
    let mut wb_release;
    let mut now: u64;
    let mut graduated_total: u64;
    let mut slots;
    let mut cpi;
    // The pre-decoded block table drives dispatch, issue and graduation in
    // both modes; only fast runs also hand it to the front end's batched
    // fetch (below).
    let cache = BlockCache::build(program, |i| cfg.latency(i));
    let ckpt_flags = checkpoint_flags(cfg.trap_model);
    if let Some(body) = resume {
        hier = MemoryHierarchy::from_wire(snapshot::field(body, "hier")?)?;
        fe = FrontEnd::restore(
            program,
            cfg.predictor_entries,
            cfg.trap_model,
            cfg.hier.l1i.line_bytes,
            snapshot::field(body, "fe")?,
        )?;
        mshrs = MshrFile::from_wire(snapshot::field(body, "mshrs")?)?;
        rob = snapshot::field(body, "rob")?
            .as_arr()
            .ok_or(SnapshotError::Bad("rob"))?
            .iter()
            .map(|j| decode_entry(program, &cache, cfg, j))
            .collect::<Result<_, _>>()?;
        rob_base = snapshot::get_u64(body, "rob_base")?;
        fetch_q = snapshot::field(body, "fetch_q")?
            .as_arr()
            .ok_or(SnapshotError::Bad("fetch_q"))?
            .iter()
            .map(|j| ckpt::decode_fetched(program, j))
            .collect::<Result<_, _>>()?;
        let lw = snapshot::get_arr(body, "last_writer", |j| match j {
            Json::Null => Ok(None),
            Json::Str(s) => {
                u64::from_str_radix(s, 16).map(Some).map_err(|_| SnapshotError::Bad("last_writer"))
            }
            _ => Err(SnapshotError::Bad("last_writer")),
        })?;
        if lw.len() != 64 {
            return Err(SnapshotError::Bad("last_writer").into());
        }
        last_writer = [None; 64];
        for (slot, w) in last_writer.iter_mut().zip(lw) {
            *slot = w;
        }
        check_window(cfg, &rob, rob_base, &fetch_q, fe.next_seq(), &last_writer)?;
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
        // Instructions graduate in sequence order, so the ROB head's seq
        // counts them.
        graduated_total = rob_base;
        slots = ckpt::decode_slots(snapshot::field(body, "slots")?)?;
        cpi = ckpt::decode_cpi(snapshot::field(body, "cpi")?)?;
    } else {
        hier = MemoryHierarchy::new(cfg.hier);
        fe = FrontEnd::new(program, cfg.predictor_entries, cfg.trap_model, cfg.hier.l1i.line_bytes);
        mshrs = MshrFile::new(cfg.hier.mshrs, cfg.mshr_mode);
        rob = VecDeque::with_capacity(cfg.rob_entries as usize);
        rob_base = 0;
        fetch_q = VecDeque::with_capacity(2 * cfg.issue_width as usize);
        last_writer = [None; 64];
        // Structural bounds: at most one pending resolution / shadow
        // checkpoint per ROB entry, one fill per MSHR.
        resolve_q = WakeupQueue::with_capacity(cfg.rob_entries as usize);
        ckpt_release_q = WakeupQueue::with_capacity(cfg.rob_entries as usize);
        fills = WakeupQueue::with_capacity(cfg.hier.mshrs as usize);
        checkpoints_in_use = 0;
        wb_release = ReleasePool::new(cfg.write_buffer as usize);
        now = 0;
        graduated_total = 0;
        slots = SlotBreakdown::default();
        cpi = CpiStack::default();
    }
    let mut fetch_buf: Vec<Fetched> = Vec::with_capacity(cfg.issue_width as usize);

    // Programs without condition-code branches never create `Dep::Outcome`
    // edges, so their wakeup horizon can skip the per-entry outcome-cycle
    // candidates (the common case on the figure 2/3 trap schemes).
    let has_cc_consumers =
        cache.meta().iter().any(|m| m.flags & (InstrMeta::BMISS | InstrMeta::BMISS_MEM) != 0);

    let width = cfg.issue_width as u64;
    let mut done = false;

    // Fast mode: event-driven runs — observed, traced or not — consume
    // pre-decoded blocks in the front end and wake consumers instead of
    // polling them. Tick-accurate runs are the unchanged bit-identity
    // reference.
    let fast = !limits.force_tick_accurate;
    if fast {
        fe.attach_blocks(&cache);
    }

    // ROB occupancy masks (fast mode, ROBs that fit a word): bit `i` of
    // `waiting_mask`/`issued_mask` set ⇔ `rob[i]` is Waiting/Issued. The
    // complete and issue stages then visit only the entries that can act,
    // instead of scanning the whole ROB every cycle. Masks shift with
    // `pop_front` and are rebuilt from the decoded ROB on resume.
    let masks_on = fast && cfg.rob_entries as usize <= 64;
    let mut waiting_mask: u64 = 0;
    let mut issued_mask: u64 = 0;
    // Wakeup lists (fast mode): a Waiting entry whose dependency walk meets
    // a producer that is still Waiting parks — bit `i` of `parked_mask`
    // (ROB position) and bit `c_seq & 63` of the producer's word
    // `waiters[p_seq & 63]`. Only the issue stage moves an entry out of
    // Waiting, so a parked consumer stays blocked until that producer
    // issues, and the producer's issue drains its word. Select skips parked
    // entries. Parks start empty on resume: every entry re-parks on its
    // first walk, so they live outside the checkpoint like the hints.
    let mut parked_mask: u64 = 0;
    let mut waiters = [0u64; 64];
    if masks_on {
        for (i, e) in rob.iter().enumerate() {
            match e.state {
                EState::Waiting => waiting_mask |= 1 << i,
                EState::Issued => issued_mask |= 1 << i,
                EState::Complete => {}
            }
        }
    }
    // Issue-stall hints (fast mode): slot `seq & 63` holds a provable lower
    // bound on the cycle at which that entry could first pass the issue
    // checks, so the issue stage skips its dependency walk until then. Seqs
    // are contiguous and the ROB holds at most 64 entries, so live seqs never
    // collide; dispatch resets the slot. All-zero (recheck immediately) is
    // always safe, which is why the hints live outside the checkpoint.
    let mut issue_hints = [0u64; 64];

    // Issue slots per functional-unit class, indexed by `InstrMeta::fu`.
    let fu_limit = [cfg.int_units, cfg.fp_units, cfg.branch_units, cfg.mem_units];

    // Earliest cycle at which `dep` can possibly become ready: 0 when it is
    // ready now, a provable future lower bound otherwise. Readiness means the
    // producer has graduated (left the ROB), or — for value deps — completed
    // by `now`, or — for outcome deps — left `Waiting` with its
    // `outcome_cycle` due. `bound <= now` is exactly that predicate, and a
    // future bound is a pure filter for the issue stage: re-evaluating at or
    // after it gives the truth, so skipping the dep walk before it is exact.
    //
    // * A `Waiting` producer cannot ready a consumer until it issues
    //   (issuing yields completion/outcome cycles strictly in the future,
    //   and graduation requires completion first), so no cycle is a bound:
    //   `UNISSUED`, on which the issue stage parks the consumer.
    // * An `Issued` producer's `complete_cycle`/`outcome_cycle` are fixed at
    //   issue; during the issue stage they are strictly future (stage 3
    //   already retired anything due). Graduation — which also readies
    //   outcome consumers — cannot precede `complete_cycle + 1`.
    // * A `Complete` producer may still leave the ROB next cycle, readying
    //   an outcome consumer before `outcome_cycle`, so only `now + 1` is
    //   provable there.
    const UNISSUED: u64 = u64::MAX;
    let dep_bound = |rob: &VecDeque<Entry>, rob_base: u64, dep: Dep, now: u64| -> u64 {
        let (seq, outcome) = match dep {
            Dep::Value(s) => (s, false),
            Dep::Outcome(s) => (s, true),
        };
        if seq < rob_base {
            return 0;
        }
        match rob.get((seq - rob_base) as usize) {
            None => 0,
            Some(p) => match p.state {
                EState::Waiting => UNISSUED,
                EState::Issued => {
                    if outcome {
                        p.outcome_cycle.min(p.complete_cycle + 1)
                    } else {
                        p.complete_cycle
                    }
                }
                EState::Complete => {
                    if outcome && p.outcome_cycle > now {
                        p.outcome_cycle.min(now + 1)
                    } else {
                        0
                    }
                }
            },
        }
    };

    // CPI-stack classification for a cycle that graduates nothing. The trap
    // check precedes the memory checks so the handler-redirect bubbles land
    // in `Handler` (the paper's informing overhead) even when the trapping
    // load is also the miss-blocked ROB head.
    let classify = |rob: &VecDeque<Entry>, fe: &FrontEnd| -> CpiCategory {
        if fe.blocked_on_trap() {
            return CpiCategory::Handler;
        }
        if let Some(h) = rob.front() {
            if h.state != EState::Complete && h.m.flags & InstrMeta::DATA_REF != 0 {
                if let Some(p) = h.f.probe {
                    match p.level {
                        HitLevel::L2 => return CpiCategory::L1Miss,
                        HitLevel::Memory => return CpiCategory::L2Miss,
                        HitLevel::L1 => {}
                    }
                }
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
                    rob_base,
                    &fetch_q,
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
        let mut g: u64 = 0;
        while g < width {
            let Some(head) = rob.front() else { break };
            if head.state != EState::Complete {
                break;
            }
            // Stores drain through the write buffer at graduation. Any free
            // slot is as good as any other, so the pool hands out the
            // earliest-released one (see `ReleasePool`).
            if head.m.kind == InstrMeta::KIND_STORE {
                if !wb_release.has_free(now) {
                    break; // write buffer full: stall graduation
                }
                let probe = head.f.probe.expect("stores probe the cache");
                let t = hier.schedule_data(probe, now);
                wb_release.acquire_until(now, t.complete);
            }
            let e = rob.pop_front().expect("front exists");
            rob_base = e.f.seq + 1;
            // A graduating head is Complete, so its mask bits are clear and
            // the shift drops exactly its slot.
            waiting_mask >>= 1;
            issued_mask >>= 1;
            parked_mask >>= 1;
            if let Some(tr) = trace.as_deref_mut() {
                tr.push(InstrTrace {
                    seq: e.f.seq,
                    pc: e.f.pc,
                    instr: e.f.instr,
                    fetch: e.f.fetch_cycle,
                    dispatch: e.dispatch_cycle,
                    issue: e.issue_cycle,
                    complete: e.complete_cycle,
                    graduate: now,
                });
            }
            if let Some(id) = e.mshr {
                mshrs.graduate(id);
            }
            if O::ON {
                obs.record(now, EventKind::Graduate { seq: e.f.seq });
                if matches!(e.f.instr, Instr::JumpMhrr) {
                    obs.record(now, EventKind::TrapReturn { seq: e.f.seq });
                }
                if e.m.kind == InstrMeta::KIND_LOAD && e.issue_cycle != u64::MAX {
                    obs.observe("cpu.load_to_use", e.complete_cycle.saturating_sub(e.issue_cycle));
                }
                if e.f.informing_trap {
                    let resolved =
                        if e.f.resolve == Resolve::AtGraduate { now } else { e.outcome_cycle };
                    obs.observe("cpu.trap_redirect", resolved.saturating_sub(e.f.fetch_cycle));
                }
            }
            if e.f.resolve == Resolve::AtGraduate {
                fe.resolve(e.f.seq, now, cfg.redirect_penalty);
            }
            if e.m.kind == InstrMeta::KIND_HALT {
                done = true;
            }
            graduated_total += 1;
            g += 1;
            progress = true;
            if done {
                break;
            }
        }
        slots.busy += g;
        if g < width && !done {
            let lost = width - g;
            let head_is_miss_stall = rob.front().is_some_and(|h| {
                h.state != EState::Complete
                    && h.m.flags & InstrMeta::DATA_REF != 0
                    && h.f.probe.is_some_and(|p| p.level.is_l1_miss())
            });
            if head_is_miss_stall {
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
                cpi.add(classify(&rob, &fe), 1);
            }
        }

        if done {
            break;
        }

        // ---- 3. Complete ----
        if masks_on {
            let mut m = issued_mask;
            while m != 0 {
                let i = m.trailing_zeros() as usize;
                m &= m - 1;
                let e = &mut rob[i];
                if e.complete_cycle <= now {
                    e.state = EState::Complete;
                    issued_mask &= !(1u64 << i);
                    progress = true;
                }
            }
        } else {
            for e in rob.iter_mut() {
                if e.state == EState::Issued && e.complete_cycle <= now {
                    e.state = EState::Complete;
                    progress = true;
                }
            }
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
        // With masks on, visit only Waiting entries that are not parked
        // (ascending index, same order as the full scan); otherwise walk the
        // whole ROB.
        let mut wscan = waiting_mask & !parked_mask;
        let mut iscan = 0usize;
        loop {
            let i = if masks_on {
                if wscan == 0 {
                    break;
                }
                let i = wscan.trailing_zeros() as usize;
                wscan &= wscan - 1;
                if issue_hints[((rob_base + i as u64) & 63) as usize] > now {
                    continue; // provably cannot issue yet: skip the dep walk
                }
                i
            } else {
                if iscan >= rob.len() {
                    break;
                }
                iscan += 1;
                iscan - 1
            };
            // Evaluate the issue conditions. A producer that has not issued
            // blocks the entry until it does: fast mode parks the entry on
            // that producer's wakeup list. When a timing condition fails,
            // record the provable lower bound so later cycles skip the walk.
            let e = &rob[i];
            if e.state != EState::Waiting {
                continue;
            }
            let mut bound = e.f.fetch_cycle + cfg.frontend_depth;
            let mut blocker = None;
            for &d in e.deps.iter().flatten() {
                match dep_bound(&rob, rob_base, d, now) {
                    UNISSUED => {
                        blocker = Some(d.seq());
                        break;
                    }
                    b => bound = bound.max(b),
                }
            }
            if let Some(p) = blocker {
                if masks_on {
                    waiters[(p & 63) as usize] |= 1u64 << (e.f.seq & 63);
                    parked_mask |= 1u64 << i;
                }
                continue;
            }
            if bound > now {
                if masks_on {
                    issue_hints[(e.f.seq & 63) as usize] = bound;
                }
                continue;
            }
            let m = e.m;
            let fu = m.fu as usize;
            if fu_used[fu] >= fu_limit[fu] {
                continue; // structural hazards clear next cycle: no useful bound
            }
            fu_used[fu] += 1;
            progress = true;

            let (complete, outcome, alloc_mshr) = match m.kind {
                InstrMeta::KIND_LOAD => {
                    let probe = e.f.probe.expect("loads probe");
                    let t = hier.schedule_data(probe, now);
                    let outcome = t.start + cfg.hier.l1_latency;
                    (
                        t.complete,
                        outcome,
                        probe.level.is_l1_miss().then_some((probe.line, t.complete)),
                    )
                }
                InstrMeta::KIND_PREFETCH => {
                    if let Some(probe) = e.f.probe {
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
            if masks_on {
                waiting_mask &= !(1u64 << i);
                issued_mask |= 1u64 << i;
                // Wake this producer's parked consumers. `min(complete,
                // outcome)` bounds both dependency kinds from below (see
                // `dep_bound`), so it seeds their hints. A consumer sits at
                // a higher ROB index than its producer, so it joins the rest
                // of this cycle's scan, as the polling scan would visit it.
                let mut woken = std::mem::take(&mut waiters[(e.f.seq & 63) as usize]);
                while woken != 0 {
                    let c_slot = woken.trailing_zeros() as u64;
                    woken &= woken - 1;
                    // The ROB spans at most 64 contiguous seqs, so the
                    // consumer's seq residue gives its position.
                    let c = (c_slot.wrapping_sub(rob_base) & 63) as usize;
                    parked_mask &= !(1u64 << c);
                    wscan |= 1u64 << c;
                    issue_hints[c_slot as usize] = complete.min(outcome);
                }
            }
            let e = &mut rob[i];
            e.state = EState::Issued;
            e.issue_cycle = now;
            e.complete_cycle = complete;
            e.outcome_cycle = outcome;
            obs.record(now, EventKind::Issue { seq: e.f.seq });
            if let Some((line, fill)) = alloc_mshr {
                let fresh = mshrs.find(line).is_none();
                if let Some(id) = mshrs.allocate(line) {
                    e.mshr = Some(id);
                    if fresh {
                        fills.push(fill, id);
                        obs.record(now, EventKind::MshrAllocate { line });
                    } else {
                        obs.record(now, EventKind::MshrMerge { line });
                    }
                }
            }
            if m.flags & ckpt_flags != 0 {
                ckpt_release_q.push(e.outcome_cycle, ());
            }
            if e.f.resolve == Resolve::AtExecute {
                resolve_q.push_keyed(e.outcome_cycle, e.f.seq, e.f.seq);
            }
        }

        // ---- 7. Dispatch ----
        let mut d = 0;
        while d < cfg.issue_width {
            if rob.len() >= cfg.rob_entries as usize {
                break;
            }
            let Some(f) = fetch_q.front() else { break };
            let m = *cache.meta_at(f.pc).expect("fetched pcs are in the text segment");
            let needs_ckpt = m.flags & ckpt_flags != 0;
            if needs_ckpt && checkpoints_in_use >= cfg.max_checkpoints {
                break;
            }
            let f = fetch_q.pop_front().expect("front exists");
            if needs_ckpt {
                checkpoints_in_use += 1;
            }
            let mut deps: [Option<Dep>; 3] = [None; 3];
            let mut n = 0;
            for src in [m.src1, m.src2] {
                if src == NO_REG {
                    continue;
                }
                if let Some(seq) = last_writer[src as usize] {
                    deps[n] = Some(Dep::Value(seq));
                    n += 1;
                }
            }
            if let Some(cc) = f.cc_dep {
                deps[n] = Some(Dep::Outcome(cc));
            }
            if m.dest != NO_REG {
                last_writer[m.dest as usize] = Some(f.seq);
            }
            debug_assert_eq!(f.seq, rob_base + rob.len() as u64, "seq contiguity");
            if masks_on {
                waiting_mask |= 1u64 << rob.len();
                issue_hints[(f.seq & 63) as usize] = 0;
                waiters[(f.seq & 63) as usize] = 0;
            }
            rob.push_back(Entry {
                f,
                m,
                state: EState::Waiting,
                deps,
                complete_cycle: u64::MAX,
                outcome_cycle: u64::MAX,
                mshr: None,
                dispatch_cycle: now,
                issue_cycle: u64::MAX,
            });
            d += 1;
            progress = true;
        }

        // ---- 8. Fetch ----
        if fetch_q.len() < 2 * cfg.issue_width as usize {
            let before = fetch_q.len();
            if fast {
                if fe.fetch_ready(now) {
                    fe.fetch_fast(now, cfg.issue_width, &mut hier, &mut fetch_q, obs)?;
                }
            } else {
                fetch_buf.clear();
                fe.fetch(now, cfg.issue_width, &mut hier, &mut fetch_buf, obs)?;
                fetch_q.extend(fetch_buf.drain(..));
            }
            if fetch_q.len() > before {
                progress = true;
            }
        }

        // ---- 9. Termination / limits ----
        if fe.halted() && rob.is_empty() && fetch_q.is_empty() {
            // Halt graduated in a previous iteration (done flag), or the
            // program ended in an unusual state; either way we are finished.
            break;
        }
        if graduated_total >= limits.max_instructions {
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
            for e in rob.iter() {
                match e.state {
                    // `outcome_cycle` can precede completion (a miss's early
                    // tag probe) or follow it (a store's tag probe after its
                    // 1-cycle address generation); either way it readies
                    // `Dep::Outcome` consumers, so when the program has
                    // condition-code branches it is a wake-up source of its
                    // own.
                    EState::Issued => {
                        h.consider(e.complete_cycle);
                        if has_cc_consumers {
                            h.consider(e.outcome_cycle);
                        }
                    }
                    EState::Waiting => h.consider(e.f.fetch_cycle + cfg.frontend_depth),
                    EState::Complete => {
                        if has_cc_consumers {
                            h.consider(e.outcome_cycle);
                        }
                    }
                }
            }
            h.consider_opt(resolve_q.next_due());
            h.consider_opt(ckpt_release_q.next_due());
            h.consider_opt(fills.next_due());
            if !fe.halted() && fe.blocked_on().is_none() {
                h.consider(fe.resume_at());
            }
            if rob.front().is_some_and(|hd| {
                hd.state == EState::Complete && hd.m.kind == InstrMeta::KIND_STORE
            }) {
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
                let head_is_miss_stall = rob.front().is_some_and(|hd| {
                    hd.state != EState::Complete
                        && hd.m.flags & InstrMeta::DATA_REF != 0
                        && hd.f.probe.is_some_and(|p| p.level.is_l1_miss())
                });
                if head_is_miss_stall {
                    slots.cache_stall += lost;
                } else {
                    slots.other_stall += lost;
                }
                if O::ON {
                    // The skipped cycles would each have graduated nothing
                    // with this exact (frozen) machine state.
                    cpi.add(classify(&rob, &fe), skipped);
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
        instructions: graduated_total,
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
