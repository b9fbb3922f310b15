//! The in-order-issue processor model (Alpha-21164-like, §3.1).
//!
//! A 4-issue machine with the 21164's stall discipline: register dependences
//! are enforced *before* issue (presence bits), instructions cannot stall
//! once issued, and consumers of loads are issued speculatively at cache-hit
//! timing. When the load actually missed, the machine takes a **replay
//! trap**: the pipeline is flushed and the consumer re-enters issue, timed so
//! that it restarts roughly when the data arrives from the secondary cache —
//! modelled here by delaying the consumer's issue to
//! `max(data_ready, miss_detect + replay_trap_penalty)`.
//!
//! Informing traps reuse the same replay mechanism (the paper's §3.1
//! implementation): the trap redirects fetch as soon as the miss is detected,
//! paying a pipeline-refill penalty like a mispredicted branch.
//!
//! Per Table 1 the machine has 2 INT units (which also execute loads and
//! stores, as on the real 21164), 2 FP units and 1 branch unit, and issue is
//! strictly in order: the window stalls at the first instruction that cannot
//! issue.

use std::collections::VecDeque;

use imo_isa::{BlockCache, FuClass, Instr, InstrMeta, Program, NO_REG};
use imo_mem::{HitLevel, MemoryHierarchy};
use imo_obs::{CpiCategory, CpiStack, EventKind, NoObs, Observer, Recorder};
use imo_util::json::Json;
use imo_util::snapshot::{self, Snapshot as _, SnapshotError};

use crate::ckpt;
use crate::config::InOrderConfig;
use crate::config::TrapModel;
use crate::frontend::{FetchSink, Fetched, FrontEnd, PlainRun, Resolve};
use crate::result::{MemCounters, RunLimits, RunOutcome, RunResult, SimError, SlotBreakdown};
use crate::sched::{Horizon, WakeupQueue};

/// Per-logical-register scoreboard state.
#[derive(Debug, Clone, Copy, Default)]
struct RegState {
    /// Cycle at which the value is available to consumers.
    ready: u64,
    /// Earliest cycle a consumer may (re-)issue if the producing load missed
    /// (replay-trap restart floor); 0 when the producer hit or was not a
    /// load.
    replay_floor: u64,
    /// The producer was a load that missed in the primary data cache and the
    /// data has not yet arrived (used for stall attribution).
    miss_pending: bool,
    /// The pending miss goes all the way to main memory (CPI-stack depth).
    miss_to_mem: bool,
}

/// Classifies a zero-issue cycle for the CPI stack. The trap check precedes
/// the miss check so handler-redirect bubbles land in `Handler` even when a
/// missed load is also blocking issue.
fn stall_category(on_trap: bool, on_miss: bool, miss_to_mem: bool) -> CpiCategory {
    if on_trap {
        CpiCategory::Handler
    } else if on_miss {
        if miss_to_mem {
            CpiCategory::L2Miss
        } else {
            CpiCategory::L1Miss
        }
    } else {
        CpiCategory::IssueStall
    }
}

/// Splits a folded window `[from, to)` into the segments the tick-accurate
/// loop classifies alike. Nothing issues in the window, so the parked
/// head's sources `srcs` are frozen, and source `s` blocks on its miss at
/// cycle `c` iff its miss is pending and `c < regs[s].ready`: the class
/// changes only at those `ready` cycles, so there are at most three
/// segments. Yields `(cycles, on_miss, miss_to_mem)` per segment.
fn window_segments(
    regs: &[RegState; 64],
    srcs: [u8; 2],
    from: u64,
    to: u64,
) -> impl Iterator<Item = (u64, bool, bool)> + '_ {
    // `NO_REG` falls outside `regs`, so absent sources never block.
    let ends = srcs.map(|s| regs.get(s as usize).filter(|r| r.miss_pending).map_or(0, |r| r.ready));
    let mut lo = from;
    std::iter::from_fn(move || {
        if lo >= to {
            return None;
        }
        let start = lo;
        lo = ends.into_iter().filter(|&e| e > start).fold(to, u64::min);
        // As in the issue loop, the last blocking source sets the depth.
        let to_mem = match (ends[0] > start, ends[1] > start) {
            (_, true) => Some(regs[srcs[1] as usize].miss_to_mem),
            (true, false) => Some(regs[srcs[0] as usize].miss_to_mem),
            (false, false) => None,
        };
        Some((lo - start, to_mem.is_some(), to_mem.unwrap_or(false)))
    })
}

/// The fast path's split fetch queue: batch-fetched plain instructions stay
/// as compact [`PlainRun`] descriptors while batch-breaking instructions
/// (memory ops, control transfers, informing traps) are materialized in
/// full. Both deques are individually sequence-ordered, so the true queue
/// head is whichever front carries the lower sequence number. `total`
/// tracks the summed pending-instruction count so the fetch gate sees the
/// same queue depth as the generic path.
struct FastQueue {
    runs: VecDeque<PlainRun>,
    full: VecDeque<Fetched>,
    total: usize,
}

impl FastQueue {
    fn from_restored(full: VecDeque<Fetched>) -> FastQueue {
        let total = full.len();
        FastQueue { runs: VecDeque::with_capacity(8), full, total }
    }

    /// Re-materializes the interleaved `VecDeque<Fetched>` the generic loop
    /// would hold at this boundary, for checkpoint encoding. Plain entries
    /// are fully derivable from their run descriptor plus the program text
    /// (no probe, no resolve, no trap, no condition-code dependence).
    fn materialize(&self, instrs: &[Instr]) -> VecDeque<Fetched> {
        let mut out = VecDeque::with_capacity(self.total);
        let mut runs = self.runs.iter().peekable();
        let mut full = self.full.iter().peekable();
        loop {
            let take_run = match (runs.peek(), full.peek()) {
                (Some(r), Some(f)) => r.seq < f.seq,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_run {
                let r = runs.next().expect("peeked");
                out.push_plain(instrs, r.idx as usize, r.pc, r.seq, r.len, r.fetch_cycle);
            } else {
                out.push_back(*full.next().expect("peeked"));
            }
        }
        out
    }
}

impl FetchSink for FastQueue {
    fn push_plain(
        &mut self,
        _instrs: &[Instr],
        idx: usize,
        pc: u64,
        seq0: u64,
        k: u32,
        cycle: u64,
    ) {
        self.runs.push_back(PlainRun {
            seq: seq0,
            pc,
            fetch_cycle: cycle,
            idx: idx as u32,
            len: k,
        });
        self.total += k as usize;
    }

    fn push_full(&mut self, f: Fetched) {
        self.full.push_back(f);
        self.total += 1;
    }
}

/// Encodes every `run`-loop local at a cycle boundary (the checkpoint body).
#[allow(clippy::too_many_arguments)]
fn encode_loop(
    hier: &MemoryHierarchy,
    fe: &FrontEnd,
    regs: &[RegState; 64],
    queue: &VecDeque<Fetched>,
    resolve_q: &WakeupQueue<u64>,
    last_mem_outcome: u64,
    now: u64,
    slots: SlotBreakdown,
    cpi: &CpiStack,
) -> Json {
    let ready: Vec<u64> = regs.iter().map(|r| r.ready).collect();
    let floor: Vec<u64> = regs.iter().map(|r| r.replay_floor).collect();
    let mut pending: u64 = 0;
    let mut to_mem: u64 = 0;
    for (i, r) in regs.iter().enumerate() {
        if r.miss_pending {
            pending |= 1 << i;
        }
        if r.miss_to_mem {
            to_mem |= 1 << i;
        }
    }
    Json::obj([
        ("hier", hier.to_wire()),
        ("fe", fe.encode()),
        ("reg_ready", snapshot::u64s_json(&ready)),
        ("reg_floor", snapshot::u64s_json(&floor)),
        ("reg_pending", snapshot::u64_json(pending)),
        ("reg_to_mem", snapshot::u64_json(to_mem)),
        ("queue", Json::arr(queue.iter().map(ckpt::fetched_json))),
        ("resolve_q", ckpt::wakeup_json(resolve_q, |&s| s)),
        ("last_mem_outcome", snapshot::u64_json(last_mem_outcome)),
        ("now", snapshot::u64_json(now)),
        ("slots", ckpt::slots_json(slots)),
        ("cpi", ckpt::cpi_json(cpi)),
    ])
}

fn decode_regs(body: &Json) -> Result<[RegState; 64], SnapshotError> {
    let ready = snapshot::get_u64s(body, "reg_ready")?;
    let floor = snapshot::get_u64s(body, "reg_floor")?;
    if ready.len() != 64 || floor.len() != 64 {
        return Err(SnapshotError::Bad("reg_ready"));
    }
    let pending = snapshot::get_u64(body, "reg_pending")?;
    let to_mem = snapshot::get_u64(body, "reg_to_mem")?;
    let mut regs = [RegState::default(); 64];
    for (i, r) in regs.iter_mut().enumerate() {
        *r = RegState {
            ready: ready[i],
            replay_floor: floor[i],
            miss_pending: pending >> i & 1 == 1,
            miss_to_mem: to_mem >> i & 1 == 1,
        };
    }
    Ok(regs)
}

/// Checks a restored fetch queue's shape: fewer than three fetch groups'
/// worth of entries (the fetch gate stops at two), contiguous sequence
/// numbers, and ending at the last instruction the restored front end
/// fetched.
fn check_queue(
    cfg: &InOrderConfig,
    queue: &VecDeque<Fetched>,
    fe: &FrontEnd,
) -> Result<(), SnapshotError> {
    let tail = fe.next_seq();
    let ok = queue.len() < 3 * cfg.issue_width as usize
        && queue
            .iter()
            .rev()
            .enumerate()
            .all(|(i, f)| f.seq.checked_add(i as u64 + 1) == Some(tail));
    if ok {
        Ok(())
    } else {
        Err(SnapshotError::Bad("queue"))
    }
}

/// Runs `program` from its entry, or from the checkpoint body `resume`,
/// until it completes or reaches the first cycle boundary at or after
/// `stop_at`.
pub(crate) fn run(
    program: &Program,
    cfg: &InOrderConfig,
    limits: RunLimits,
    stop_at: Option<u64>,
    obs: Option<&mut Recorder>,
    resume: Option<&Json>,
) -> Result<RunOutcome, SimError> {
    match obs {
        Some(rec) => run_with(program, cfg, limits, stop_at, rec, resume),
        None => run_with(program, cfg, limits, stop_at, &mut NoObs, resume),
    }
}

#[allow(clippy::too_many_lines)]
fn run_with<O: Observer>(
    program: &Program,
    cfg: &InOrderConfig,
    limits: RunLimits,
    stop_at: Option<u64>,
    obs: &mut O,
    resume: Option<&Json>,
) -> Result<RunOutcome, SimError> {
    // The in-order machine's informing traps always redirect at miss
    // detection (replay-trap style); the trap model distinction is an
    // out-of-order concern, so fix `Branch` here.
    let mut hier;
    let mut fe;
    let mut regs;
    let mut queue: VecDeque<Fetched>;
    let mut resolve_q: WakeupQueue<u64>; // seq due at cycle
                                         // Outcome (hit/miss known) cycle of the most recent issued data
                                         // reference, consumed by `bmiss`.
    let mut last_mem_outcome: u64;
    let mut now: u64;
    let mut issued_total: u64;
    let mut slots;
    let mut cpi;
    if let Some(body) = resume {
        hier = MemoryHierarchy::from_wire(snapshot::field(body, "hier")?)?;
        fe = FrontEnd::restore(
            program,
            cfg.predictor_entries,
            TrapModel::Branch,
            cfg.hier.l1i.line_bytes,
            snapshot::field(body, "fe")?,
        )?;
        regs = decode_regs(body)?;
        queue = snapshot::field(body, "queue")?
            .as_arr()
            .ok_or(SnapshotError::Bad("queue"))?
            .iter()
            .map(|j| ckpt::decode_fetched(program, j))
            .collect::<Result<_, _>>()?;
        check_queue(cfg, &queue, &fe)?;
        resolve_q = ckpt::decode_wakeup(snapshot::field(body, "resolve_q")?, "resolve_q", Ok)?;
        last_mem_outcome = snapshot::get_u64(body, "last_mem_outcome")?;
        now = snapshot::get_u64(body, "now")?;
        // Every fetched instruction not in the queue has issued
        // (`check_queue` bounds the queue by `next_seq`).
        issued_total = fe.next_seq() - queue.len() as u64;
        slots = ckpt::decode_slots(snapshot::field(body, "slots")?)?;
        cpi = ckpt::decode_cpi(snapshot::field(body, "cpi")?)?;
    } else {
        hier = MemoryHierarchy::new(cfg.hier);
        fe = FrontEnd::new(
            program,
            cfg.predictor_entries,
            TrapModel::Branch,
            cfg.hier.l1i.line_bytes,
        );
        regs = [RegState::default(); 64];
        queue = VecDeque::with_capacity(2 * cfg.issue_width as usize);
        // At most one pending redirect resolution per queued instruction.
        resolve_q = WakeupQueue::with_capacity(2 * cfg.issue_width as usize);
        last_mem_outcome = 0;
        now = 0;
        issued_total = 0;
        slots = SlotBreakdown::default();
        cpi = CpiStack::default();
    }
    let mut fetch_buf: Vec<Fetched> = Vec::with_capacity(cfg.issue_width as usize);

    let width = cfg.issue_width as u64;
    let mut done = false;

    // Fast path: event-driven runs, observed or not, take a specialized
    // loop body driven by the pre-decoded block cache — batched
    // straight-line fetch, table-driven issue, and a pending-miss bitmask
    // in place of the per-cycle register scan. The observer is a type
    // parameter, so an unobserved run compiles its hooks out. Tick-accurate
    // runs keep the generic body below as the bit-identity reference
    // (`tests/fastforward_identity.rs` compares the two).
    let fast = !limits.force_tick_accurate;
    let cache = fast.then(|| BlockCache::build(program, |i| cfg.latency(i)));
    if let Some(cache) = &cache {
        fe.attach_blocks(cache);
        // Invariant: bit i set ⇔ regs[i].miss_pending (rebuilt on resume).
        let mut pending_mask: u64 = 0;
        for (i, r) in regs.iter().enumerate() {
            if r.miss_pending {
                pending_mask |= 1 << i;
            }
        }
        // Restored entries (if any) enter fully materialized; new fetches
        // keep plain runs compact. The generic loop below never runs once
        // the fast loop is engaged (its only normal exit sets `done`), so
        // taking `queue` is safe.
        let mut fq = FastQueue::from_restored(std::mem::take(&mut queue));
        // Memoized head-entry metadata: the issue loop polls the same queue
        // head ~2× on average before it issues (stall cycles re-poll it), so
        // the pc→meta table lookup is cached keyed by sequence number.
        let mut head_meta: (u64, InstrMeta) = (
            u64::MAX,
            InstrMeta {
                src1: NO_REG,
                src2: NO_REG,
                dest: NO_REG,
                fu: 0,
                kind: 0,
                flags: 0,
                lat: 0,
            },
        );
        // Parked head: `(seq, wake)` of the head whose last readiness poll
        // failed, and the cycle its sources become ready. Sequence numbers
        // never repeat, so a stale entry can never match a later head.
        let mut pending_issue: (u64, u64) = (u64::MAX, 0);
        let stop_gate = stop_at.unwrap_or(u64::MAX);
        // Resolutions popped by the preamble count as progress for the
        // iteration that follows (carried across the preamble/body split).
        let mut resolved = false;
        while !done {
            if now >= stop_gate {
                crate::speed::flush(fe.stats());
                let q = fq.materialize(program.instrs());
                return Ok(RunOutcome::Paused {
                    cycle: now,
                    body: encode_loop(
                        &hier,
                        &fe,
                        &regs,
                        &q,
                        &resolve_q,
                        last_mem_outcome,
                        now,
                        slots,
                        &cpi,
                    ),
                });
            }
            // ---- Front-end resolutions due ----
            while let Some((t, seq)) = resolve_q.pop_due(now) {
                fe.resolve(seq, t, cfg.redirect_penalty);
                resolved = true;
            }

            // Hot inner loop: an iteration that parks on a definite
            // next-cycle wake-up with no resolution or pause boundary due
            // re-enters here directly, skipping the preamble above.
            'hot: loop {
                let mut progress = resolved;
                resolved = false;

                // ---- In-order issue (meta-table-driven) ----
                let mut int_used = 0u32;
                let mut fp_used = 0u32;
                let mut br_used = 0u32;
                let mut issued: u64 = 0;
                // Why issue stopped, for slot attribution (the miss depth
                // only feeds the CPI stack).
                let mut blocked_on_miss = false;
                let mut blocked_miss_to_mem = false;
                let mut next_wakeup: u64 = u64::MAX;
                // Sources of the head entry whose failed readiness poll parked
                // the issue loop; they classify the cycles a fold skips.
                let mut stall_srcs: [u8; 2] = [NO_REG, NO_REG];

                while issued < width {
                    // The true head is whichever queue front has the lower
                    // sequence number (both deques are seq-ordered).
                    let plain_head = match (fq.runs.front(), fq.full.front()) {
                        (Some(r), Some(f)) if r.seq > f.seq => None,
                        (Some(r), _) => Some(*r),
                        (None, Some(_)) => None,
                        (None, None) => break,
                    };
                    if let Some(r) = plain_head {
                        // Plain head: never a memory op, branch, informing op
                        // or halt — no probe, no resolve, no `bmiss` wait.
                        //
                        // If this head's previous poll parked the issue loop at
                        // cycle `T` with wake-up `R` (recorded in
                        // `pending_issue`), nothing can have changed while it
                        // was parked: issue is strictly in order, so no
                        // register was written and no memory op issued. A
                        // first-slot re-poll at `now >= R` therefore passes the
                        // depth, unit (all counters zero) and readiness checks
                        // by construction and goes straight to the issue arm.
                        let skip =
                            issued == 0 && r.seq == pending_issue.0 && now >= pending_issue.1;
                        if !skip && r.fetch_cycle + cfg.frontend_depth > now {
                            next_wakeup = next_wakeup.min(r.fetch_cycle + cfg.frontend_depth);
                            break;
                        }
                        let m = cache.meta_idx(r.idx as usize);
                        debug_assert!(m.is_plain());
                        if !skip {
                            let fu_ok = match m.fu {
                                0 | 3 => int_used < cfg.int_units,
                                1 => fp_used < cfg.fp_units,
                                _ => br_used < cfg.branch_units,
                            };
                            if !fu_ok {
                                break;
                            }
                            let mut ready_at: u64 = 0;
                            for s in [m.src1, m.src2] {
                                if s == NO_REG {
                                    continue;
                                }
                                let rs = &regs[s as usize];
                                ready_at = ready_at.max(rs.ready).max(rs.replay_floor);
                                if rs.ready > now && rs.miss_pending {
                                    blocked_on_miss = true;
                                    if O::ON {
                                        blocked_miss_to_mem = rs.miss_to_mem;
                                    }
                                }
                            }
                            if ready_at > now {
                                next_wakeup = next_wakeup.min(ready_at);
                                stall_srcs = [m.src1, m.src2];
                                pending_issue = (r.seq, ready_at);
                                break;
                            }
                            blocked_on_miss = false; // it issued after all
                            blocked_miss_to_mem = false;
                        }
                        obs.record(now, EventKind::Issue { seq: r.seq });
                        match m.fu {
                            0 | 3 => int_used += 1,
                            1 => fp_used += 1,
                            _ => br_used += 1,
                        }
                        if m.dest != NO_REG {
                            regs[m.dest as usize] = RegState {
                                ready: now + u64::from(m.lat),
                                replay_floor: 0,
                                miss_pending: false,
                                miss_to_mem: false,
                            };
                            pending_mask &= !(1 << m.dest);
                        }
                        // Advance the run in place; drop it once drained.
                        let head = fq.runs.front_mut().expect("plain head exists");
                        head.seq += 1;
                        head.pc += 4;
                        head.idx += 1;
                        head.len -= 1;
                        if head.len == 0 {
                            fq.runs.pop_front();
                        }
                        fq.total -= 1;
                        issued += 1;
                        issued_total += 1;
                        progress = true;
                        continue;
                    }
                    let f = fq.full.front().expect("full head exists");
                    // Same parked-head shortcut as the plain path above.
                    let skip = issued == 0 && f.seq == pending_issue.0 && now >= pending_issue.1;
                    if !skip && f.fetch_cycle + cfg.frontend_depth > now {
                        next_wakeup = next_wakeup.min(f.fetch_cycle + cfg.frontend_depth);
                        break;
                    }
                    let m = if head_meta.0 == f.seq {
                        head_meta.1
                    } else {
                        let m = *cache.meta_at(f.pc).expect("queued pc is in text");
                        head_meta = (f.seq, m);
                        m
                    };
                    if !skip {
                        let fu_ok = match m.fu {
                            0 | 3 => int_used < cfg.int_units,
                            1 => fp_used < cfg.fp_units,
                            _ => br_used < cfg.branch_units,
                        };
                        if !fu_ok {
                            break;
                        }
                        let mut ready_at: u64 = 0;
                        for s in [m.src1, m.src2] {
                            if s == NO_REG {
                                continue;
                            }
                            let r = &regs[s as usize];
                            ready_at = ready_at.max(r.ready).max(r.replay_floor);
                            if r.ready > now && r.miss_pending {
                                blocked_on_miss = true;
                                if O::ON {
                                    blocked_miss_to_mem = r.miss_to_mem;
                                }
                            }
                        }
                        if m.flags & InstrMeta::BMISS != 0 {
                            ready_at = ready_at.max(last_mem_outcome);
                        }
                        if ready_at > now {
                            next_wakeup = next_wakeup.min(ready_at);
                            stall_srcs = [m.src1, m.src2];
                            pending_issue = (f.seq, ready_at);
                            break;
                        }
                        blocked_on_miss = false; // it issued after all
                        blocked_miss_to_mem = false;
                    }

                    // Copy out the fields the issue arms need, then drop the
                    // entry in place — popping the full ~96-byte `Fetched` by
                    // value would memcpy it for nothing.
                    let (seq, probe, resolve) = (f.seq, f.probe, f.resolve);
                    let (trap, fetch_cycle) = (f.informing_trap, f.fetch_cycle);
                    obs.record(now, EventKind::Issue { seq });
                    if matches!(f.instr, Instr::JumpMhrr) {
                        obs.record(now, EventKind::TrapReturn { seq });
                    }
                    let _ = fq.full.pop_front();
                    fq.total -= 1;
                    match m.fu {
                        0 | 3 => int_used += 1,
                        1 => fp_used += 1,
                        _ => br_used += 1,
                    }

                    let mut outcome_cycle = now + 1;
                    match m.kind {
                        InstrMeta::KIND_LOAD => {
                            let probe = probe.expect("loads probe");
                            let t = hier.schedule_data(probe, now);
                            outcome_cycle = t.start + cfg.hier.l1_latency;
                            last_mem_outcome = outcome_cycle;
                            obs.observe("cpu.load_to_use", t.complete.saturating_sub(now));
                            if m.dest != NO_REG {
                                let miss = probe.level.is_l1_miss();
                                regs[m.dest as usize] = RegState {
                                    ready: t.complete,
                                    replay_floor: if miss {
                                        outcome_cycle + cfg.replay_trap_penalty
                                    } else {
                                        0
                                    },
                                    miss_pending: miss,
                                    miss_to_mem: miss && probe.level == HitLevel::Memory,
                                };
                                if miss {
                                    pending_mask |= 1 << m.dest;
                                } else {
                                    pending_mask &= !(1 << m.dest);
                                }
                            }
                        }
                        InstrMeta::KIND_STORE => {
                            let probe = probe.expect("stores probe");
                            let t = hier.schedule_data(probe, now);
                            outcome_cycle = t.start + cfg.hier.l1_latency;
                            last_mem_outcome = outcome_cycle;
                        }
                        InstrMeta::KIND_PREFETCH => {
                            if let Some(probe) = probe {
                                let _ = hier.schedule_data(probe, now);
                            }
                        }
                        InstrMeta::KIND_HALT => {
                            done = true;
                        }
                        _ => {
                            if m.dest != NO_REG {
                                regs[m.dest as usize] = RegState {
                                    ready: now + u64::from(m.lat),
                                    replay_floor: 0,
                                    miss_pending: false,
                                    miss_to_mem: false,
                                };
                                pending_mask &= !(1 << m.dest);
                            }
                        }
                    }

                    match resolve {
                        Resolve::None => {}
                        Resolve::AtExecute | Resolve::AtGraduate => {
                            let due = if m.flags & InstrMeta::DATA_REF != 0 {
                                outcome_cycle
                            } else {
                                now
                            };
                            if trap {
                                obs.observe(
                                    "cpu.trap_redirect",
                                    due.max(now).saturating_sub(fetch_cycle),
                                );
                            }
                            if due <= now {
                                fe.resolve(seq, now, cfg.redirect_penalty);
                            } else {
                                resolve_q.push_keyed(due, seq, seq);
                            }
                        }
                    }

                    issued += 1;
                    issued_total += 1;
                    progress = true;
                    if done {
                        break;
                    }
                }

                // Clear stale miss_pending flags, visiting only set mask bits.
                let mut mbits = pending_mask;
                while mbits != 0 {
                    let i = mbits.trailing_zeros() as usize;
                    mbits &= mbits - 1;
                    if regs[i].ready <= now {
                        regs[i].miss_pending = false;
                        pending_mask &= !(1u64 << i);
                    }
                }

                slots.busy += issued;
                if issued < width && !done {
                    let lost = width - issued;
                    if blocked_on_miss {
                        slots.cache_stall += lost;
                    } else {
                        slots.other_stall += lost;
                    }
                }
                // One CPI-stack cycle per iteration, as in the generic loop;
                // the fold below attributes the cycles it skips.
                if O::ON {
                    if issued > 0 {
                        cpi.add(CpiCategory::Base, 1);
                    } else {
                        cpi.add(
                            stall_category(
                                fe.blocked_on_trap(),
                                blocked_on_miss,
                                blocked_miss_to_mem,
                            ),
                            1,
                        );
                    }
                }
                if done {
                    break;
                }

                // ---- Fetch (block-batched) ----
                if fq.total < 2 * cfg.issue_width as usize && fe.fetch_ready(now) {
                    let before = fq.total;
                    fe.fetch_fast(now, cfg.issue_width, &mut hier, &mut fq, obs)?;
                    if fq.total > before {
                        progress = true;
                    }
                }

                // ---- Limits ----
                if issued_total >= limits.max_instructions {
                    return Err(SimError::InstructionLimit(limits.max_instructions));
                }
                if now >= limits.max_cycles {
                    return Err(SimError::CycleLimit(limits.max_cycles));
                }

                // ---- Advance time (with fast-forward over quiet cycles) ----
                if progress && next_wakeup == now + 1 {
                    // Parked exactly one cycle out (dependence chains in
                    // dense code). The fold below would pick `next = now + 1`
                    // with zero skipped cycles, so only the advance remains —
                    // and if no resolution or pause boundary lands on that
                    // cycle, the next iteration's preamble would be a no-op:
                    // skip it.
                    now += 1;
                    if now < stop_gate && resolve_q.next_due().is_none_or(|d| d > now) {
                        continue 'hot;
                    }
                    break 'hot;
                }
                if progress && next_wakeup == u64::MAX {
                    now += 1;
                    break 'hot;
                }
                // Fold to the next wake-up. After a progress iteration that
                // parked on a definite head stall, the following cycle would
                // poll, fail, and fold with the same candidates (the head's
                // `ready_at` and the queues are unchanged by idle cycles; the
                // front end gets a floor of `now + 1`, the earliest it could
                // act again), so the fold happens now instead.
                let mut h = Horizon::new(now);
                if next_wakeup != u64::MAX {
                    h.consider(next_wakeup);
                }
                h.consider_opt(resolve_q.next_due());
                if !fe.halted() && fe.blocked_on().is_none() {
                    let floor = if progress { now + 1 } else { 0 };
                    h.consider(fe.resume_at().max(floor));
                }
                let Some(next) = h.earliest() else {
                    return Err(SimError::Deadlock { cycle: now });
                };
                if next > now + 1 {
                    let on_trap = fe.blocked_on_trap();
                    for (cycles, on_miss, to_mem) in
                        window_segments(&regs, stall_srcs, now + 1, next)
                    {
                        let lost = cycles * width;
                        if on_miss {
                            slots.cache_stall += lost;
                        } else {
                            slots.other_stall += lost;
                        }
                        if O::ON {
                            cpi.add(stall_category(on_trap, on_miss, to_mem), cycles);
                        }
                    }
                }
                now = next;
                break 'hot;
            }
        }
    }

    // The generic body: the tick-accurate reference, one iteration per
    // cycle.
    while !done {
        // Checkpoint boundary: pause before this cycle mutates anything, so
        // a resumed run re-enters the loop with bit-identical state.
        if stop_at.is_some_and(|stop| now >= stop) {
            return Ok(RunOutcome::Paused {
                cycle: now,
                body: encode_loop(
                    &hier,
                    &fe,
                    &regs,
                    &queue,
                    &resolve_q,
                    last_mem_outcome,
                    now,
                    slots,
                    &cpi,
                ),
            });
        }
        let mut progress = false;

        // ---- Front-end resolutions due ----
        while let Some((t, seq)) = resolve_q.pop_due(now) {
            fe.resolve(seq, t, cfg.redirect_penalty);
            progress = true;
        }

        // ---- In-order issue ----
        let mut int_used = 0u32;
        let mut fp_used = 0u32;
        let mut br_used = 0u32;
        let mut issued: u64 = 0;
        // Why issue stopped, for slot attribution.
        let mut blocked_on_miss = false;
        let mut blocked_miss_to_mem = false;
        let mut next_wakeup: u64 = u64::MAX;

        while issued < width {
            let Some(f) = queue.front() else { break };
            if f.fetch_cycle + cfg.frontend_depth > now {
                next_wakeup = next_wakeup.min(f.fetch_cycle + cfg.frontend_depth);
                break;
            }
            // Structural: FU availability (loads/stores share INT pipes).
            let fu_ok = match f.instr.fu_class() {
                FuClass::Int | FuClass::Mem => int_used < cfg.int_units,
                FuClass::Fp => fp_used < cfg.fp_units,
                FuClass::Branch => br_used < cfg.branch_units,
            };
            if !fu_ok {
                break;
            }
            // Presence bits: all sources ready; missed-load producers impose
            // the replay-trap restart floor.
            let mut ready_at: u64 = 0;
            for src in f.instr.sources() {
                let r = &regs[src.logical()];
                ready_at = ready_at.max(r.ready).max(r.replay_floor);
                if r.ready > now && r.miss_pending {
                    blocked_on_miss = true;
                    blocked_miss_to_mem = r.miss_to_mem;
                }
            }
            if matches!(f.instr, Instr::BranchOnMiss { .. }) {
                ready_at = ready_at.max(last_mem_outcome);
            }
            if ready_at > now {
                next_wakeup = next_wakeup.min(ready_at);
                break;
            }
            blocked_on_miss = false; // it issued after all
            blocked_miss_to_mem = false;

            let f = queue.pop_front().expect("front exists");
            obs.record(now, EventKind::Issue { seq: f.seq });
            if matches!(f.instr, Instr::JumpMhrr) {
                obs.record(now, EventKind::TrapReturn { seq: f.seq });
            }
            match f.instr.fu_class() {
                FuClass::Int | FuClass::Mem => int_used += 1,
                FuClass::Fp => fp_used += 1,
                FuClass::Branch => br_used += 1,
            }

            // Execute in the timing model.
            let mut outcome_cycle = now + 1;
            match f.instr {
                Instr::Load { .. } => {
                    let probe = f.probe.expect("loads probe");
                    let t = hier.schedule_data(probe, now);
                    outcome_cycle = t.start + cfg.hier.l1_latency;
                    last_mem_outcome = outcome_cycle;
                    obs.observe("cpu.load_to_use", t.complete.saturating_sub(now));
                    if let Some(dst) = f.instr.dest() {
                        let miss = probe.level.is_l1_miss();
                        regs[dst.logical()] = RegState {
                            ready: t.complete,
                            replay_floor: if miss {
                                outcome_cycle + cfg.replay_trap_penalty
                            } else {
                                0
                            },
                            miss_pending: miss,
                            miss_to_mem: miss && probe.level == HitLevel::Memory,
                        };
                    }
                }
                Instr::Store { .. } => {
                    let probe = f.probe.expect("stores probe");
                    let t = hier.schedule_data(probe, now);
                    outcome_cycle = t.start + cfg.hier.l1_latency;
                    last_mem_outcome = outcome_cycle;
                }
                Instr::Prefetch { .. } => {
                    if let Some(probe) = f.probe {
                        let _ = hier.schedule_data(probe, now);
                    }
                }
                Instr::Halt => {
                    done = true;
                }
                ref other => {
                    let lat = cfg.latency(other);
                    if let Some(dst) = f.instr.dest() {
                        regs[dst.logical()] = RegState {
                            ready: now + lat,
                            replay_floor: 0,
                            miss_pending: false,
                            miss_to_mem: false,
                        };
                    }
                }
            }

            // Front-end unblocking: branches resolve at issue; informing
            // traps resolve when the miss is detected.
            match f.resolve {
                Resolve::None => {}
                Resolve::AtExecute | Resolve::AtGraduate => {
                    let due = if f.instr.is_data_ref() { outcome_cycle } else { now };
                    if f.informing_trap {
                        obs.observe(
                            "cpu.trap_redirect",
                            due.max(now).saturating_sub(f.fetch_cycle),
                        );
                    }
                    if due <= now {
                        fe.resolve(f.seq, now, cfg.redirect_penalty);
                    } else {
                        resolve_q.push_keyed(due, f.seq, f.seq);
                    }
                }
            }

            issued += 1;
            issued_total += 1;
            progress = true;
            if done {
                break;
            }
        }

        // Clear stale miss_pending flags (data has arrived).
        for r in regs.iter_mut() {
            if r.miss_pending && r.ready <= now {
                r.miss_pending = false;
            }
        }

        slots.busy += issued;
        if issued < width && !done {
            let lost = width - issued;
            if blocked_on_miss {
                slots.cache_stall += lost;
            } else {
                slots.other_stall += lost;
            }
        }
        // Exactly one CPI-stack cycle per loop iteration: this point runs
        // before every `break`, so the stack total always equals `cycles`.
        if O::ON {
            if issued > 0 {
                cpi.add(CpiCategory::Base, 1);
            } else {
                cpi.add(
                    stall_category(fe.blocked_on_trap(), blocked_on_miss, blocked_miss_to_mem),
                    1,
                );
            }
        }
        if done {
            break;
        }

        // ---- Fetch ----
        if queue.len() < 2 * cfg.issue_width as usize {
            let before = queue.len();
            fetch_buf.clear();
            fe.fetch(now, cfg.issue_width, &mut hier, &mut fetch_buf, obs)?;
            queue.extend(fetch_buf.drain(..));
            if queue.len() > before {
                progress = true;
            }
        }

        // ---- Limits ----
        if issued_total >= limits.max_instructions {
            return Err(SimError::InstructionLimit(limits.max_instructions));
        }
        if now >= limits.max_cycles {
            return Err(SimError::CycleLimit(limits.max_cycles));
        }

        // ---- Advance time ----
        if !progress {
            // The horizon is still computed so deadlock detection matches
            // the event-driven loop, but time advances one cycle.
            let mut h = Horizon::new(now);
            if next_wakeup != u64::MAX {
                h.consider(next_wakeup);
            }
            h.consider_opt(resolve_q.next_due());
            if !fe.halted() && fe.blocked_on().is_none() {
                h.consider(fe.resume_at());
            }
            if h.earliest().is_none() {
                return Err(SimError::Deadlock { cycle: now });
            }
        }
        now += 1;
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
        instructions: issued_total,
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
        Machine::default_in_order().run(p).expect("simulates")
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
        assert_eq!(res.slots.total(), res.cycles * 4);
    }

    #[test]
    fn issue_is_strictly_in_order() {
        // A long-latency divide followed by an independent add: in-order
        // issue lets the add go (it is later in program order but the divide
        // has no unready sources)... but a *consumer* of the divide blocks
        // everything behind it.
        let mut a = Asm::new();
        a.li(r(1), 100);
        a.li(r(2), 5);
        a.div(r(3), r(1), r(2));
        a.addi(r(4), r(3), 1); // consumer: stalls ~76 cycles
        a.li(r(5), 1); // behind the stall
        a.halt();
        let p = a.assemble().unwrap();
        let res = run(&p);
        assert!(res.cycles > 76, "divide latency exposed: {}", res.cycles);
    }

    #[test]
    fn load_miss_consumer_pays_replay_and_latency() {
        let mut a = Asm::new();
        a.li(r(1), 0x40_0000);
        a.load(r(2), r(1), 0); // cold miss to memory (50 cycles)
        a.addi(r(3), r(2), 1);
        a.halt();
        let p = a.assemble().unwrap();
        let res = run(&p);
        assert!(res.cycles >= 50, "miss latency dominates: {}", res.cycles);
        assert!(res.slots.cache_stall > 0, "stall attributed to cache: {:?}", res.slots);
    }

    #[test]
    fn hit_load_use_is_short() {
        let mut a = Asm::new();
        a.li(r(1), 0x40_0000);
        a.load(r(2), r(1), 0); // warm the line
        a.load(r(2), r(1), 8); // hit
        a.addi(r(3), r(2), 1);
        a.halt();
        let p = a.assemble().unwrap();
        let res = run(&p);
        assert!(res.cycles < 120, "{}", res.cycles);
    }

    #[test]
    fn informing_trap_redirects_to_handler() {
        let mut a = Asm::new();
        let hdl = a.label("h");
        a.set_mhar(hdl);
        a.li(r(1), 0x40_0000);
        a.load_inf(r(2), r(1), 0);
        a.halt();
        a.bind(hdl).unwrap();
        for _ in 0..10 {
            a.addi(r(20), r(20), 1);
        }
        a.jump_mhrr();
        let p = a.assemble().unwrap();
        let res = run(&p);
        assert_eq!(res.informing_traps, 1);
        assert_eq!(res.instructions, 4 + 11);
    }

    #[test]
    fn ten_instruction_handler_costs_more_than_one() {
        let build = |len: usize| {
            let mut a = Asm::new();
            let hdl = a.label("h");
            a.set_mhar(hdl);
            a.li(r(1), 0x40_0000);
            let top = a.label("top");
            a.li(r(2), 0);
            a.li(r(3), 100);
            a.bind(top).unwrap();
            a.load_inf(r(4), r(1), 0);
            a.addi(r(1), r(1), 4096);
            a.addi(r(2), r(2), 1);
            a.branch(Cond::Lt, r(2), r(3), top);
            a.halt();
            a.bind(hdl).unwrap();
            for _ in 0..len {
                a.addi(r(20), r(20), 1); // dependent chain
            }
            a.jump_mhrr();
            a.assemble().unwrap()
        };
        let one = run(&build(1));
        let ten = run(&build(10));
        assert_eq!(one.informing_traps, 100);
        assert!(
            ten.cycles > one.cycles,
            "10-instruction handler ({}) slower than 1 ({})",
            ten.cycles,
            one.cycles
        );
    }

    #[test]
    fn in_order_hides_less_than_out_of_order() {
        // The same miss-heavy kernel with 10-instruction handlers: the
        // in-order machine should lose more relative to its no-handler run
        // than the out-of-order machine (the paper's key Figure 2 contrast).
        let build = |informing: bool| {
            let mut a = Asm::new();
            let hdl = a.label("h");
            if informing {
                a.set_mhar(hdl);
            }
            a.li(r(1), 0x40_0000);
            let top = a.label("top");
            a.li(r(2), 0);
            a.li(r(3), 200);
            a.bind(top).unwrap();
            if informing {
                a.load_inf(r(4), r(1), 0);
            } else {
                a.load(r(4), r(1), 0);
            }
            a.fadd(Reg::fp(1), Reg::fp(2), Reg::fp(3));
            a.fadd(Reg::fp(4), Reg::fp(5), Reg::fp(6));
            a.addi(r(1), r(1), 4096);
            a.addi(r(2), r(2), 1);
            a.branch(Cond::Lt, r(2), r(3), top);
            a.halt();
            a.bind(hdl).unwrap();
            for _ in 0..10 {
                a.addi(r(20), r(20), 1);
            }
            a.jump_mhrr();
            a.assemble().unwrap()
        };
        let ino_n = run(&build(false));
        let ino_s = run(&build(true));
        let ooo_n = Machine::default_ooo().run(&build(false)).unwrap();
        let ooo_s = Machine::default_ooo().run(&build(true)).unwrap();
        let ino_overhead = ino_s.cycles as f64 / ino_n.cycles as f64;
        let ooo_overhead = ooo_s.cycles as f64 / ooo_n.cycles as f64;
        assert!(
            ino_overhead > ooo_overhead,
            "in-order overhead {ino_overhead:.3} should exceed out-of-order {ooo_overhead:.3}"
        );
    }

    #[test]
    fn branch_mispredicts_cost_cycles() {
        // Data-dependent unpredictable branch pattern.
        let mut a = Asm::new();
        let (i, n) = (r(1), r(2));
        a.li(i, 0);
        a.li(n, 200);
        let top = a.here("top");
        let skip = a.label("skip");
        a.andi(r(3), i, 1);
        a.branch(Cond::Eq, r(3), Reg::ZERO, skip); // alternates every iteration
        a.addi(r(4), r(4), 1);
        a.bind(skip).unwrap();
        a.addi(i, i, 1);
        a.branch(Cond::Lt, i, n, top);
        a.halt();
        let p = a.assemble().unwrap();
        let res = run(&p);
        // The 2-bit counter cannot learn an alternating pattern well.
        assert!(res.mispredictions > 50, "mispredictions {}", res.mispredictions);
    }

    #[test]
    fn slot_accounting_exhaustive() {
        let mut a = Asm::new();
        a.li(r(1), 0x40_0000);
        for i in 0..50 {
            a.load(r(2), r(1), (i * 4096) as i64);
        }
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
        let mut cfg = InOrderConfig::paper();
        cfg.fp_units = 0;
        let err = Machine::InOrder(cfg).run(&p).unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }));
    }
}
