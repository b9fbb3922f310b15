//! The event-driven 16-processor simulator.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use imo_faults::{FaultPlan, InterconnectFaults};
use imo_mem::{Cache, CacheConfig, Probe};
use imo_obs::{CpiCategory, CpiStack, EventKind, Recorder, ServedBy};
use imo_util::stats::{Report, Summarize};
use imo_workloads::parallel::ParallelTrace;

use crate::config::{MachineParams, Scheme};
use crate::error::{ProgressSnapshot, SimError};
use crate::protocol::{Directory, LineState};

/// Per-scheme, per-application simulation result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimResult {
    /// Application name.
    pub app: &'static str,
    /// Access-control scheme simulated.
    pub scheme: Scheme,
    /// Completion time: the cycle at which the last processor finished.
    pub total_cycles: u64,
    /// Per-processor finish times.
    pub proc_cycles: Vec<u64>,
    /// Total references simulated.
    pub ops: u64,
    /// Inline or in-handler protection lookups performed.
    pub lookups: u64,
    /// ECC faults (read-invalid) plus page-protection write traps.
    pub faults: u64,
    /// Protocol actions (protection upgrades needing the directory).
    pub actions: u64,
    /// Primary-cache misses.
    pub l1_misses: u64,
    /// Misses that also missed in the secondary cache.
    pub l2_misses: u64,
    /// Line invalidations delivered to remote caches.
    pub invalidations: u64,
    /// Directory requests re-sent after a delivery failure.
    pub retries: u64,
    /// Request timeouts suffered (a dropped message waited out its timer).
    pub timeouts: u64,
    /// Protocol messages dropped by the (lossy) interconnect.
    pub dropped_msgs: u64,
}

impl SimResult {
    /// Mean cycles per reference.
    pub fn cycles_per_op(&self) -> f64 {
        self.total_cycles as f64 / self.ops.max(1) as f64
    }
}

impl Summarize for SimResult {
    fn report(&self) -> Report {
        let mut r = Report::new();
        r.push("app", self.app)
            .push("scheme", self.scheme.name())
            .push("total_cycles", self.total_cycles)
            .push("cycles_per_op", self.cycles_per_op())
            .push("ops", self.ops)
            .push("lookups", self.lookups)
            .push("faults", self.faults)
            .push("actions", self.actions)
            .push("l1_misses", self.l1_misses)
            .push("l2_misses", self.l2_misses)
            .push("invalidations", self.invalidations)
            .push("retries", self.retries)
            .push("timeouts", self.timeouts)
            .push("dropped_msgs", self.dropped_msgs);
        r
    }
}

pub(crate) struct Node {
    pub(crate) l1: Cache,
    pub(crate) l2: Cache,
    pub(crate) time: u64,
    pub(crate) cursor: usize,
}

/// The complete mutable state of an in-flight coherence run: everything the
/// event loop touches between two references. The ready queue is *not* part
/// of it — at any op boundary the queue is exactly
/// `{(time[p], p) : cursor[p] < len[p]}`, a pure function of the node
/// clocks and cursors, so [`drive`] rebuilds it on entry and the checkpoint
/// codec (`crate::snap`) never has to encode heap internals.
pub(crate) struct RunState {
    pub(crate) dir: Directory,
    pub(crate) nodes: Vec<Node>,
    pub(crate) result: SimResult,
    pub(crate) net: InterconnectFaults,
    pub(crate) events: u64,
    pub(crate) consecutive_failures: u32,
    pub(crate) proc_cpi: Vec<CpiStack>,
}

fn insufficient(prot: LineState, is_write: bool) -> bool {
    if is_write {
        prot != LineState::ReadWrite
    } else {
        prot == LineState::Invalid
    }
}

/// Simulates `trace` under `scheme` on the Table 2 machine with a perfect
/// interconnect.
///
/// Each processor walks its reference stream; the processor with the
/// smallest local clock always advances next, so protocol state transitions
/// interleave in global time order. Remote protocol work is performed by
/// user-level DMA without consuming remote processor time (§4.3.1); its
/// network latency is charged to the requester.
///
/// # Errors
///
/// Returns a [`SimError`] if the trace names more than 64 processors or the
/// run exceeds `params.limits` (with the default limits and a fault-free
/// substrate this cannot happen on a valid trace — [`simulate_baseline`]
/// packages that guarantee as an infallible call).
pub fn simulate(
    trace: &ParallelTrace,
    scheme: Scheme,
    params: &MachineParams,
) -> Result<SimResult, SimError> {
    simulate_faulty(trace, scheme, params, &FaultPlan::none())
}

/// The infallible zero-fault path: exactly [`simulate`] with the guarantee
/// made explicit. Intended for baselines, benches and examples that use
/// default limits on valid traces.
///
/// # Panics
///
/// Panics if the simulation fails anyway — i.e. the caller handed it a trace
/// with more than 64 processors or limits small enough to trip on a
/// fault-free run, both of which are caller bugs on this path.
pub fn simulate_baseline(
    trace: &ParallelTrace,
    scheme: Scheme,
    params: &MachineParams,
) -> SimResult {
    match simulate(trace, scheme, params) {
        Ok(r) => r,
        Err(e) => panic!("fault-free simulation cannot fail within default limits: {e}"),
    }
}

/// Simulates `trace` under `scheme` while dropping directory requests as
/// scheduled by `plan`: a dropped request waits out its timeout and is
/// re-sent after a capped exponential backoff.
///
/// The drop schedule is a pure function of `plan`'s seed, so identical
/// arguments yield identical results — including the retry counters. A plan
/// with a zero drop rate is bit-identical to [`simulate`].
///
/// # Errors
///
/// * [`SimError::TooManyProcs`] — more than 64 processors in the trace.
/// * [`SimError::RetryExhausted`] — one request failed `max_retries + 1`
///   deliveries.
/// * [`SimError::Deadlock`] — the forward-progress watchdog saw too many
///   consecutive failures machine-wide.
/// * [`SimError::EventBudget`] — the protocol event budget ran out.
pub fn simulate_faulty(
    trace: &ParallelTrace,
    scheme: Scheme,
    params: &MachineParams,
    plan: &FaultPlan,
) -> Result<SimResult, SimError> {
    simulate_faulty_full(trace, scheme, params, plan).map(|(r, _)| r)
}

/// Like [`simulate_faulty`], but also returns the final [`Directory`] so
/// callers (e.g. the fault-injection test suites) can check protocol
/// invariants after the run.
///
/// # Errors
///
/// As for [`simulate_faulty`].
pub fn simulate_faulty_full(
    trace: &ParallelTrace,
    scheme: Scheme,
    params: &MachineParams,
    plan: &FaultPlan,
) -> Result<(SimResult, Directory), SimError> {
    run(trace, scheme, params, plan, None)
}

/// Like [`simulate_faulty_full`], but streams protocol events (accesses,
/// requests, drops, retries, invalidations) into `rec`, exports
/// the run's counters and the `coh.retry_backoff` histogram into
/// `rec.metrics`, and attributes the critical-path (slowest) processor's
/// cycles into `rec.cpi` — whose total equals `SimResult::total_cycles`
/// exactly.
///
/// The recorder is strictly passive: the returned [`SimResult`] is
/// bit-identical to [`simulate_faulty_full`]'s.
///
/// # Errors
///
/// As for [`simulate_faulty`].
pub fn simulate_observed(
    trace: &ParallelTrace,
    scheme: Scheme,
    params: &MachineParams,
    plan: &FaultPlan,
    rec: &mut Recorder,
) -> Result<(SimResult, Directory), SimError> {
    run(trace, scheme, params, plan, Some(rec))
}

fn run(
    trace: &ParallelTrace,
    scheme: Scheme,
    params: &MachineParams,
    plan: &FaultPlan,
    mut obs: Option<&mut Recorder>,
) -> Result<(SimResult, Directory), SimError> {
    let mut state = init_state(trace, scheme, params, plan)?;
    let done = drive(&mut state, trace, scheme, params, &mut obs, None)?;
    debug_assert!(done, "an unbounded drive always runs the trace to completion");
    let (result, dir, proc_cpi) = finish(state);
    if let Some(rec) = obs {
        // The run's completion time is the slowest processor's clock, so its
        // stack is the one whose total equals `total_cycles`.
        if let Some(i) = result.proc_cycles.iter().position(|&t| t == result.total_cycles) {
            debug_assert_eq!(proc_cpi[i].total(), result.total_cycles);
            rec.cpi.merge(&proc_cpi[i]);
        }
        rec.metrics.set("coh.procs", trace.per_proc.len() as u64);
        rec.metrics.set("coh.total_cycles", result.total_cycles);
        rec.metrics.set("coh.ops", result.ops);
        rec.metrics.set("coh.lookups", result.lookups);
        rec.metrics.set("coh.faults", result.faults);
        rec.metrics.set("coh.actions", result.actions);
        rec.metrics.set("coh.l1_misses", result.l1_misses);
        rec.metrics.set("coh.l2_misses", result.l2_misses);
        rec.metrics.set("coh.invalidations", result.invalidations);
        rec.metrics.set("coh.retries", result.retries);
        rec.metrics.set("coh.timeouts", result.timeouts);
        rec.metrics.set("coh.dropped_msgs", result.dropped_msgs);
        let (seen, dropped) = (rec.total_recorded(), rec.dropped());
        rec.metrics.set("obs.events_seen", seen);
        rec.metrics.set("obs.events_dropped", dropped);
        plan.config().record_metrics(&mut rec.metrics);
    }
    Ok((result, dir))
}

/// Builds the op-0 [`RunState`] for a run of `trace` under `scheme`.
pub(crate) fn init_state(
    trace: &ParallelTrace,
    scheme: Scheme,
    params: &MachineParams,
    plan: &FaultPlan,
) -> Result<RunState, SimError> {
    let procs = trace.per_proc.len();
    if procs > 64 {
        return Err(SimError::TooManyProcs { procs });
    }
    let dir = {
        let mut p = *params;
        p.procs = procs;
        Directory::new(p)
    };
    let nodes: Vec<Node> = (0..procs)
        .map(|_| Node {
            l1: Cache::new(CacheConfig::new(params.l1_bytes, 1, params.line_bytes)),
            l2: Cache::new(CacheConfig::new(params.l2_bytes, 4, params.line_bytes)),
            time: 0,
            cursor: 0,
        })
        .collect();

    let result = SimResult {
        app: trace.name,
        scheme,
        total_cycles: 0,
        proc_cycles: vec![0; procs],
        ops: 0,
        lookups: 0,
        faults: 0,
        actions: 0,
        l1_misses: 0,
        l2_misses: 0,
        invalidations: 0,
        retries: 0,
        timeouts: 0,
        dropped_msgs: 0,
    };

    Ok(RunState {
        dir,
        nodes,
        result,
        // A zero drop rate never draws, which keeps the zero-fault
        // configuration bit-identical to the baseline.
        net: plan.interconnect(),
        events: 0,
        // Machine-wide consecutive delivery failures (reset on any
        // success): the forward-progress watchdog.
        consecutive_failures: 0,
        // Per-processor CPI stacks: every cycle a processor spends is the
        // total of its per-op cost stacks, so per-category attribution
        // reconciles with `proc_cycles` exactly (and the slowest
        // processor's stack with `total_cycles`).
        proc_cpi: vec![CpiStack::default(); procs],
    })
}

/// Advances `state` until the trace completes (returns `Ok(true)`) or, when
/// `stop_at` is given, until at least `stop_at` total references have been
/// simulated (returns `Ok(false)` — paused at an op boundary, resumable by
/// calling `drive` again). `trace`, `scheme` and `params` must be the same
/// values the state was initialised with.
pub(crate) fn drive(
    state: &mut RunState,
    trace: &ParallelTrace,
    scheme: Scheme,
    params: &MachineParams,
    obs: &mut Option<&mut Recorder>,
    stop_at: Option<u64>,
) -> Result<bool, SimError> {
    let RunState { dir, nodes, result, net, events, consecutive_failures, proc_cpi } = state;
    let mut queue: BinaryHeap<Reverse<(u64, usize)>> = nodes
        .iter()
        .enumerate()
        .filter(|&(p, n)| n.cursor < trace.per_proc[p].len())
        .map(|(p, n)| Reverse((n.time, p)))
        .collect();

    let c = params.costs;
    loop {
        if let Some(stop) = stop_at {
            if result.ops >= stop && !queue.is_empty() {
                return Ok(false);
            }
        }
        let Some(Reverse((_, p))) = queue.pop() else { break };
        *events += 1;
        if *events > params.limits.event_budget {
            return Err(SimError::EventBudget { budget: params.limits.event_budget });
        }
        let op = trace.per_proc[p][nodes[p].cursor];
        nodes[p].cursor += 1;
        result.ops += 1;
        // The op's scalar cost is the stack total, so the decomposition can
        // never drift from the timing it describes.
        let mut cost = CpiStack::default();
        cost.add(CpiCategory::Base, op.think as u64);
        let t0 = nodes[p].time;
        let line = params.line_of(op.addr);
        let prot = dir.protection(p, line);

        // ---- cache probe (all schemes fetch through the caches) ----
        let l1_miss = matches!(nodes[p].l1.access(op.addr, op.is_write), Probe::Miss { .. });
        let mut served = ServedBy::L1;
        if l1_miss {
            served = ServedBy::L2;
            result.l1_misses += 1;
            cost.add(CpiCategory::L1Miss, params.l1_miss_penalty);
            if matches!(nodes[p].l2.access(op.addr, op.is_write), Probe::Miss { .. }) {
                served = ServedBy::Memory;
                result.l2_misses += 1;
                cost.add(CpiCategory::L2Miss, params.l2_miss_penalty);
            }
        }
        imo_obs::record(
            obs,
            t0,
            EventKind::CohAccess {
                proc: p as u32,
                addr: op.addr,
                line,
                store: op.is_write,
                served,
            },
        );

        if op.shared {
            let needs_action = insufficient(prot, op.is_write);
            let mut acted = false;
            match scheme {
                Scheme::RefCheck => {
                    // Inline lookup on every shared reference.
                    cost.add(CpiCategory::Handler, c.refcheck_lookup);
                    result.lookups += 1;
                    if needs_action {
                        cost.add(CpiCategory::CoherenceWait, c.state_change);
                        acted = true;
                    }
                }
                Scheme::Ecc => {
                    if !op.is_write && prot == LineState::Invalid {
                        cost.add(CpiCategory::Handler, c.ecc_read_invalid);
                        result.faults += 1;
                        acted = needs_action;
                    } else if op.is_write
                        && (prot != LineState::ReadWrite || dir.page_has_readonly(p, line))
                    {
                        // Page-grain write protection: even writes to a
                        // READWRITE block trap if the page holds READONLY
                        // data (the Blizzard-E artifact).
                        cost.add(CpiCategory::Handler, c.ecc_write_readonly_page);
                        result.faults += 1;
                        acted = needs_action;
                    }
                }
                Scheme::Informing => {
                    // Invalid blocks were evicted, so they miss; a store to
                    // a block held without write permission is a write miss.
                    let informs = l1_miss || (op.is_write && prot != LineState::ReadWrite);
                    if informs {
                        cost.add(CpiCategory::Handler, c.informing_lookup);
                        result.lookups += 1;
                        if needs_action {
                            cost.add(CpiCategory::CoherenceWait, c.state_change);
                            acted = true;
                        }
                    }
                    debug_assert!(
                        !needs_action || informs,
                        "an access needing protocol action must inform"
                    );
                }
            }
            if acted {
                // Deliver the directory request over the (possibly lossy)
                // interconnect: retry with capped exponential backoff on
                // loss, under the per-request retry cap and the machine-wide
                // forward-progress watchdog.
                let mut attempts: u32 = 0;
                imo_obs::record(
                    obs,
                    t0 + cost.total(),
                    EventKind::CohRequest { proc: p as u32, line },
                );
                loop {
                    *events += 1;
                    if *events > params.limits.event_budget {
                        return Err(SimError::EventBudget { budget: params.limits.event_budget });
                    }
                    attempts += 1;
                    if !net.draw() {
                        *consecutive_failures = 0;
                        break;
                    }
                    // Lost in the network: the requester waits out its
                    // timeout, backs off, and re-sends.
                    result.dropped_msgs += 1;
                    result.timeouts += 1;
                    cost.add(CpiCategory::CoherenceWait, params.limits.request_timeout);
                    imo_obs::record(
                        obs,
                        t0 + cost.total(),
                        EventKind::CohDrop { proc: p as u32, line },
                    );
                    *consecutive_failures += 1;
                    if *consecutive_failures >= params.limits.watchdog_failures {
                        let snapshot = ProgressSnapshot {
                            proc: p,
                            line,
                            attempts,
                            pending_procs: queue.len() + 1,
                            ownership: dir.describe(line),
                        };
                        return Err(SimError::Deadlock {
                            cycle: nodes[p].time + cost.total(),
                            snapshot,
                        });
                    }
                    if attempts > params.backoff.max_retries {
                        let snapshot = ProgressSnapshot {
                            proc: p,
                            line,
                            attempts,
                            pending_procs: queue.len() + 1,
                            ownership: dir.describe(line),
                        };
                        return Err(SimError::RetryExhausted { proc: p, line, attempts, snapshot });
                    }
                    result.retries += 1;
                    let backoff = params.backoff.delay(attempts - 1);
                    cost.add(CpiCategory::CoherenceWait, backoff);
                    if let Some(rec) = obs.as_deref_mut() {
                        rec.metrics.observe("coh.retry_backoff", backoff);
                        rec.record(
                            t0 + cost.total(),
                            EventKind::CohRetry { proc: p as u32, line, backoff },
                        );
                    }
                }

                let out = dir.act(p, line, op.is_write);
                result.actions += 1;
                cost.add(CpiCategory::CoherenceWait, out.hops * params.msg_latency);
                for q in out.invalidated.iter().collect::<Vec<_>>() {
                    *events += 1;
                    nodes[q].l1.invalidate(line);
                    nodes[q].l2.invalidate(line);
                    result.invalidations += 1;
                    imo_obs::record(
                        obs,
                        t0 + cost.total(),
                        EventKind::CohInvalidate { proc: q as u32, line },
                    );
                }
            }
        }

        nodes[p].time += cost.total();
        proc_cpi[p].merge(&cost);
        result.proc_cycles[p] = nodes[p].time;
        if nodes[p].cursor < trace.per_proc[p].len() {
            queue.push(Reverse((nodes[p].time, p)));
        }
    }
    Ok(true)
}

/// Consumes a completed run state: seals `total_cycles` and hands back the
/// result, the final directory and the per-processor CPI stacks.
pub(crate) fn finish(mut state: RunState) -> (SimResult, Directory, Vec<CpiStack>) {
    state.result.total_cycles = state.result.proc_cycles.iter().copied().max().unwrap_or(0);
    (state.result, state.dir, state.proc_cpi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use imo_workloads::parallel::{all_apps, migratory, readmostly, reduction, TraceConfig};

    fn cfg() -> TraceConfig {
        // Long enough that first-touch cold misses no longer dominate.
        TraceConfig { procs: 8, ops_per_proc: 16_000, seed: 42 }
    }

    fn params() -> MachineParams {
        MachineParams::table2()
    }

    #[test]
    fn simulation_is_deterministic() {
        let t = migratory(&cfg());
        let a = simulate_baseline(&t, Scheme::Informing, &params());
        let b = simulate_baseline(&t, Scheme::Informing, &params());
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.actions, b.actions);
    }

    #[test]
    fn all_processors_finish_all_ops() {
        let t = migratory(&cfg());
        let r = simulate_baseline(&t, Scheme::RefCheck, &params());
        assert_eq!(r.ops, 8 * 16_000);
        assert!(r.proc_cycles.iter().all(|&c| c > 0));
    }

    #[test]
    fn refcheck_pays_one_lookup_per_shared_ref() {
        let t = migratory(&cfg());
        let r = simulate_baseline(&t, Scheme::RefCheck, &params());
        assert_eq!(r.lookups, r.ops, "migratory refs are all shared");
    }

    #[test]
    fn reduction_refcheck_lookups_only_on_shared() {
        let t = reduction(&cfg());
        let r = simulate_baseline(&t, Scheme::RefCheck, &params());
        // ~25% of references are shared-classified (coefficient reads +
        // accumulator updates); the rest is private and unchecked.
        assert!(r.lookups * 3 < r.ops, "lookups {} vs ops {}", r.lookups, r.ops);
    }

    #[test]
    fn informing_lookups_bounded_by_misses_plus_write_upgrades() {
        let t = readmostly(&cfg());
        let r = simulate_baseline(&t, Scheme::Informing, &params());
        assert!(r.lookups <= r.l1_misses + r.actions);
        assert!(r.lookups < r.ops / 2, "informing must not pay per reference");
    }

    #[test]
    fn ecc_faults_only_on_bad_accesses() {
        let t = readmostly(&cfg());
        let r = simulate_baseline(&t, Scheme::Ecc, &params());
        assert!(r.faults < r.ops / 4, "read-mostly: most reads are valid");
        assert!(r.faults >= r.actions, "every action came through a fault");
    }

    #[test]
    fn protocol_actions_match_across_schemes() {
        // The protocol work is scheme-independent; only the detection cost
        // differs. (Identical traces, identical interleaving-insensitive
        // totals.)
        let t = migratory(&cfg());
        let a = simulate_baseline(&t, Scheme::RefCheck, &params());
        let b = simulate_baseline(&t, Scheme::Informing, &params());
        let c = simulate_baseline(&t, Scheme::Ecc, &params());
        // Interleavings differ slightly (costs shift timing), so allow a
        // small tolerance.
        let base = a.actions as f64;
        for r in [&b, &c] {
            let diff = (r.actions as f64 - base).abs() / base;
            assert!(diff < 0.15, "{}: {} vs {}", r.scheme.name(), r.actions, a.actions);
        }
    }

    #[test]
    fn informing_wins_on_every_app() {
        // The paper's headline: the informing-op scheme always outperforms
        // both alternatives.
        let apps = all_apps(&cfg());
        for app in &apps {
            let inf = simulate_baseline(app, Scheme::Informing, &params());
            let rc = simulate_baseline(app, Scheme::RefCheck, &params());
            let ecc = simulate_baseline(app, Scheme::Ecc, &params());
            assert!(
                inf.total_cycles <= rc.total_cycles,
                "{}: informing {} vs refcheck {}",
                app.name,
                inf.total_cycles,
                rc.total_cycles
            );
            assert!(
                inf.total_cycles <= ecc.total_cycles,
                "{}: informing {} vs ecc {}",
                app.name,
                inf.total_cycles,
                ecc.total_cycles
            );
        }
    }

    #[test]
    fn relative_order_of_losers_fluctuates() {
        // §4.3.2: "the relative performance of the reference-checking and
        // ECC-based approaches fluctuates depending on application
        // parameters". The false-sharing-heavy reduction punishes ECC's
        // fault costs; the read-mostly table punishes per-reference
        // checking.
        let ecc_loses = {
            let t = reduction(&cfg());
            simulate_baseline(&t, Scheme::Ecc, &params()).total_cycles
                > simulate_baseline(&t, Scheme::RefCheck, &params()).total_cycles
        };
        let rc_loses = {
            let t = readmostly(&cfg());
            simulate_baseline(&t, Scheme::RefCheck, &params()).total_cycles
                > simulate_baseline(&t, Scheme::Ecc, &params()).total_cycles
        };
        assert!(ecc_loses, "reduction should punish ECC fault costs");
        assert!(rc_loses, "readmostly should punish per-reference checking");
    }

    #[test]
    fn smaller_network_latency_helps_informing_relatively() {
        // §4.3.2: smaller network latencies improve the informing scheme's
        // relative performance.
        let t = migratory(&cfg());
        let mut fast = params();
        fast.msg_latency = 300;
        let ratio = |p: &MachineParams| {
            simulate_baseline(&t, Scheme::RefCheck, p).total_cycles as f64
                / simulate_baseline(&t, Scheme::Informing, p).total_cycles as f64
        };
        let slow_adv = ratio(&params());
        let fast_adv = ratio(&fast);
        assert!(
            fast_adv >= slow_adv,
            "advantage should not shrink with a faster network: {fast_adv} vs {slow_adv}"
        );
    }
}
