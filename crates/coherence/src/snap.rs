//! Pause/resume checkpoints for the coherence simulator.
//!
//! The CPU models have checkpointable sessions; this module gives the
//! 16-processor coherence simulator the same power, so a coherence run can
//! pause at an op boundary, cross a process boundary as JSON, and resume —
//! in the same process or a fresh one — with a bit-identical [`SimResult`]
//! at the end.
//!
//! A [`CohCheckpoint`] captures the full [`RunState`](crate::sim::RunState):
//! the directory and every node's protection tables, both cache arrays per
//! node, node clocks and trace cursors, the accumulated result counters and
//! CPI stacks, the event/watchdog budgets, and the *position* of the
//! message-drop stream (draws are pure functions of `(stream seed, n)`, so a
//! single counter restores the exact schedule — including in-flight retry
//! pressure). The ready queue is deliberately absent:
//! at an op boundary it is a pure function of node clocks and cursors and is
//! rebuilt on resume.
//!
//! The envelope carries a `cfg_hash` binding the checkpoint to the exact
//! `(trace, scheme, params, fault plan)` it was taken under; resuming into
//! any other configuration is rejected with [`SimError::Checkpoint`] rather
//! than silently diverging.
//!
//! ## Example
//!
//! ```
//! use imo_coherence::{simulate_baseline, CohOutcome, CohSession, MachineParams, Scheme};
//! use imo_workloads::parallel::{migratory, TraceConfig};
//!
//! let trace = migratory(&TraceConfig { procs: 4, ops_per_proc: 400, seed: 1 });
//! let params = MachineParams::table2();
//! let session = CohSession::new(&trace, Scheme::Informing, params).stop_at(600);
//! let ckpt = match session.run().expect("within limits") {
//!     CohOutcome::Paused(c) => c,
//!     CohOutcome::Complete(_) => unreachable!("1600 ops total"),
//! };
//! let rest = session.stop_at(u64::MAX).resume(&ckpt).expect("within limits");
//! let full = simulate_baseline(&trace, Scheme::Informing, &params);
//! match rest {
//!     CohOutcome::Complete(r) => assert_eq!(r, full), // bit-identical
//!     CohOutcome::Paused(_) => unreachable!(),
//! }
//! ```

use imo_faults::FaultPlan;
use imo_obs::CpiCategory;
use imo_util::hash::debug_hash;
use imo_util::json::Json;
use imo_util::rng::mix64;
use imo_util::snapshot::{self, Snapshot, SnapshotError};
use imo_workloads::parallel::ParallelTrace;

use crate::config::{MachineParams, Scheme};
use crate::error::SimError;
use crate::protocol::Directory;
use crate::sim::{self, RunState, SimResult};

/// A paused coherence run, resumable via [`CohSession::resume`].
#[derive(Debug, Clone, PartialEq)]
pub struct CohCheckpoint {
    cfg_hash: u64,
    ops: u64,
    body: Json,
}

impl CohCheckpoint {
    /// Total references simulated when the run paused.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.ops
    }
}

impl Snapshot for CohCheckpoint {
    const KIND: &'static str = "coh.checkpoint";
    const VERSION: u32 = 2;

    fn encode(&self) -> Json {
        Json::obj([
            ("cfg_hash", snapshot::u64_json(self.cfg_hash)),
            ("ops", snapshot::u64_json(self.ops)),
            ("body", self.body.clone()),
        ])
    }

    fn decode(data: &Json) -> Result<Self, SnapshotError> {
        Ok(CohCheckpoint {
            cfg_hash: snapshot::get_u64(data, "cfg_hash")?,
            ops: snapshot::get_u64(data, "ops")?,
            body: snapshot::field(data, "body")?.clone(),
        })
    }
}

/// How a (possibly bounded) session run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum CohOutcome {
    /// The trace ran to completion.
    Complete(SimResult),
    /// The `stop_at` bound was reached first; the checkpoint resumes it.
    Paused(CohCheckpoint),
}

/// A pausable coherence simulation: the coherence twin of the CPU models'
/// checkpoint session.
///
/// Wraps one `(trace, scheme, params, fault plan)` configuration; `run`
/// starts from op 0 and `resume` continues from a checkpoint, each driving
/// until completion or until the session's `stop_at` op bound. Sessions are
/// cheap handles — reconfigure with the builder methods freely.
///
/// The session deliberately has no recorder hook: observation attaches to
/// complete runs via [`crate::simulate_observed`]. Results are bit-identical
/// either way, so a resumed run's final [`SimResult`] matches the
/// uninterrupted one exactly.
#[derive(Debug, Clone, Copy)]
pub struct CohSession<'a> {
    trace: &'a ParallelTrace,
    scheme: Scheme,
    params: MachineParams,
    plan: FaultPlan,
    stop_at: Option<u64>,
}

impl<'a> CohSession<'a> {
    /// A session over a fault-free substrate with no op bound.
    #[must_use]
    pub fn new(trace: &'a ParallelTrace, scheme: Scheme, params: MachineParams) -> CohSession<'a> {
        CohSession { trace, scheme, params, plan: FaultPlan::none(), stop_at: None }
    }

    /// Drops protocol messages as scheduled by `plan` (the schedule is part
    /// of the checkpoint's configuration hash).
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> CohSession<'a> {
        self.plan = plan;
        self
    }

    /// Pauses once at least `ops` total references have been simulated
    /// (`u64::MAX` ⇒ run to completion).
    #[must_use]
    pub fn stop_at(mut self, ops: u64) -> CohSession<'a> {
        self.stop_at = if ops == u64::MAX { None } else { Some(ops) };
        self
    }

    fn cfg_hash(&self) -> u64 {
        let h = debug_hash(self.trace);
        let h = mix64(h, debug_hash(&self.scheme));
        let h = mix64(h, debug_hash(&self.params));
        mix64(h, debug_hash(self.plan.config()))
    }

    /// Runs from op 0 until completion or the `stop_at` bound.
    ///
    /// # Errors
    ///
    /// As for [`crate::simulate_faulty`].
    pub fn run(&self) -> Result<CohOutcome, SimError> {
        let state = sim::init_state(self.trace, self.scheme, &self.params, &self.plan)?;
        self.drive(state)
    }

    /// Continues from `ckpt` until completion or the `stop_at` bound.
    ///
    /// # Errors
    ///
    /// [`SimError::Checkpoint`] if the checkpoint was taken under a
    /// different configuration or fails to decode; otherwise as for
    /// [`crate::simulate_faulty`].
    pub fn resume(&self, ckpt: &CohCheckpoint) -> Result<CohOutcome, SimError> {
        if ckpt.cfg_hash != self.cfg_hash() {
            return Err(SimError::Checkpoint(SnapshotError::Bad("cfg_hash")));
        }
        let state = decode_state(self.trace, self.scheme, &self.params, &self.plan, &ckpt.body)
            .map_err(SimError::Checkpoint)?;
        self.drive(state)
    }

    fn drive(&self, mut state: RunState) -> Result<CohOutcome, SimError> {
        let mut obs = None;
        let done =
            sim::drive(&mut state, self.trace, self.scheme, &self.params, &mut obs, self.stop_at)?;
        if done {
            let (result, _, _) = sim::finish(state);
            Ok(CohOutcome::Complete(result))
        } else {
            Ok(CohOutcome::Paused(CohCheckpoint {
                cfg_hash: self.cfg_hash(),
                ops: state.result.ops,
                body: encode_state(&state),
            }))
        }
    }
}

// 10 counter fields of `SimResult` carried through a checkpoint, in wire
// order (`total_cycles` is sealed by `finish`, app/scheme by the resume
// context).
fn result_counts(r: &SimResult) -> [u64; 10] {
    [
        r.ops,
        r.lookups,
        r.faults,
        r.actions,
        r.l1_misses,
        r.l2_misses,
        r.invalidations,
        r.retries,
        r.timeouts,
        r.dropped_msgs,
    ]
}

const CPI_CATS: [CpiCategory; 6] = [
    CpiCategory::Base,
    CpiCategory::IssueStall,
    CpiCategory::L1Miss,
    CpiCategory::L2Miss,
    CpiCategory::Handler,
    CpiCategory::CoherenceWait,
];

fn encode_state(s: &RunState) -> Json {
    let times: Vec<u64> = s.nodes.iter().map(|n| n.time).collect();
    let cursors: Vec<u64> = s.nodes.iter().map(|n| n.cursor as u64).collect();
    let mut cpi = Vec::with_capacity(6 * s.proc_cpi.len());
    for stack in &s.proc_cpi {
        cpi.extend_from_slice(&[
            stack.base,
            stack.issue_stall,
            stack.l1_miss,
            stack.l2_miss,
            stack.handler,
            stack.coherence_wait,
        ]);
    }
    Json::obj([
        ("dir", s.dir.snap_body()),
        ("times", snapshot::u64s_json(&times)),
        ("cursors", snapshot::u64s_json(&cursors)),
        ("l1", Json::Arr(s.nodes.iter().map(|n| n.l1.to_wire()).collect())),
        ("l2", Json::Arr(s.nodes.iter().map(|n| n.l2.to_wire()).collect())),
        ("counts", snapshot::u64s_json(&result_counts(&s.result))),
        ("proc_cycles", snapshot::u64s_json(&s.result.proc_cycles)),
        ("net_pos", snapshot::u64_json(s.net.position())),
        ("events", snapshot::u64_json(s.events)),
        ("consec", snapshot::u64_json(u64::from(s.consecutive_failures))),
        ("cpi", snapshot::u64s_json(&cpi)),
    ])
}

fn decode_state(
    trace: &ParallelTrace,
    scheme: Scheme,
    params: &MachineParams,
    plan: &FaultPlan,
    body: &Json,
) -> Result<RunState, SnapshotError> {
    let procs = trace.per_proc.len();
    // Fresh state gives correctly-shaped nodes/result/streams; every field
    // is then overwritten from the wire.
    let mut s =
        sim::init_state(trace, scheme, params, plan).map_err(|_| SnapshotError::Bad("trace"))?;
    let dir_params = {
        let mut p = *params;
        p.procs = procs;
        p
    };
    s.dir = Directory::snap_restore(dir_params, snapshot::field(body, "dir")?)?;
    let times = snapshot::get_u64s(body, "times")?;
    let cursors = snapshot::get_u64s(body, "cursors")?;
    let l1 = snapshot::field(body, "l1")?.as_arr().ok_or(SnapshotError::Bad("l1"))?;
    let l2 = snapshot::field(body, "l2")?.as_arr().ok_or(SnapshotError::Bad("l2"))?;
    if times.len() != procs || cursors.len() != procs || l1.len() != procs || l2.len() != procs {
        return Err(SnapshotError::Bad("times"));
    }
    for (p, node) in s.nodes.iter_mut().enumerate() {
        node.time = times[p];
        node.cursor = usize::try_from(cursors[p]).map_err(|_| SnapshotError::Bad("cursors"))?;
        if node.cursor > trace.per_proc[p].len() {
            return Err(SnapshotError::Bad("cursors"));
        }
        node.l1 = imo_mem::Cache::from_wire(&l1[p])?;
        node.l2 = imo_mem::Cache::from_wire(&l2[p])?;
    }
    let counts = snapshot::get_u64s(body, "counts")?;
    if counts.len() != 10 {
        return Err(SnapshotError::Bad("counts"));
    }
    s.result.ops = counts[0];
    s.result.lookups = counts[1];
    s.result.faults = counts[2];
    s.result.actions = counts[3];
    s.result.l1_misses = counts[4];
    s.result.l2_misses = counts[5];
    s.result.invalidations = counts[6];
    s.result.retries = counts[7];
    s.result.timeouts = counts[8];
    s.result.dropped_msgs = counts[9];
    s.result.proc_cycles = snapshot::get_u64s(body, "proc_cycles")?;
    if s.result.proc_cycles.len() != procs {
        return Err(SnapshotError::Bad("proc_cycles"));
    }
    s.net.seek(snapshot::get_u64(body, "net_pos")?);
    s.events = snapshot::get_u64(body, "events")?;
    s.consecutive_failures = u32::try_from(snapshot::get_u64(body, "consec")?)
        .map_err(|_| SnapshotError::Bad("consec"))?;
    let cpi = snapshot::get_u64s(body, "cpi")?;
    if cpi.len() != 6 * procs {
        return Err(SnapshotError::Bad("cpi"));
    }
    for (p, stack) in s.proc_cpi.iter_mut().enumerate() {
        for (k, &cat) in CPI_CATS.iter().enumerate() {
            stack.add(cat, cpi[6 * p + k]);
        }
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::simulate_faulty;
    use imo_faults::FaultConfig;
    use imo_workloads::parallel::{migratory, producer_consumer, TraceConfig};

    fn cfg() -> TraceConfig {
        TraceConfig { procs: 6, ops_per_proc: 2_000, seed: 9 }
    }

    fn stormy_plan() -> FaultPlan {
        FaultPlan::new(FaultConfig { seed: 3, drop_rate: 0.1 })
    }

    /// Round-trips a checkpoint through its printed wire text, as a resume
    /// in another process does.
    fn wire_trip(c: &CohCheckpoint) -> CohCheckpoint {
        let text = c.to_wire().compact();
        let parsed = imo_util::json::parse(&text).expect("wire parses");
        CohCheckpoint::from_wire(&parsed).expect("wire decodes")
    }

    #[test]
    fn pause_resume_is_bit_identical_under_faults() {
        // Pause mid-protocol with in-flight retry traffic at several
        // different boundaries; every resumed run must equal the
        // uninterrupted one bit-for-bit, including the retry counters.
        let t = producer_consumer(&cfg());
        let params = MachineParams::table2();
        let plan = stormy_plan();
        let full = simulate_faulty(&t, Scheme::Informing, &params, &plan).expect("completes");
        assert!(full.retries > 0, "plan must exercise the retry path");
        for stop in [1, 500, 6_000, 11_999] {
            let sess = CohSession::new(&t, Scheme::Informing, params).faults(plan);
            let ckpt = match sess.stop_at(stop).run().expect("runs") {
                CohOutcome::Paused(c) => wire_trip(&c),
                CohOutcome::Complete(_) => panic!("stop {stop} is before the end"),
            };
            assert!(ckpt.ops() >= stop);
            match sess.stop_at(u64::MAX).resume(&ckpt).expect("resumes") {
                CohOutcome::Complete(r) => assert_eq!(r, full, "stop {stop}"),
                CohOutcome::Paused(_) => panic!("unbounded resume must finish"),
            }
        }
    }

    #[test]
    fn chained_pauses_match_straight_run() {
        let t = migratory(&cfg());
        let params = MachineParams::table2();
        let full = simulate_faulty(&t, Scheme::Ecc, &params, &stormy_plan()).expect("completes");
        let sess = CohSession::new(&t, Scheme::Ecc, params).faults(stormy_plan());
        let mut outcome = sess.stop_at(700).run().expect("runs");
        let mut stop = 700;
        let mut pauses = 0;
        let r = loop {
            match outcome {
                CohOutcome::Complete(r) => break r,
                CohOutcome::Paused(c) => {
                    pauses += 1;
                    stop += 700;
                    outcome = sess.stop_at(stop).resume(&wire_trip(&c)).expect("resumes");
                }
            }
        };
        assert!(pauses >= 10, "12000 ops in 700-op slices: {pauses} pauses");
        assert_eq!(r, full);
    }

    #[test]
    fn checkpoint_wire_is_byte_stable() {
        let t = migratory(&cfg());
        let sess = CohSession::new(&t, Scheme::Informing, MachineParams::table2())
            .faults(stormy_plan())
            .stop_at(3_000);
        let ckpt = match sess.run().expect("runs") {
            CohOutcome::Paused(c) => c,
            CohOutcome::Complete(_) => panic!("bounded"),
        };
        let once = ckpt.to_wire().compact();
        let twice = wire_trip(&ckpt).to_wire().compact();
        assert_eq!(once, twice, "decode∘encode is the identity on wire text");
    }

    #[test]
    fn resume_rejects_mismatched_configuration() {
        let t = migratory(&cfg());
        let params = MachineParams::table2();
        let sess = CohSession::new(&t, Scheme::Informing, params).stop_at(500);
        let ckpt = match sess.run().expect("runs") {
            CohOutcome::Paused(c) => c,
            CohOutcome::Complete(_) => panic!("bounded"),
        };
        // Different scheme.
        let err = CohSession::new(&t, Scheme::Ecc, params).resume(&ckpt);
        assert!(matches!(err, Err(SimError::Checkpoint(_))), "{err:?}");
        // Different fault plan.
        let err =
            CohSession::new(&t, Scheme::Informing, params).faults(stormy_plan()).resume(&ckpt);
        assert!(matches!(err, Err(SimError::Checkpoint(_))), "{err:?}");
        // Different trace (same shape, different seed).
        let other = migratory(&TraceConfig { seed: 10, ..cfg() });
        let err = CohSession::new(&other, Scheme::Informing, params).resume(&ckpt);
        assert!(matches!(err, Err(SimError::Checkpoint(_))), "{err:?}");
    }

    #[test]
    fn unbounded_session_equals_simulate() {
        let t = migratory(&cfg());
        let params = MachineParams::table2();
        let sess = CohSession::new(&t, Scheme::RefCheck, params);
        match sess.run().expect("runs") {
            CohOutcome::Complete(r) => {
                assert_eq!(r, crate::sim::simulate_baseline(&t, Scheme::RefCheck, &params));
            }
            CohOutcome::Paused(_) => panic!("no bound set"),
        }
    }
}
