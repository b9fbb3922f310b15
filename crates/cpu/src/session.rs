//! The one entry point into both core models, with checkpoint pause/resume.
//!
//! Every run of [`crate::inorder`] or [`crate::ooo`] goes through a
//! [`SimSession`] (the [`Machine`] `run*` methods build one), except
//! [`crate::ooo::simulate_traced`]'s pipeline traces: the limits, the stop
//! boundary and the recorder are optional builder fields, and both cores
//! run — and resume — through a single path.
//!
//! A session whose [`SimSession::stop_at`] boundary is reached returns
//! [`Outcome::Paused`] with a [`Checkpoint`]: a versioned wire object (see
//! [`Snapshot`]) carrying the core's entire loop state at that cycle
//! boundary. Resuming the checkpoint — in the same process or from JSON in a
//! fresh one — produces a [`RunResult`] bit-identical to an uninterrupted
//! run, because the pause happens before the boundary cycle mutates anything
//! and resumption re-enters the scheduling loop with the same locals.
//!
//! ```
//! use imo_cpu::{Machine, Outcome, OooConfig, SimSession};
//! use imo_isa::{Asm, Reg};
//!
//! let mut a = Asm::new();
//! a.li(Reg::int(1), 0x4000);
//! a.load(Reg::int(2), Reg::int(1), 0);
//! a.halt();
//! let p = a.assemble().expect("assembles");
//!
//! let machine = Machine::OutOfOrder(OooConfig::default());
//! let paused = SimSession::new(&p, machine).stop_at(10).run().expect("runs");
//! let Outcome::Paused(ckpt) = paused else { panic!("stops at cycle 10") };
//!
//! let resumed = SimSession::new(&p, machine).resume(&ckpt).expect("resumes");
//! let Outcome::Complete { result, .. } = resumed else { panic!("completes") };
//! assert!(result.cycles > 10);
//! ```

use imo_isa::exec::ArchState;
use imo_isa::Program;
use imo_obs::Recorder;
use imo_util::json::Json;
use imo_util::rng::mix64;
use imo_util::snapshot::{self, Snapshot, SnapshotError};

use crate::result::{RunLimits, RunOutcome, RunResult, SimError};
use crate::{inorder, ooo, Machine};

/// A paused simulation: the core's entire loop state at a cycle boundary.
///
/// Produced by [`Outcome::Paused`]; consumed by [`SimSession::resume`]. The
/// [`Snapshot`] impl gives it a versioned JSON wire format, so a checkpoint
/// can cross a process boundary (`to_wire` → text → `from_wire`) and still
/// resume bit-identically. The embedded configuration hash lets
/// [`SimSession::resume`] reject a checkpoint taken under a different
/// program or machine.
///
/// The wire carries no value the rest of the state determines: the pause
/// cycle is the body's `now`, and the cores rebuild their sequence and
/// retirement counters from the architectural instruction count and the
/// instruction window.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    core: String,
    cycle: u64,
    cfg_hash: u64,
    body: Json,
}

impl Checkpoint {
    /// The cycle boundary at which the run paused.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }
}

impl Snapshot for Checkpoint {
    const KIND: &'static str = "cpu.checkpoint";
    const VERSION: u32 = 3;

    fn encode(&self) -> Json {
        Json::obj([
            ("core", Json::from(self.core.as_str())),
            ("cfg_hash", snapshot::u64_json(self.cfg_hash)),
            ("body", self.body.clone()),
        ])
    }

    fn decode(data: &Json) -> Result<Self, SnapshotError> {
        let body = snapshot::field(data, "body")?;
        Ok(Checkpoint {
            core: snapshot::get_str(data, "core")?.to_string(),
            cycle: snapshot::get_u64(body, "now")?,
            cfg_hash: snapshot::get_u64(data, "cfg_hash")?,
            body: body.clone(),
        })
    }
}

/// How a [`SimSession`] run ended.
// One value exists per completed run; the variant size gap is irrelevant.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Outcome {
    /// The program ran to completion.
    Complete {
        /// The run's results.
        result: RunResult,
        /// Final architectural state (registers and data memory).
        state: ArchState,
    },
    /// The run reached [`SimSession::stop_at`] and checkpointed.
    Paused(Checkpoint),
}

/// A configured simulation run on either machine.
///
/// Consuming builder: construct with [`SimSession::new`], optionally attach
/// [`SimSession::limits`], [`SimSession::stop_at`] and
/// [`SimSession::recorder`], then [`SimSession::run`] or
/// [`SimSession::resume`].
pub struct SimSession<'p, 'r> {
    program: &'p Program,
    machine: Machine,
    limits: RunLimits,
    stop_at: Option<u64>,
    recorder: Option<&'r mut Recorder>,
}

impl<'p, 'r> SimSession<'p, 'r> {
    /// A session over `program` on `machine`, with default limits, no stop
    /// boundary and no recorder.
    #[must_use]
    pub fn new(program: &'p Program, machine: Machine) -> SimSession<'p, 'r> {
        SimSession { program, machine, limits: RunLimits::default(), stop_at: None, recorder: None }
    }

    /// Sets the run limits.
    #[must_use]
    pub fn limits(mut self, limits: RunLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Pauses the run at the first cycle boundary at or after `cycle` and
    /// returns [`Outcome::Paused`] with a checkpoint instead of a result.
    /// Fast-forwarding may jump past `cycle`, so the checkpoint's
    /// [`Checkpoint::cycle`] can lie beyond it.
    #[must_use]
    pub fn stop_at(mut self, cycle: u64) -> Self {
        self.stop_at = Some(cycle);
        self
    }

    /// Streams events, metrics and the exact CPI stack into `rec`. The
    /// recorder is strictly passive: results are bit-identical with or
    /// without it.
    #[must_use]
    pub fn recorder(mut self, rec: &'r mut Recorder) -> Self {
        self.recorder = Some(rec);
        self
    }

    /// Runs the session from the program's entry.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the program faults, exceeds the limits, or
    /// the model deadlocks.
    pub fn run(self) -> Result<Outcome, SimError> {
        self.go(None)
    }

    /// Resumes the session from a checkpoint taken by an earlier run with
    /// the same program and machine.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] if the checkpoint was taken on a
    /// different core or under a different configuration, or if its body
    /// fails to decode; otherwise as for [`SimSession::run`].
    pub fn resume(self, ckpt: &Checkpoint) -> Result<Outcome, SimError> {
        if ckpt.core != self.machine.name() {
            return Err(SimError::Checkpoint(SnapshotError::Kind {
                expected: self.machine.name(),
                found: ckpt.core.clone(),
            }));
        }
        if ckpt.cfg_hash != cfg_hash(self.program, &self.machine) {
            return Err(SimError::Checkpoint(SnapshotError::Bad("cfg_hash")));
        }
        self.go(Some(&ckpt.body))
    }

    /// Runs a session that has no stop boundary, and so cannot pause, to
    /// completion.
    pub(crate) fn complete(self) -> Result<(RunResult, ArchState), SimError> {
        match self.go(None)? {
            Outcome::Complete { result, state } => Ok((result, state)),
            Outcome::Paused(_) => unreachable!("a run without a stop boundary never pauses"),
        }
    }

    fn go(self, resume: Option<&Json>) -> Result<Outcome, SimError> {
        let SimSession { program, machine, limits, stop_at, recorder } = self;
        let outcome = match &machine {
            Machine::InOrder(cfg) => inorder::run(program, cfg, limits, stop_at, recorder, resume)?,
            Machine::OutOfOrder(cfg) => {
                ooo::run(program, cfg, limits, stop_at, None, recorder, resume)?
            }
        };
        Ok(match outcome {
            RunOutcome::Done(result, state) => Outcome::Complete { result, state },
            RunOutcome::Paused { cycle, body } => Outcome::Paused(Checkpoint {
                core: machine.name().to_string(),
                cycle,
                cfg_hash: cfg_hash(program, &machine),
                body,
            }),
        })
    }
}

/// Hash binding a checkpoint to this exact (program, machine) pair.
/// `Debug`-based, like the sweep memo keys: two sessions hash equal iff
/// their configurations render identically. Computed only when a run
/// pauses or resumes.
fn cfg_hash(program: &Program, machine: &Machine) -> u64 {
    mix64(imo_util::debug_hash(machine), imo_util::debug_hash(program))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OooConfig;
    use imo_isa::{Asm, Cond, Reg};

    fn kernel() -> Program {
        let mut a = Asm::new();
        let hdl = a.label("h");
        a.set_mhar(hdl);
        let (i, n) = (Reg::int(1), Reg::int(2));
        a.li(i, 0);
        a.li(n, 40);
        a.li(Reg::int(3), 0x40_0000);
        let top = a.here("top");
        a.load_inf(Reg::int(4), Reg::int(3), 0);
        a.addi(Reg::int(3), Reg::int(3), 4096);
        a.addi(i, i, 1);
        a.branch(Cond::Lt, i, n, top);
        a.halt();
        a.bind(hdl).unwrap();
        a.addi(Reg::int(20), Reg::int(20), 1);
        a.jump_mhrr();
        a.assemble().unwrap()
    }

    fn complete(o: Outcome) -> RunResult {
        match o {
            Outcome::Complete { result, .. } => result,
            Outcome::Paused(c) => panic!("unexpected pause at {}", c.cycle()),
        }
    }

    #[test]
    fn pause_resume_is_bit_identical() {
        let p = kernel();
        let machine = Machine::default_ooo();
        let baseline = machine.run(&p).unwrap();
        for stop in [1, 17, 100, 300] {
            match SimSession::new(&p, machine).stop_at(stop).run().unwrap() {
                Outcome::Paused(ckpt) => {
                    assert!(ckpt.cycle() >= stop);
                    let resumed = complete(SimSession::new(&p, machine).resume(&ckpt).unwrap());
                    assert_eq!(resumed, baseline, "stop_at {stop}");
                }
                Outcome::Complete { result, .. } => {
                    // The run finished before the boundary.
                    assert_eq!(result, baseline);
                    assert!(result.cycles <= stop);
                }
            }
        }
    }

    #[test]
    fn resume_rejects_core_and_config_mismatches() {
        let p = kernel();
        let Outcome::Paused(ckpt) =
            SimSession::new(&p, Machine::default_ooo()).stop_at(10).run().unwrap()
        else {
            panic!("pauses")
        };
        // Wrong core.
        let err = SimSession::new(&p, Machine::default_in_order()).resume(&ckpt).unwrap_err();
        assert!(matches!(err, SimError::Checkpoint(SnapshotError::Kind { .. })), "{err}");
        // Wrong configuration.
        let mut cfg = OooConfig::paper();
        cfg.rob_entries += 1;
        let err = SimSession::new(&p, Machine::OutOfOrder(cfg)).resume(&ckpt).unwrap_err();
        assert!(matches!(err, SimError::Checkpoint(SnapshotError::Bad("cfg_hash"))), "{err}");
    }

    #[test]
    fn checkpoint_wire_round_trip_resumes() {
        let p = kernel();
        let machine = Machine::default_in_order();
        let baseline = machine.run(&p).unwrap();
        let Outcome::Paused(ckpt) = SimSession::new(&p, machine).stop_at(40).run().unwrap() else {
            panic!("pauses")
        };
        let text = ckpt.to_wire().pretty();
        let back = Checkpoint::from_wire(&imo_util::json::parse(&text).unwrap()).expect("decodes");
        assert_eq!(back.to_wire().pretty(), text, "re-encode is byte-stable");
        let resumed = complete(SimSession::new(&p, machine).resume(&back).unwrap());
        assert_eq!(resumed, baseline);
    }
}
