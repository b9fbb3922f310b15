//! One builder-style entry point over both core models, with checkpoint
//! pause/resume.
//!
//! [`SimSession`] subsumes the `simulate` / `simulate_observed` twin entry
//! points of [`crate::inorder`] and [`crate::ooo`]: the recorder is an
//! optional builder field, and both cores run — and resume — through a
//! single path.
//!
//! A session whose [`RunLimits::stop_at`] boundary is reached returns
//! [`Outcome::Paused`] with a [`Checkpoint`]: a versioned wire object (see
//! [`Snapshot`]) carrying the core's entire loop state at that cycle
//! boundary. Resuming the checkpoint — in the same process or from JSON in a
//! fresh one — produces a [`RunResult`] bit-identical to an uninterrupted
//! run, because the pause happens before the boundary cycle mutates anything
//! and resumption re-enters the scheduling loop with the same locals.
//!
//! ```
//! use imo_cpu::{CoreConfig, Outcome, OooConfig, RunLimits, SimSession};
//! use imo_isa::{Asm, Reg};
//!
//! let mut a = Asm::new();
//! a.li(Reg::int(1), 0x4000);
//! a.load(Reg::int(2), Reg::int(1), 0);
//! a.halt();
//! let p = a.assemble().expect("assembles");
//!
//! let core = CoreConfig::Ooo(OooConfig::default());
//! let paused = SimSession::new(&p, core)
//!     .limits(RunLimits::stop_at(10))
//!     .run()
//!     .expect("runs");
//! let Outcome::Paused(ckpt) = paused else { panic!("stops at cycle 10") };
//!
//! let core = CoreConfig::Ooo(OooConfig::default());
//! let resumed = SimSession::new(&p, core).resume(&ckpt).expect("resumes");
//! let Outcome::Complete { result, .. } = resumed else { panic!("completes") };
//! assert!(result.cycles > 10);
//! ```

use imo_isa::exec::ArchState;
use imo_isa::Program;
use imo_obs::Recorder;
use imo_util::json::Json;
use imo_util::rng::mix64;
use imo_util::snapshot::{self, Snapshot, SnapshotError};

use crate::config::{InOrderConfig, OooConfig};
use crate::result::{RunLimits, RunOutcome, RunResult, SimError};
use crate::{inorder, ooo};

/// Which core model a [`SimSession`] drives.
#[derive(Debug, Clone, Copy)]
pub enum CoreConfig {
    /// The in-order-issue (Alpha-21164-like) model.
    InOrder(InOrderConfig),
    /// The out-of-order-issue (MIPS-R10000-like) model.
    Ooo(OooConfig),
}

impl CoreConfig {
    /// Stable core tag recorded in checkpoints (matches
    /// `imo_bench::Machine::name`).
    fn tag(&self) -> &'static str {
        match self {
            CoreConfig::InOrder(_) => "in-order",
            CoreConfig::Ooo(_) => "ooo",
        }
    }
}

/// A paused simulation: the core's entire loop state at a cycle boundary.
///
/// Produced by [`Outcome::Paused`]; consumed by [`SimSession::resume`]. The
/// [`Snapshot`] impl gives it a versioned JSON wire format, so a checkpoint
/// can cross a process boundary (`to_wire` → text → `from_wire`) and still
/// resume bit-identically. The embedded configuration hash lets
/// [`SimSession::resume`] reject a checkpoint taken under a different
/// program or core configuration.
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
    const VERSION: u32 = 2;

    fn encode(&self) -> Json {
        Json::obj([
            ("core", Json::from(self.core.as_str())),
            ("cycle", snapshot::u64_json(self.cycle)),
            ("cfg_hash", snapshot::u64_json(self.cfg_hash)),
            ("body", self.body.clone()),
        ])
    }

    fn decode(data: &Json) -> Result<Self, SnapshotError> {
        Ok(Checkpoint {
            core: snapshot::get_str(data, "core")?.to_string(),
            cycle: snapshot::get_u64(data, "cycle")?,
            cfg_hash: snapshot::get_u64(data, "cfg_hash")?,
            body: snapshot::field(data, "body")?.clone(),
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
    /// The run hit [`RunLimits::stop_at`] and checkpointed.
    Paused(Checkpoint),
}

/// A configured simulation run over either core model.
///
/// Consuming builder: construct with [`SimSession::new`], optionally attach
/// [`SimSession::limits`] and [`SimSession::recorder`], then
/// [`SimSession::run`] or [`SimSession::resume`].
pub struct SimSession<'p, 'r> {
    program: &'p Program,
    core: CoreConfig,
    limits: RunLimits,
    recorder: Option<&'r mut Recorder>,
}

impl<'p, 'r> SimSession<'p, 'r> {
    /// A session over `program` on the given core, with default limits and
    /// no recorder.
    #[must_use]
    pub fn new(program: &'p Program, core: CoreConfig) -> SimSession<'p, 'r> {
        SimSession { program, core, limits: RunLimits::default(), recorder: None }
    }

    /// Sets the run limits (including the [`RunLimits::stop_at`] checkpoint
    /// boundary).
    #[must_use]
    pub fn limits(mut self, limits: RunLimits) -> Self {
        self.limits = limits;
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

    /// Hash binding a checkpoint to this exact (program, core
    /// configuration) pair. `Debug`-based, like the sweep memo keys: two
    /// sessions hash equal iff their configurations render identically.
    fn cfg_hash(&self) -> u64 {
        let core = imo_util::debug_hash(&self.core);
        let prog = imo_util::debug_hash(self.program);
        mix64(core, prog)
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
    /// the same program and core configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] if the checkpoint was taken on a
    /// different core or under a different configuration, or if its body
    /// fails to decode; otherwise as for [`SimSession::run`].
    pub fn resume(self, ckpt: &Checkpoint) -> Result<Outcome, SimError> {
        if ckpt.core != self.core.tag() {
            return Err(SimError::Checkpoint(SnapshotError::Kind {
                expected: self.core.tag(),
                found: ckpt.core.clone(),
            }));
        }
        if ckpt.cfg_hash != self.cfg_hash() {
            return Err(SimError::Checkpoint(SnapshotError::Bad("cfg_hash")));
        }
        self.go(Some(&ckpt.body))
    }

    fn go(self, resume: Option<&Json>) -> Result<Outcome, SimError> {
        let cfg_hash = self.cfg_hash();
        let SimSession { program, core, limits, recorder } = self;
        let outcome = match &core {
            CoreConfig::InOrder(cfg) => inorder::run(program, cfg, limits, recorder, resume)?,
            CoreConfig::Ooo(cfg) => ooo::run(program, cfg, limits, None, recorder, resume)?,
        };
        Ok(match outcome {
            RunOutcome::Done(result, state) => Outcome::Complete { result, state },
            RunOutcome::Paused { cycle, body } => {
                Outcome::Paused(Checkpoint { core: core.tag().to_string(), cycle, cfg_hash, body })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn session_matches_plain_simulate_on_both_cores() {
        let p = kernel();
        let ino = complete(
            SimSession::new(&p, CoreConfig::InOrder(InOrderConfig::paper())).run().unwrap(),
        );
        assert_eq!(
            ino,
            crate::inorder::simulate(&p, &InOrderConfig::paper(), RunLimits::default()).unwrap()
        );
        let ooo = complete(SimSession::new(&p, CoreConfig::Ooo(OooConfig::paper())).run().unwrap());
        assert_eq!(
            ooo,
            crate::ooo::simulate(&p, &OooConfig::paper(), RunLimits::default()).unwrap()
        );
    }

    #[test]
    fn pause_resume_is_bit_identical() {
        let p = kernel();
        for stop in [1, 17, 100, 300] {
            let core = CoreConfig::Ooo(OooConfig::paper());
            let baseline =
                crate::ooo::simulate(&p, &OooConfig::paper(), RunLimits::default()).unwrap();
            match SimSession::new(&p, core).limits(RunLimits::stop_at(stop)).run().unwrap() {
                Outcome::Paused(ckpt) => {
                    assert!(ckpt.cycle() >= stop);
                    let resumed = complete(SimSession::new(&p, core).resume(&ckpt).unwrap());
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
    fn plain_entry_points_report_paused() {
        let p = kernel();
        let err = crate::ooo::simulate(&p, &OooConfig::paper(), RunLimits::stop_at(5)).unwrap_err();
        // Fast-forwarding may jump past the requested boundary; the pause
        // lands at the first loop iteration at or after it.
        assert!(matches!(err, SimError::Paused { cycle } if cycle >= 5), "{err}");
    }

    #[test]
    fn resume_rejects_core_and_config_mismatches() {
        let p = kernel();
        let Outcome::Paused(ckpt) = SimSession::new(&p, CoreConfig::Ooo(OooConfig::paper()))
            .limits(RunLimits::stop_at(10))
            .run()
            .unwrap()
        else {
            panic!("pauses")
        };
        // Wrong core.
        let err = SimSession::new(&p, CoreConfig::InOrder(InOrderConfig::paper()))
            .resume(&ckpt)
            .unwrap_err();
        assert!(matches!(err, SimError::Checkpoint(SnapshotError::Kind { .. })), "{err}");
        // Wrong configuration.
        let mut cfg = OooConfig::paper();
        cfg.rob_entries += 1;
        let err = SimSession::new(&p, CoreConfig::Ooo(cfg)).resume(&ckpt).unwrap_err();
        assert!(matches!(err, SimError::Checkpoint(SnapshotError::Bad("cfg_hash"))), "{err}");
    }

    #[test]
    fn checkpoint_wire_round_trip_resumes() {
        let p = kernel();
        let core = CoreConfig::InOrder(InOrderConfig::paper());
        let baseline =
            crate::inorder::simulate(&p, &InOrderConfig::paper(), RunLimits::default()).unwrap();
        let Outcome::Paused(ckpt) =
            SimSession::new(&p, core).limits(RunLimits::stop_at(40)).run().unwrap()
        else {
            panic!("pauses")
        };
        let text = ckpt.to_wire().pretty();
        let back = Checkpoint::from_wire(&imo_util::json::parse(&text).unwrap()).expect("decodes");
        assert_eq!(back.to_wire().pretty(), text, "re-encode is byte-stable");
        let resumed = complete(SimSession::new(&p, core).resume(&back).unwrap());
        assert_eq!(resumed, baseline);
    }
}
