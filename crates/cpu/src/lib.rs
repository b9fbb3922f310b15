//! # Cycle-level superscalar processor models with informing memory operations
//!
//! Two 4-issue processor models reproduce the simulation infrastructure of
//! *Informing Memory Operations* (ISCA 1996, §4.2.1, Table 1):
//!
//! * [`inorder`] — an in-order-issue machine modelled on the Alpha 21164:
//!   presence-bit (scoreboard) stall model, hit-speculative issue of load
//!   consumers with a replay trap on misses, and memory operations sharing
//!   the integer pipes.
//! * [`ooo`] — an out-of-order-issue machine modelled on the MIPS R10000:
//!   register renaming with a bounded number of branch shadow checkpoints, a
//!   32-entry reorder buffer, per-class functional units, in-order
//!   graduation, and the §3.3 MSHR-lifetime extension for speculative
//!   informing loads.
//!
//! Both models share a front end with a 2-bit-counter branch
//! predictor, instruction-cache modelling, and the *correct-path-with-
//! bubbles* fetch discipline: instructions are executed functionally in
//! program order (so informing hit/miss outcomes are deterministic and the
//! architectural path — including miss-handler invocations — is exact),
//! while control-flow surprises (branch mispredictions, informing traps)
//! insert fetch bubbles until the surprising instruction resolves in the
//! timing model. Wrong-path instructions consume front-end time but no
//! functional units; the paper's wrong-path cache pollution concern (§3.3)
//! is modelled by the MSHR machinery in `imo-mem` and exercised by the
//! `ablation_mshr` bench.
//!
//! The informing trap can be handled like a mispredicted **branch** (the
//! handler starts as soon as the miss is detected) or like an **exception**
//! (the handler starts when the missing operation reaches the head of the
//! reorder buffer); see [`TrapModel`]. The paper measured the exception
//! treatment 7–9 % slower on `compress`.
//!
//! A [`Machine`] names one of the two models with its configuration, and a
//! [`SimSession`] is the one way to run it: limits, a checkpoint boundary
//! and an observability recorder are optional builder fields. The
//! `Machine::run*` methods cover the common cases;
//! [`ooo::simulate_traced`] adds per-instruction pipeline traces.
//!
//! ## Example
//!
//! ```
//! use imo_isa::{Asm, Reg};
//! use imo_cpu::{Machine, OooConfig};
//!
//! let mut a = Asm::new();
//! let r1 = Reg::int(1);
//! a.li(r1, 0x4000);
//! a.load(Reg::int(2), r1, 0);
//! a.halt();
//! let p = a.assemble().expect("assembles");
//!
//! let result = Machine::OutOfOrder(OooConfig::default()).run(&p).expect("simulation completes");
//! assert!(result.cycles > 0);
//! assert_eq!(result.mem.l1d_misses, 1); // the cold miss
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod ckpt;
pub mod config;
mod frontend;
pub mod inorder;
mod machine;
pub mod ooo;
pub mod predictor;
pub mod result;
pub mod sched;
pub mod session;
pub mod speed;
pub mod trace;

pub use config::{InOrderConfig, OooConfig, TrapModel};
pub use machine::Machine;
pub use result::{RunLimits, RunResult, SimError, SlotBreakdown};
pub use session::{Checkpoint, Outcome, SimSession};
