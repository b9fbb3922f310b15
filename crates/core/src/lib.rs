//! # Informing memory operations as a library
//!
//! This crate packages the contribution of *Informing Memory Operations:
//! Providing Memory Performance Feedback in Modern Processors* (Horowitz,
//! Martonosi, Mowry & Smith, ISCA 1996) as a reusable library on top of the
//! `imo-isa` / `imo-mem` / `imo-cpu` substrate:
//!
//! * [`mod@instrument`] — rewrites a plain program into an *informing* one,
//!   under either of the paper's two mechanisms (§2):
//!   the **low-overhead cache-miss trap** (MHAR/MHRR) with a single shared
//!   handler (zero hit overhead) or a unique handler per static reference
//!   (one `setmhar` per reference), and the **cache-outcome condition code**
//!   (an explicit `bmiss` check after each reference). Handler bodies range
//!   from the paper's generic data-dependent chains (§4.2) to miss counting,
//!   per-reference counting, PC-hash profiling (§4.1.1) and next-line
//!   prefetching (§4.1.2).
//! * [`Machine`] — the two processor models, re-exported from `imo-cpu`,
//!   whose `SimSession` is the one way to run them.
//! * [`profile`] — the §4.1.1 performance-monitoring tool: exact
//!   per-reference miss counts via informing operations.
//! * [`prefetch`] — the §4.1.2 adaptive prefetching technique: prefetches
//!   issued from the miss handler, so prefetch overhead is paid only when
//!   the program is actually missing.
//! * [`multithread`] — the §4.1.3 software-controlled multithreading
//!   technique: a miss handler that parks the interrupted thread and resumes
//!   another, with compiler-partitioned register sets.
//! * [`experiment`] — the §4.2 experiment harness behind Figures 2 and 3:
//!   N / single / unique × 1/10/100-instruction generic handlers, with
//!   graduation-slot breakdowns normalized to the uninstrumented run.
//!
//! ## Example: count misses with a one-instruction handler
//!
//! ```
//! use imo_core::instrument::{instrument, HandlerBody, HandlerKind, Scheme};
//! use imo_core::Machine;
//! use imo_isa::{Asm, Reg};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A tiny kernel: walk 64 words (16 cache lines -> 16 cold misses).
//! let mut a = Asm::new();
//! let (ptr, end, v) = (Reg::int(1), Reg::int(2), Reg::int(3));
//! a.li(ptr, 0x10_0000);
//! a.li(end, 0x10_0000 + 64 * 8);
//! let top = a.here("top");
//! a.load(v, ptr, 0);
//! a.addi(ptr, ptr, 8);
//! a.branch(imo_isa::Cond::Lt, ptr, end, top);
//! a.halt();
//! let plain = a.assemble()?;
//!
//! // Rewrite it with a single trap handler that counts misses in r27.
//! let scheme = Scheme::Trap { handlers: HandlerKind::Single, body: HandlerBody::CountInRegister };
//! let inst = instrument(&plain, &scheme)?;
//!
//! let (result, state) = Machine::default_ooo().run_full(&inst.program)?;
//! assert_eq!(state.int(Reg::int(27)), 16); // 16 lines touched -> 16 misses
//! assert_eq!(result.informing_traps, 16);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod adaptive;
pub mod experiment;
pub mod instrument;
pub mod multithread;
pub mod prefetch;
pub mod profile;

pub use experiment::{ExperimentResult, NormalizedBar, Variant};
pub use imo_cpu::Machine;
pub use instrument::{instrument, HandlerBody, HandlerKind, Instrumented, RefSite, Scheme};
