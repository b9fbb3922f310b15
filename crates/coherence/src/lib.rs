//! # Cache coherence with fine-grained access control (§4.3)
//!
//! The paper's case study: enforcing cache coherence for parallel programs
//! with *fine-grained access control*, comparing three software schemes that
//! need no specialised coherence hardware:
//!
//! * **Reference checking** (Blizzard-S-like) — every potentially-shared
//!   reference executes an inline protection lookup (18 cycles; Table 2).
//! * **ECC faults** (Blizzard-E-like) — invalid blocks are poisoned with bad
//!   ECC; reads to them fault (250 cycles), and writes to any block on a
//!   page containing READONLY data pay the page-protection cost (230
//!   cycles). Valid accesses are free.
//! * **Informing memory operations** — the protection lookup runs in the
//!   cache-miss handler (33 cycles: 6-cycle pipeline delay + 9 handler
//!   cycles + lookup), so it is paid *only on primary misses*; invalid
//!   blocks are evicted from the cache so that accessing them always
//!   misses, and a store to a block held without write permission is a
//!   write miss and likewise informs.
//!
//! The simulator is event-driven at the reference level (the paper used the
//! TangoLite direct-execution simulator for the same reason: the detailed
//! pipeline models are too slow for 16-processor runs). Protocol state
//! changes are applied atomically at the home node while their latency is
//! charged to the requesting processor — remote protocol operations use
//! user-level DMA and never interrupt the remote processor, as in the paper.
//!
//! ## Resilience
//!
//! The protocol runs over a *lossy* interconnect when driven by an
//! [`imo_faults::FaultPlan`] ([`simulate_faulty`]): directory requests can be
//! dropped per the plan's deterministic schedule. Lost requests time out and
//! are re-sent under a capped exponential [`BackoffPolicy`]. [`SimLimits`]
//! bounds every run — an event budget, a per-request
//! retry cap and a forward-progress watchdog turn pathological schedules into
//! typed [`SimError`]s instead of hangs, and deadlock reports carry a
//! [`ProgressSnapshot`] of the stuck line's ownership.
//!
//! ## Example
//!
//! ```
//! use imo_coherence::{simulate, MachineParams, Scheme};
//! use imo_workloads::parallel::{migratory, TraceConfig};
//!
//! let trace = migratory(&TraceConfig { procs: 4, ops_per_proc: 500, seed: 1 });
//! let params = MachineParams::table2();
//! let inf = simulate(&trace, Scheme::Informing, &params).expect("within limits");
//! let ecc = simulate(&trace, Scheme::Ecc, &params).expect("within limits");
//! assert!(inf.total_cycles < ecc.total_cycles); // write-heavy: ECC pays page faults
//! ```
//!
//! Injecting faults (deterministic per seed):
//!
//! ```
//! use imo_coherence::{simulate_faulty, MachineParams, Scheme};
//! use imo_faults::{FaultConfig, FaultPlan};
//! use imo_workloads::parallel::{migratory, TraceConfig};
//!
//! let trace = migratory(&TraceConfig { procs: 4, ops_per_proc: 500, seed: 1 });
//! let plan = FaultPlan::new(FaultConfig { seed: 7, drop_rate: 0.05 });
//! let r = simulate_faulty(&trace, Scheme::Informing, &MachineParams::table2(), &plan)
//!     .expect("recovers via retry");
//! assert_eq!(r.retries, r.dropped_msgs); // every loss was retried
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod config;
pub mod error;
pub mod protocol;
pub mod sim;
pub mod snap;

pub use config::{BackoffPolicy, MachineParams, Scheme, SchemeCosts, SimLimits};
pub use error::{ProgressSnapshot, SimError};
pub use protocol::{Directory, LineState};
pub use sim::{
    simulate, simulate_baseline, simulate_faulty, simulate_faulty_full, simulate_observed,
    SimResult,
};
pub use snap::{CohCheckpoint, CohOutcome, CohSession};
