//! # Memory-hierarchy substrate
//!
//! Cache and memory models underlying the cycle-level processor simulators in
//! `imo-cpu`, built to the parameters of Table 1 of *Informing Memory
//! Operations* (ISCA 1996):
//!
//! * [`Cache`] — a set-associative, write-allocate, write-back cache model
//!   with true-LRU replacement, line invalidation (needed by the §3.3
//!   squash-invalidate mechanism and the coherence case study), and
//!   statistics.
//! * [`MshrFile`] — Miss Status Handling Registers for a lockup-free primary
//!   cache, including the paper's §3.3 *lifetime extension*: an MSHR is held
//!   until its memory operation graduates or is squashed, and a squash
//!   invalidates the (possibly already-filled) line so that speculative
//!   informing loads can never silently install primary-cache state.
//! * [`MemoryHierarchy`] — the two-level hierarchy used by the processor
//!   models. It separates *state* (which level serves a reference, updated in
//!   program order via [`MemoryHierarchy::probe_data`]) from *timing*
//!   (completion cycles under bank, MSHR and main-memory-bandwidth
//!   contention, via [`MemoryHierarchy::schedule_data`]).
//!
//! The separation mirrors how the informing mechanism is defined: the
//! hit/miss *outcome* of a reference is architectural (it decides whether the
//! miss handler runs) and must be deterministic in program order, while the
//! *latency* of the reference is a microarchitectural matter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod cache;
pub mod config;
pub mod hier;
pub mod mshr;

pub use cache::{Cache, CacheStats, Probe};
pub use config::{CacheConfig, HierarchyConfig, HitLevel};
pub use hier::{AccessTiming, MemoryHierarchy, ProbeResult};
pub use mshr::{MshrFile, MshrId, MshrMode};
