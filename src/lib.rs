//! # informing-memops
//!
//! A Rust reproduction of *Informing Memory Operations: Providing Memory
//! Performance Feedback in Modern Processors* (Horowitz, Martonosi, Mowry &
//! Smith, ISCA 1996).
//!
//! This façade crate re-exports the workspace's member crates:
//!
//! * [`util`] — the zero-dependency substrate: seeded PRNG, deterministic
//!   property-test harness, wall-clock micro-bench runner, JSON, and the
//!   shared stats/report layer (no external crates anywhere in the tree).
//! * [`isa`] — the IRIS instruction set with informing-memory extensions,
//!   an assembler DSL and a functional executor.
//! * [`mem`] — the cache/memory-hierarchy substrate (set-associative caches,
//!   lockup-free MSHRs, banked L1, finite-bandwidth main memory).
//! * [`cpu`] — cycle-level 4-issue in-order (Alpha-21164-like) and
//!   out-of-order (MIPS-R10000-like) processor models.
//! * [`core`] — the paper's contribution as a library: instrumentation of
//!   programs with informing memory operations, generic and purpose-built
//!   miss handlers (profiling, prefetching, multithreading), and the
//!   experiment framework behind the paper's figures.
//! * [`workloads`] — SPEC92-like benchmark kernels written in IRIS.
//! * [`coherence`] — the §4.3 case study: fine-grained access control for
//!   cache coherence on a simulated 16-processor machine, with a resilient
//!   directory protocol (retry/backoff, timeouts, forward-progress watchdog).
//! * [`faults`] — deterministic, seed-driven message drops on the coherence
//!   interconnect, which the directory protocol survives by retrying.
//! * [`obs`] — the deterministic observability layer: typed event tracing
//!   into a bounded ring buffer, a shared metrics registry with latency
//!   histograms, exact CPI-stack cycle attribution, and Chrome-trace /
//!   flamegraph exporters (see `examples/observe.rs`).
//!
//! See `README.md` for a quickstart and `DESIGN.md` / `EXPERIMENTS.md` for
//! the system inventory and the per-figure reproduction notes.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub use imo_coherence as coherence;
pub use imo_core as core;
pub use imo_cpu as cpu;
pub use imo_faults as faults;
pub use imo_isa as isa;
pub use imo_mem as mem;
pub use imo_obs as obs;
pub use imo_util as util;
pub use imo_workloads as workloads;
