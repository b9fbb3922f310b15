//! # Benchmark harnesses for every table and figure
//!
//! Each `cargo bench` target in this crate regenerates one table or figure
//! of *Informing Memory Operations* (ISCA 1996):
//!
//! | target | reproduces |
//! |---|---|
//! | `table1` | Table 1 — processor simulation parameters (+ Figure 1 pipeline notes) |
//! | `fig2` | Figure 2 — 1- and 10-instruction generic handlers, 13 benchmarks × 2 machines |
//! | `fig3` | Figure 3 — the same for `su2cor` (the conflict pathology) |
//! | `handler100` | §4.2.2 — 100-instruction handlers (compress ~6×, su2cor ~7×, ora ~2 %) |
//! | `branch_vs_exception` | §4.2.2 — informing trap as branch vs exception on compress |
//! | `table2` | Table 2 — access-control machine and cost parameters |
//! | `fig4` | Figure 4 — three access-control schemes on five parallel apps |
//! | `fig4_sensitivity` | §4.3.2 — network-latency and L1-size sensitivity |
//! | `ablation_mshr` | §3.3 — MSHR lifetime extension (squash-invalidate) |
//! | `ablation_checkpoints` | §3.2 — shadow-checkpoint pressure under informing-as-branch |
//! | `fault_resilience` | fault-rate × backoff sweep of the resilient coherence protocol |
//! | `attrib` | miss attribution: every demand miss classified, reconciled exactly with the cache counters |
//! | `substrate` | wall-clock microbenches of the simulator substrate itself |
//! | `obs_overhead` | recorder identity proofs + observation wall-clock cost |
//! | `simspeed` | simulated cycles per host second, fast path vs tick-accurate, on both machines |
//!
//! Each target is a thin `benches/<name>.rs` main over a module in
//! [`targets`], which exposes `compute()`/`payload()`/`print()` separately
//! so the `ci_gate` binary can regenerate payloads without re-printing.
//! Deterministic targets declare their work as [`sweep`] matrices and fan
//! out across [`imo_util::pool`]; output is byte-identical at any thread
//! count.
//!
//! The expected shapes (who wins, by what factor) are recorded in
//! `EXPERIMENTS.md` alongside the paper's numbers. Every target also writes
//! a machine-readable baseline, `BENCH_<name>.json`, at the repository root
//! (see [`report::write_bench_json`]); [`gate`] holds the declarative
//! schemas and the drift-diff engine `ci_gate` checks them with.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod codec;
pub mod gate;
pub mod report;
pub mod runners;
pub mod sweep;
pub mod targets;

pub use report::{emit, experiments_to_json, fig4_to_json, fmt_bars, write_bench_json, Table};
pub use runners::{fig2_for, fig4_rows, Fig4Row};
pub use sweep::{cross2, cross3, CpuCell, Matrix, SweepSpec};
