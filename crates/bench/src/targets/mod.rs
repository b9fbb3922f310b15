//! One module per bench target: the computation behind each table/figure,
//! factored out of the `benches/*.rs` binaries so the `ci_gate` binary can
//! regenerate every baseline payload in-memory and diff it against the
//! committed `BENCH_*.json`.
//!
//! Every module follows the same shape:
//!
//! * `compute()` — the deterministic (or, for the wall-clock targets,
//!   host-timed) sweep, declared as [`crate::sweep`] cells and fanned out
//!   across the pool;
//! * `payload(&Output)` — the JSON baseline payload, exactly what the bench
//!   binary hands to [`crate::report::emit`];
//! * `print(&Output)` — the human report the bench binary writes to stdout;
//! * `run()` — print + emit, the whole body of the thin bench binary.
//!
//! [`registry`] enumerates all targets for the gate.

use imo_util::json::Json;

pub mod ablation_checkpoints;
pub mod ablation_mshr;
pub mod attrib;
pub mod branch_vs_exception;
pub mod fault_resilience;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig4_sensitivity;
pub mod handler100;
pub mod obs_overhead;
pub mod simspeed;
pub mod substrate;
pub mod table1;
pub mod table2;

/// One registered bench target, as seen by `ci_gate`.
pub struct Target {
    /// Baseline name: the `<name>` of `BENCH_<name>.json`.
    pub name: &'static str,
    /// Whether the payload contains host wall-clock timings (these fields
    /// are compared with tolerance bands rather than exactly).
    pub wall_clock: bool,
    /// Regenerates the baseline payload in-memory, without writing files.
    pub payload: fn() -> Json,
}

/// Every bench target, in `EXPERIMENTS.md` presentation order.
#[must_use]
pub fn registry() -> Vec<Target> {
    fn t(name: &'static str, wall_clock: bool, payload: fn() -> Json) -> Target {
        Target { name, wall_clock, payload }
    }
    vec![
        t("table1", false, || table1::payload(&table1::compute())),
        t("fig2", false, || fig2::payload(&fig2::compute())),
        t("fig3", false, || fig3::payload(&fig3::compute())),
        t("handler100", false, || handler100::payload(&handler100::compute())),
        t("branch_vs_exception", false, || {
            branch_vs_exception::payload(&branch_vs_exception::compute())
        }),
        t("table2", false, || table2::payload(&table2::compute())),
        t("fig4", false, || fig4::payload(&fig4::compute())),
        t("fig4_sensitivity", false, || fig4_sensitivity::payload(&fig4_sensitivity::compute())),
        t("ablation_mshr", false, || ablation_mshr::payload(&ablation_mshr::compute())),
        t("ablation_checkpoints", false, || {
            ablation_checkpoints::payload(&ablation_checkpoints::compute())
        }),
        t("fault_resilience", false, || fault_resilience::payload(&fault_resilience::compute())),
        t("attrib", false, || attrib::payload(&attrib::compute())),
        t("substrate", true, || substrate::payload(&substrate::compute())),
        t("obs_overhead", true, || obs_overhead::payload(&obs_overhead::compute())),
        t("simspeed", true, || simspeed::payload(&simspeed::compute())),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_complete() {
        let targets = registry();
        assert_eq!(targets.len(), 15);
        let mut names: Vec<_> = targets.iter().map(|t| t.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 15, "duplicate target names");
        assert_eq!(targets.iter().filter(|t| t.wall_clock).count(), 3);
    }
}
