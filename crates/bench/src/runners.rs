//! Shared experiment runners used by the bench targets, built on the
//! deterministic parallel sweep engine in [`crate::sweep`]: both run their
//! cells through the memo, so a cell another target already ran is not
//! simulated again.

use imo_coherence::{MachineParams, Scheme, SimResult};
use imo_core::experiment::{ExperimentResult, Variant};
use imo_workloads::parallel::TraceConfig;
use imo_workloads::Scale;

use crate::sweep::{coh_cells, cpu_cells, run_cpu_cells, SweepSpec};

/// Runs the Figure 2/3 variant set for one workload on both machines
/// (a 1 × 2 sweep; the full-figure targets fan out all workloads at once).
///
/// # Panics
///
/// Panics if the workload name is unknown or a simulation fails — the bench
/// harness has no useful recovery.
pub fn fig2_for(name: &'static str, scale: Scale, variants: &[Variant]) -> Vec<ExperimentResult> {
    run_cpu_cells("fig2_for", cpu_cells(&[name], scale, variants))
}

/// One row of Figure 4: an application's normalized execution time under the
/// three access-control schemes.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Row {
    /// Application name.
    pub app: &'static str,
    /// Raw results in `[RefCheck, Ecc, Informing]` order.
    pub results: [SimResult; 3],
    /// Execution times normalized to the informing scheme.
    pub normalized: [f64; 3],
}

/// Runs Figure 4: every application under every scheme, as an app-major
/// app × scheme sweep of [`crate::sweep::CohCell`]s across the pool.
pub fn fig4_rows(trace_cfg: &TraceConfig, params: &MachineParams) -> Vec<Fig4Row> {
    let results = SweepSpec::new("fig4", coh_cells(*trace_cfg, *params)).run(|_, cell| cell.run());
    results
        .chunks_exact(Scheme::all().len())
        .map(|chunk| {
            let results: [SimResult; 3] = [chunk[0].clone(), chunk[1].clone(), chunk[2].clone()];
            let base = results[2].total_cycles.max(1) as f64;
            let normalized = [
                results[0].total_cycles as f64 / base,
                results[1].total_cycles as f64 / base,
                results[2].total_cycles as f64 / base,
            ];
            Fig4Row { app: results[0].app, results, normalized }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use imo_core::experiment::figure2_variants;

    #[test]
    fn fig2_runner_produces_both_machines() {
        let res = fig2_for("ora", Scale::Test, &figure2_variants());
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].machine, "ooo");
        assert_eq!(res[1].machine, "in-order");
        assert_eq!(res[0].bars.len(), 5);
    }

    #[test]
    fn fig4_runner_covers_all_apps_and_schemes() {
        let cfg = TraceConfig { procs: 4, ops_per_proc: 1500, seed: 3 };
        let rows = fig4_rows(&cfg, &MachineParams::table2());
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!((r.normalized[2] - 1.0).abs() < 1e-12, "informing is the baseline");
        }
    }
}
