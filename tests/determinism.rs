//! Guards the in-tree PRNG swap: every experiment runner must be a pure
//! function of its seed. Two runs with identical inputs have to produce
//! *identical* results — any divergence means hidden state (HashMap
//! iteration order, wall-clock, ...) leaked into the simulation.
//!
//! The runners memoize (in process and on disk), so calling one twice
//! proves nothing: the second call returns the first one's value. Each
//! test therefore simulates twice directly, without the memo, and also
//! demands that the memoized runner returns exactly what direct simulation
//! does.

use imo_bench::sweep::both_machines;
use imo_bench::{fig2_for, fig4_rows};
use informing_memops::coherence::{simulate_baseline, MachineParams, Scheme, SimResult};
use informing_memops::core::experiment::{figure2_variants, run_experiment, ExperimentResult};
use informing_memops::cpu::RunLimits;
use informing_memops::workloads::parallel::{all_apps, TraceConfig};
use informing_memops::workloads::{by_name, Scale};

/// Figure 2's variant set for `ora` on both machines, simulated directly.
fn fig2_direct() -> Vec<ExperimentResult> {
    let program = (by_name("ora").expect("ora exists").build)(Scale::Test);
    both_machines()
        .iter()
        .map(|m| {
            run_experiment("ora", &program, m, &figure2_variants(), RunLimits::default())
                .expect("experiment runs")
        })
        .collect()
}

/// Every app × scheme baseline of a Figure 4 sweep, simulated directly, in
/// `fig4_rows`' app-major order.
fn fig4_direct(cfg: &TraceConfig, params: &MachineParams) -> Vec<SimResult> {
    all_apps(cfg)
        .iter()
        .flat_map(|app| Scheme::all().map(|scheme| simulate_baseline(app, scheme, params)))
        .collect()
}

#[test]
fn fig2_runner_is_deterministic() {
    let a = fig2_direct();
    let b = fig2_direct();
    assert_eq!(a, b, "direct simulation must be reproducible run-to-run");
    let memo = fig2_for("ora", Scale::Test, &figure2_variants());
    assert_eq!(memo, a, "fig2_for must return what direct simulation does");
    // And byte-identical through the JSON path used for BENCH_fig2.json.
    let ja = imo_bench::experiments_to_json(&a).pretty();
    let jm = imo_bench::experiments_to_json(&memo).pretty();
    assert_eq!(jm, ja);
}

#[test]
fn fig4_runner_is_deterministic_per_seed() {
    let cfg = TraceConfig { procs: 4, ops_per_proc: 1200, seed: 7 };
    let params = MachineParams::table2();
    let a = fig4_direct(&cfg, &params);
    let b = fig4_direct(&cfg, &params);
    assert_eq!(a, b, "direct simulation must be reproducible for a fixed seed");
    let rows = fig4_rows(&cfg, &params);
    let memo: Vec<SimResult> = rows.iter().flat_map(|r| r.results.clone()).collect();
    assert_eq!(memo, a, "fig4_rows must return what direct simulation does");

    // A different seed must actually change the generated traces — otherwise
    // the "determinism" above would be vacuous. Through the runner, this
    // also proves the memo key holds the seed.
    let other = TraceConfig { seed: 8, ..cfg };
    assert_ne!(rows, fig4_rows(&other, &params), "the trace seed must influence the simulation");
}
