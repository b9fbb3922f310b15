//! Fault-injection suites: determinism of message-drop schedules, protocol
//! safety on a lossy interconnect, and reachability of every typed failure
//! mode.
//!
//! The contract under test: a `FaultPlan` is a *pure function of its seed* —
//! rerunning any simulation with the same plan reproduces every counter — and
//! the zero-fault plan is bit-identical to the fault-free path.

use imo_faults::{FaultConfig, FaultPlan};
use imo_util::check::Checker;
use imo_util::ensure_eq;
use informing_memops::coherence::{
    simulate, simulate_baseline, simulate_faulty, simulate_faulty_full, MachineParams, Scheme,
    SimError,
};
use informing_memops::workloads::parallel::{all_apps, migratory, TraceConfig};

fn trace_cfg(procs: usize, seed: u64) -> TraceConfig {
    TraceConfig { procs, ops_per_proc: 2_500, seed }
}

fn lossy(seed: u64, drop_rate: f64) -> FaultPlan {
    FaultPlan::new(FaultConfig { seed, drop_rate })
}

#[test]
fn same_seed_reproduces_every_counter() {
    Checker::new("same_seed_reproduces_every_counter").cases(12).run(|g| {
        let t = migratory(&trace_cfg(4, g.int(0u64..1 << 20)));
        let plan = lossy(g.int(0u64..1 << 20), 0.1);
        let params = MachineParams::table2();
        let scheme = *g.pick(&[Scheme::RefCheck, Scheme::Ecc, Scheme::Informing]);
        let a = simulate_faulty(&t, scheme, &params, &plan);
        let b = simulate_faulty(&t, scheme, &params, &plan);
        ensure_eq!(a, b, "fault schedules must be pure functions of the seed");
        Ok(())
    });
}

#[test]
fn zero_fault_plan_is_bit_identical_to_baseline() {
    let params = MachineParams::table2();
    for app in all_apps(&trace_cfg(8, 42)) {
        for scheme in Scheme::all() {
            let base = simulate_baseline(&app, scheme, &params);
            let faulty = simulate_faulty(&app, scheme, &params, &FaultPlan::none())
                .expect("zero-fault run completes");
            assert_eq!(base, faulty, "{}/{}", app.name, scheme.name());
            assert_eq!(faulty.retries, 0);
            assert_eq!(faulty.dropped_msgs, 0);
        }
    }
}

#[test]
fn protocol_invariants_hold_under_drop_dup_delay() {
    Checker::new("protocol_invariants_hold_under_drop_dup_delay").cases(12).run(|g| {
        let t = migratory(&trace_cfg(g.int(2usize..8), g.int(0u64..1 << 20)));
        let plan = lossy(g.int(0u64..1 << 20), 0.2 * g.int(0u64..100) as f64 / 100.0);
        let params = MachineParams::table2();
        let (r, dir) = simulate_faulty_full(&t, Scheme::Informing, &params, &plan)
            .map_err(|e| format!("moderate fault rates must recover: {e}"))?;
        dir.check_invariants()?;
        ensure_eq!(r.ops, t.per_proc.iter().map(|v| v.len() as u64).sum::<u64>());
        // Every loss shows up as exactly one timeout and one retry.
        ensure_eq!(r.retries, r.dropped_msgs);
        ensure_eq!(r.timeouts, r.dropped_msgs);
        Ok(())
    });
}

#[test]
fn losses_recover_via_retry_and_cost_cycles() {
    let t = migratory(&trace_cfg(8, 9));
    let params = MachineParams::table2();
    let base = simulate_baseline(&t, Scheme::Informing, &params);
    let r = simulate_faulty(&t, Scheme::Informing, &params, &lossy(3, 0.2))
        .expect("20% loss recovers via retry");
    assert!(r.retries > 0, "a 20% drop rate must force retries");
    assert!(
        r.total_cycles > base.total_cycles,
        "timeouts and backoff must cost cycles: {} vs {}",
        r.total_cycles,
        base.total_cycles
    );
    // Timing shifts reorder the cross-processor interleaving (so action
    // counts may differ), but every reference must still complete.
    assert_eq!(r.ops, base.ops, "recovery must not lose references");
}

#[test]
fn retry_exhaustion_is_a_typed_error_with_snapshot() {
    let t = migratory(&trace_cfg(4, 1));
    let mut params = MachineParams::table2();
    params.backoff.max_retries = 3;
    params.limits.watchdog_failures = 100; // watchdog must not fire first
    let err = simulate_faulty(&t, Scheme::Informing, &params, &lossy(2, 1.0))
        .expect_err("total loss with a tight retry cap must fail");
    match err {
        SimError::RetryExhausted { attempts, snapshot, .. } => {
            assert_eq!(attempts, 4, "max_retries + 1 delivery attempts");
            assert!(snapshot.ownership.contains("line"), "{}", snapshot.ownership);
        }
        other => panic!("expected RetryExhausted, got {other}"),
    }
}

#[test]
fn watchdog_turns_total_loss_into_deadlock_with_diagnosis() {
    let t = migratory(&trace_cfg(4, 1));
    let mut params = MachineParams::table2();
    params.backoff.max_retries = 1_000; // retries alone would grind forever
    params.limits.watchdog_failures = 8;
    let err = simulate_faulty(&t, Scheme::Informing, &params, &lossy(2, 1.0))
        .expect_err("the watchdog must declare deadlock");
    match err {
        SimError::Deadlock { cycle, snapshot } => {
            assert!(cycle > 0);
            assert!(snapshot.pending_procs > 0);
            assert!(snapshot.attempts >= 8);
            let msg = SimError::Deadlock { cycle, snapshot }.to_string();
            assert!(msg.contains("stuck on"), "diagnosis must name the line: {msg}");
        }
        other => panic!("expected Deadlock, got {other}"),
    }
}

#[test]
fn event_budget_bounds_every_run() {
    let t = migratory(&trace_cfg(4, 1));
    let mut params = MachineParams::table2();
    params.limits.event_budget = 100;
    let err = simulate(&t, Scheme::Informing, &params).expect_err("100 events is too few");
    assert_eq!(err, SimError::EventBudget { budget: 100 });
}

#[test]
fn more_than_64_procs_is_rejected() {
    let t = migratory(&TraceConfig { procs: 65, ops_per_proc: 10, seed: 0 });
    let err = simulate(&t, Scheme::Informing, &MachineParams::table2())
        .expect_err("the sharer bitset holds 64 nodes");
    assert_eq!(err, SimError::TooManyProcs { procs: 65 });
}
