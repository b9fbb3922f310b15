//! **Fault-resilience sweep**: the §4.3 coherence protocol on an
//! *unreliable* interconnect, across message-loss rates and retry/backoff
//! policies. Two matrices fanned out across the pool:
//!
//! 1. **Zero-fault identity** — an app × scheme sweep proving a run driven
//!    by a zero-drop-rate `FaultPlan` is bit-identical to the fault-free
//!    baseline (the fault hooks may cost nothing when no fault fires).
//! 2. **Recovery cost** — a policy × drop-rate sweep of completion-time
//!    slowdown vs the fault-free run, plus retry and timeout counters.

use imo_coherence::{simulate_faulty, BackoffPolicy, MachineParams, Scheme};
use imo_faults::{FaultConfig, FaultPlan};
use imo_util::json::Json;
use imo_workloads::parallel::{app_by_name, TraceConfig};

use crate::report::{emit, Table};
use crate::sweep::{coh_cells, cross2, CohCell, SweepSpec};

const DROP_RATES: [f64; 5] = [0.0, 0.02, 0.05, 0.10, 0.20];
const FAULT_SEED: u64 = 0x1996;

fn policies() -> [(&'static str, BackoffPolicy); 3] {
    let default = MachineParams::table2().backoff;
    let aggressive = BackoffPolicy { base: 100, multiplier: 2, cap: 1_000, max_retries: 32 };
    let conservative = BackoffPolicy { base: 1_000, multiplier: 4, cap: 32_000, max_retries: 16 };
    [("aggressive", aggressive), ("default", default), ("conservative", conservative)]
}

fn trace_config() -> TraceConfig {
    TraceConfig { procs: 8, ops_per_proc: 8_000, seed: 0x1996 }
}

/// One sweep cell's outcome.
pub struct SweepCell {
    /// Backoff policy name.
    pub policy: &'static str,
    /// The policy's parameters.
    pub backoff: BackoffPolicy,
    /// Message drop rate.
    pub drop_rate: f64,
    /// The faulty run's result.
    pub result: imo_coherence::SimResult,
}

/// Identity proof plus the policy × rate sweep.
pub struct Output {
    /// `(app, scheme, identical)` per identity cell; all must be true.
    pub identity: Vec<(&'static str, &'static str, bool)>,
    /// Fault-free baseline cycles of the sweep trace.
    pub baseline_cycles: u64,
    /// The policy-major × drop-rate sweep.
    pub sweep: Vec<SweepCell>,
}

/// Runs both matrices across the pool.
///
/// # Panics
///
/// Panics if a zero-fault run differs from the baseline (the identity
/// proof) or a sweep run fails to recover via retry.
#[must_use]
pub fn compute() -> Output {
    let cfg = trace_config();
    let params = MachineParams::table2();

    // 1. Zero-fault identity across every app and scheme. The baseline may
    // come from the memo; the zero-fault run never does, since it is the
    // proof.
    let identity = SweepSpec::new("fault_identity", coh_cells(cfg, params)).run(|_, cell| {
        let trace = (cell.app.build)(&cfg);
        let faulty = simulate_faulty(&trace, cell.scheme, &params, &FaultPlan::none())
            .expect("zero-fault run completes");
        (cell.app.name, cell.scheme.name(), cell.run() == faulty)
    });

    // 2. Drop-rate x backoff-policy sweep on the migratory app.
    // Dedups against the identity sweep's migratory/informing cell above.
    let app = app_by_name("migratory").expect("migratory exists");
    let base = CohCell { app, trace: cfg, scheme: Scheme::Informing, params }.run();
    let trace = (app.build)(&cfg);
    let cells = cross2(&policies(), &DROP_RATES);
    let sweep = SweepSpec::new("fault_resilience", cells).run(|_, ((name, backoff), rate)| {
        let mut p = params;
        p.backoff = backoff;
        let plan = FaultPlan::new(FaultConfig { seed: FAULT_SEED, drop_rate: rate });
        let result = simulate_faulty(&trace, Scheme::Informing, &p, &plan)
            .expect("sweep rates recover via retry");
        SweepCell { policy: name, backoff, drop_rate: rate, result }
    });

    Output { identity, baseline_cycles: base.total_cycles, sweep }
}

/// Whether every zero-fault run was bit-identical to its baseline.
#[must_use]
pub fn all_identical(out: &Output) -> bool {
    out.identity.iter().all(|(_, _, ok)| *ok)
}

/// The baseline payload.
#[must_use]
pub fn payload(out: &Output) -> Json {
    let base = out.baseline_cycles;
    let rows = out.sweep.iter().map(|c| {
        Json::obj([
            ("policy", Json::from(c.policy)),
            ("base", Json::from(c.backoff.base)),
            ("multiplier", Json::from(c.backoff.multiplier)),
            ("cap", Json::from(c.backoff.cap)),
            ("drop_rate", Json::from(c.drop_rate)),
            ("total_cycles", Json::from(c.result.total_cycles)),
            ("slowdown", Json::from(c.result.total_cycles as f64 / base as f64)),
            ("retries", Json::from(c.result.retries)),
            ("timeouts", Json::from(c.result.timeouts)),
            ("dropped_msgs", Json::from(c.result.dropped_msgs)),
        ])
    });
    Json::obj([
        ("zero_fault_identical", Json::Bool(all_identical(out))),
        ("baseline_cycles", Json::from(base)),
        ("sweep", Json::arr(rows)),
    ])
}

/// Prints the identity verdict and the sweep table.
///
/// # Panics
///
/// Panics if any zero-fault run differed from its baseline.
pub fn print(out: &Output) {
    println!("FAULT RESILIENCE. Coherence protocol recovery on a lossy interconnect.");
    println!("(migratory app, Table 2 machine; slowdown vs the fault-free run)\n");

    for (app, scheme, ok) in &out.identity {
        if !ok {
            eprintln!("MISMATCH: {app}/{scheme} differs under the zero-fault plan");
        }
    }
    assert!(all_identical(out), "zero-fault runs must be bit-identical to the baseline");
    println!("zero-fault identity: all apps x schemes bit-identical to baseline\n");

    let mut t =
        Table::new(["policy", "drop rate", "slowdown", "retries", "timeouts", "backoff cycles"]);
    for c in &out.sweep {
        t.row([
            c.policy.to_string(),
            format!("{:.2}", c.drop_rate),
            format!("{:.3}", c.result.total_cycles as f64 / out.baseline_cycles as f64),
            c.result.retries.to_string(),
            c.result.timeouts.to_string(),
            format!("{}..{}", c.backoff.delay(0), c.backoff.cap),
        ]);
    }
    print!("{}", t.render());
}

/// The whole bench target: compute, print, write the baseline.
pub fn run() {
    let out = compute();
    print(&out);
    emit("fault_resilience", payload(&out));
}
