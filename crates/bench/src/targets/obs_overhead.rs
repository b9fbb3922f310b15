//! Observability-overhead bench: proves the recorder is free when disabled
//! and measures what it costs when enabled.
//!
//! 1. **Identity** — a workload × machine sweep (fanned out across the
//!    pool): runs under a disabled and a fully-enabled recorder must return
//!    results *bit-identical* to the unobserved run, and likewise for the
//!    coherence simulator on every scheme.
//! 2. **Wall-clock overhead** — host time for the plain, disabled-recorder,
//!    full-recorder and attribution-on runs of a representative kernel on
//!    each machine; serial, for timing fidelity. The attribution column is
//!    additionally bounded by a hard ceiling ([`ATTRIB_CEILING`]).
//! 3. **Fast-path engagement** — the `imo_cpu::speed` counter deltas over
//!    each machine's observed runs, published as the exact
//!    `observed_batched_instr_pct`: observation must not switch off block
//!    batching, so this reads the same nonzero share as a plain run.

use imo_coherence::{simulate_baseline, simulate_observed, MachineParams, Scheme};
use imo_core::Machine;
use imo_cpu::speed::{speed_stats, SpeedStats};
use imo_faults::FaultPlan;
use imo_obs::Recorder;
use imo_util::json::Json;
use imo_util::Bench;
use imo_workloads::parallel::{migratory, TraceConfig};
use imo_workloads::{spec, Scale};

use crate::report::{emit, Table};
use crate::sweep::SweepSpec;

/// Hard ceiling on the attribution-on / plain wall-clock ratio. The
/// streaming analyzer is O(log window) per access, so anything past this
/// is a real regression, not host noise.
pub const ATTRIB_CEILING: f64 = 10.0;

/// Builds a fresh recorder for one observed run on a machine.
type MakeRecorder = fn(&Machine) -> Recorder;

/// A disabled recorder with the miss-attribution analyzer attached —
/// the `why_miss` configuration.
fn attrib_recorder(m: &Machine) -> Recorder {
    let mut rec = Recorder::disabled();
    rec.enable_attribution(m.attrib_config());
    rec
}

/// The identity proofs and host timings.
pub struct Output {
    /// Per-workload CPU identity failures (`workload/machine recorder`).
    pub cpu_mismatches: Vec<String>,
    /// Per-scheme coherence identity failures.
    pub coh_mismatches: Vec<String>,
    /// The host-time bench runner.
    pub bench: Bench,
    /// Fast-path counters over each machine's serial observed runs, keyed
    /// by the machine's timing-id prefix.
    pub observed_fast: Vec<(&'static str, SpeedStats)>,
}

/// Checks one workload on both machines under both recorder modes,
/// returning mismatch descriptions (empty = bit-identical).
fn cpu_identity(name: &'static str) -> Vec<String> {
    let s = spec::by_name(name).expect("workload exists");
    let p = (s.build)(Scale::Test);
    let mut mismatches = Vec::new();
    for m in [Machine::default_ooo(), Machine::default_in_order()] {
        let plain = m.run(&p).expect("runs");
        let modes = [
            ("disabled", Recorder::disabled()),
            ("full", Recorder::all()),
            ("attrib", attrib_recorder(&m)),
        ];
        for (label, mut rec) in modes {
            let (o, _) = m.run_observed(&p, &mut rec).expect("runs");
            if o != plain {
                mismatches.push(format!("{name}/{} differs under the {label} recorder", m.name()));
            }
        }
    }
    mismatches
}

/// Runs the identity sweeps and the serial wall-clock section.
#[must_use]
pub fn compute() -> Output {
    // 1. Identity: one sweep cell per workload (each checks both machines
    //    and both recorder modes).
    let names: Vec<&'static str> = spec::all().into_iter().map(|s| s.name).collect();
    let cpu_mismatches = SweepSpec::new("obs_identity", names)
        .run(|_, name| cpu_identity(name))
        .into_iter()
        .flatten()
        .collect();

    let cfg = TraceConfig { procs: 8, ops_per_proc: 4_000, seed: 0x1996 };
    let trace = migratory(&cfg);
    let params = MachineParams::table2();
    let coh_mismatches = SweepSpec::new("obs_identity_coh", Scheme::all().to_vec())
        .run(|_, scheme| {
            let base = simulate_baseline(&trace, scheme, &params);
            let mut rec = Recorder::all();
            let (o, _) = simulate_observed(&trace, scheme, &params, &FaultPlan::none(), &mut rec)
                .expect("zero-fault run completes");
            (o != base).then(|| format!("coherence/{} differs under the recorder", scheme.name()))
        })
        .into_iter()
        .flatten()
        .collect();

    // 2. Host-time overhead on a representative kernel per machine (serial),
    // 3. with the fast-path counters read around the observed runs.
    let mut b = Bench::new("obs_overhead");
    let p = (spec::by_name("compress").expect("compress exists").build)(Scale::Test);
    let mut observed_fast = Vec::new();
    for (m, tag) in [(Machine::default_ooo(), "ooo"), (Machine::default_in_order(), "inorder")] {
        b.bench_sampled(&format!("{tag}/plain"), 5, || m.run(&p).expect("runs"));
        let before = speed_stats();
        let recorders: [(&str, MakeRecorder); 3] = [
            ("disabled_recorder", |_| Recorder::disabled()),
            ("full_recorder", |_| Recorder::all()),
            ("attrib_recorder", attrib_recorder),
        ];
        for (label, make) in recorders {
            b.bench_sampled(&format!("{tag}/{label}"), 5, || {
                m.run_observed(&p, &mut make(&m)).expect("runs").0
            });
        }
        observed_fast.push((tag, speed_stats().since(before)));
    }

    Output { cpu_mismatches, coh_mismatches, bench: b, observed_fast }
}

/// Per machine: disabled, full and attribution-on over plain, and the
/// batched-instruction share of the observed runs.
fn overheads(out: &Output) -> Vec<(String, f64, f64, f64, f64)> {
    let median = |id: &str| -> f64 {
        out.bench.results().iter().find(|r| r.id == id).map_or(0.0, |r| r.median_ns)
    };
    let ratio = |num: &str, den: &str| -> f64 {
        let d = median(den);
        if d == 0.0 {
            0.0
        } else {
            median(num) / d
        }
    };
    out.observed_fast
        .iter()
        .map(|(m, fast)| {
            (
                (*m).to_string(),
                ratio(&format!("{m}/disabled_recorder"), &format!("{m}/plain")),
                ratio(&format!("{m}/full_recorder"), &format!("{m}/plain")),
                ratio(&format!("{m}/attrib_recorder"), &format!("{m}/plain")),
                fast.batched_instr_pct(),
            )
        })
        .collect()
}

/// The baseline payload, including the identity proof obligations.
#[must_use]
pub fn payload(out: &Output) -> Json {
    let identical = out.cpu_mismatches.is_empty();
    let coh_identical = out.coh_mismatches.is_empty();
    let within_ceiling =
        overheads(out).iter().all(|&(_, _, _, attrib, _)| attrib > 0.0 && attrib <= ATTRIB_CEILING);
    let rows = overheads(out).into_iter().map(|(m, disabled, full, attrib, batched)| {
        Json::obj([
            ("machine", Json::from(m)),
            ("disabled_over_plain", Json::from(disabled)),
            ("full_over_plain", Json::from(full)),
            ("attrib_over_plain", Json::from(attrib)),
            ("observed_batched_instr_pct", Json::from(batched)),
        ])
    });
    Json::obj([
        ("disabled_identical", Json::Bool(identical)),
        ("full_identical", Json::Bool(identical)),
        ("attrib_identical", Json::Bool(identical)),
        ("coherence_identical", Json::Bool(coh_identical)),
        ("attrib_within_ceiling", Json::Bool(within_ceiling)),
        ("attrib_ceiling", Json::from(ATTRIB_CEILING)),
        ("overheads", Json::arr(rows)),
        ("timings", out.bench.to_json()),
    ])
}

/// Prints the identity verdicts and the timing/overhead tables.
///
/// # Panics
///
/// Panics if any observed run differed from its unobserved twin.
pub fn print(out: &Output) {
    println!("OBSERVABILITY OVERHEAD. Recorder identity + host-time cost.\n");
    for m in out.cpu_mismatches.iter().chain(&out.coh_mismatches) {
        eprintln!("MISMATCH: {m}");
    }
    assert!(out.cpu_mismatches.is_empty(), "observed CPU runs must be bit-identical to plain runs");
    assert!(
        out.coh_mismatches.is_empty(),
        "observed coherence runs must be bit-identical to baseline"
    );
    println!("identity: all workloads x machines bit-identical under the recorder\n");

    print!("{}", out.bench.render());
    let mut t = Table::new([
        "machine",
        "disabled / plain",
        "full / plain",
        "attrib / plain",
        "observed batched",
    ]);
    for (m, disabled, full, attrib, batched) in overheads(out) {
        assert!(
            attrib > 0.0 && attrib <= ATTRIB_CEILING,
            "{m}: attribution overhead {attrib:.3}x exceeds the {ATTRIB_CEILING}x ceiling"
        );
        t.row([
            m,
            format!("{disabled:.3}x"),
            format!("{full:.3}x"),
            format!("{attrib:.3}x"),
            format!("{batched:.1}%"),
        ]);
    }
    println!();
    print!("{}", t.render());
    println!("\nattribution overhead within the hard {ATTRIB_CEILING}x ceiling on both machines");
}

/// The whole bench target: compute, print, write the baseline.
pub fn run() {
    let out = compute();
    print(&out);
    emit("obs_overhead", payload(&out));
}
