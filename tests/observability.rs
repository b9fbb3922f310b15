//! Guards the observability subsystem's two core contracts:
//!
//! 1. **Exact CPI reconciliation** — the recorder's CPI stack must total
//!    `RunResult::cycles` (or `SimResult::total_cycles`) *exactly*, for
//!    every tier-1 workload on both machines and for the coherence
//!    simulator, with and without injected faults.
//! 2. **Passivity** — the recorder must never feed back into timing: a run
//!    under a disabled (or any) recorder returns results bit-identical to
//!    the unobserved run, and exports are byte-identical run-to-run.

use informing_memops::coherence::{
    simulate_baseline, simulate_observed as coh_observed, MachineParams, Scheme,
};
use informing_memops::cpu::Machine;
use informing_memops::faults::{FaultConfig, FaultPlan};
use informing_memops::obs::{chrome_trace, Category, CategoryMask, Recorder};
use informing_memops::workloads::parallel::{migratory, TraceConfig};
use informing_memops::workloads::spec;
use informing_memops::workloads::Scale;

#[test]
fn cpi_stack_reconciles_exactly_on_every_workload_and_machine() {
    for s in spec::all() {
        let p = (s.build)(Scale::Test);

        let mut rec = Recorder::all();
        let (res, _) = Machine::default_ooo().run_observed(&p, &mut rec).expect("ooo simulates");
        assert_eq!(
            rec.cpi.total(),
            res.cycles,
            "{}/ooo: CPI stack {:?} must total the cycle count",
            s.name,
            rec.cpi
        );

        let mut rec = Recorder::all();
        let (res, _) =
            Machine::default_in_order().run_observed(&p, &mut rec).expect("in-order simulates");
        assert_eq!(
            rec.cpi.total(),
            res.cycles,
            "{}/in-order: CPI stack {:?} must total the cycle count",
            s.name,
            rec.cpi
        );
    }
}

#[test]
fn disabled_recorder_reproduces_the_unobserved_run_bit_for_bit() {
    for s in spec::all() {
        let p = (s.build)(Scale::Test);

        let plain = Machine::default_ooo().run(&p).unwrap();
        let mut rec = Recorder::disabled();
        let (observed, _) = Machine::default_ooo().run_observed(&p, &mut rec).unwrap();
        assert_eq!(plain, observed, "{}/ooo must be identical under a disabled recorder", s.name);
        assert!(rec.is_empty(), "a disabled recorder retains no events");

        let plain = Machine::default_in_order().run(&p).unwrap();
        let mut rec = Recorder::disabled();
        let (observed, _) = Machine::default_in_order().run_observed(&p, &mut rec).unwrap();
        assert_eq!(plain, observed, "{}/in-order must be identical too", s.name);
    }
}

#[test]
fn full_recorder_is_also_passive() {
    // Not just the disabled path: recording everything must not perturb
    // timing either.
    let p = (spec::by_name("compress").unwrap().build)(Scale::Test);
    let plain = Machine::default_ooo().run(&p).unwrap();
    let mut rec = Recorder::all();
    let (observed, _) = Machine::default_ooo().run_observed(&p, &mut rec).unwrap();
    assert_eq!(plain, observed);
    assert!(rec.total_recorded() > 0);
}

#[test]
fn chrome_export_is_byte_identical_for_identical_runs() {
    let p = (spec::by_name("eqntott").unwrap().build)(Scale::Test);
    let export = |mask: CategoryMask| {
        let mut rec = Recorder::new(mask);
        Machine::default_ooo().run_observed(&p, &mut rec).unwrap();
        chrome_trace(&rec).pretty()
    };
    let mask = CategoryMask::of(&[Category::Pipeline, Category::Cache, Category::Trap]);
    let a = export(mask);
    let b = export(mask);
    assert_eq!(a, b, "same program + same mask must export byte-identically");
    // And a different mask must actually change the export.
    assert_ne!(a, export(CategoryMask::of(&[Category::Cache])));
}

#[test]
fn chrome_export_parses_as_json() {
    let p = (spec::by_name("ora").unwrap().build)(Scale::Test);
    let mut rec = Recorder::all();
    Machine::default_ooo().run_observed(&p, &mut rec).unwrap();
    let doc = chrome_trace(&rec).pretty();
    let parsed = informing_memops::util::json::parse(&doc).expect("export must re-parse");
    assert!(parsed.get("traceEvents").is_some());
    assert!(parsed.get("otherData").is_some());
}

#[test]
fn category_mask_filters_event_streams() {
    let p = (spec::by_name("compress").unwrap().build)(Scale::Test);
    let mut rec = Recorder::new(CategoryMask::of(&[Category::Cache]));
    Machine::default_ooo().run_observed(&p, &mut rec).unwrap();
    assert!(!rec.is_empty(), "cache events must be recorded");
    assert!(
        rec.events().iter().all(|e| e.kind.category() == Category::Cache),
        "only cache-category events may appear under a cache-only mask"
    );
}

#[test]
fn ring_buffer_bounds_retention_and_counts_drops() {
    let p = (spec::by_name("compress").unwrap().build)(Scale::Test);
    let mut rec = Recorder::with_capacity(CategoryMask::ALL, 64);
    Machine::default_ooo().run_observed(&p, &mut rec).unwrap();
    assert_eq!(rec.len(), 64, "retention is capped at the ring capacity");
    assert!(rec.dropped() > 0);
    assert_eq!(rec.total_recorded(), rec.len() as u64 + rec.dropped());
    // Events are retained oldest-first and the newest survive eviction.
    let evs = rec.events();
    assert!(evs.windows(2).all(|w| w[0].cycle <= w[1].cycle));
}

#[test]
fn coherence_cpi_stack_reconciles_and_observed_run_is_passive() {
    let cfg = TraceConfig { procs: 8, ops_per_proc: 4_000, seed: 42 };
    let trace = migratory(&cfg);
    let params = MachineParams::table2();
    for scheme in Scheme::all() {
        let base = simulate_baseline(&trace, scheme, &params);
        let mut rec = Recorder::all();
        let (observed, _) =
            coh_observed(&trace, scheme, &params, &FaultPlan::none(), &mut rec).unwrap();
        assert_eq!(base, observed, "{}: observed run must be passive", scheme.name());
        assert_eq!(
            rec.cpi.total(),
            observed.total_cycles,
            "{}: critical-path CPI stack must total the completion time",
            scheme.name()
        );
    }
}

#[test]
fn coherence_faulty_run_still_reconciles_and_records_fault_events() {
    let cfg = TraceConfig { procs: 4, ops_per_proc: 2_000, seed: 7 };
    let trace = migratory(&cfg);
    let params = MachineParams::table2();
    let plan = FaultPlan::new(FaultConfig { seed: 11, drop_rate: 0.05 });

    let mut rec = Recorder::all();
    let (res, _) = coh_observed(&trace, Scheme::Informing, &params, &plan, &mut rec).unwrap();
    assert_eq!(rec.cpi.total(), res.total_cycles);
    assert!(res.dropped_msgs > 0, "the 5% drop plan must actually drop");
    let names: Vec<&str> = rec.events().iter().map(|e| e.kind.name()).collect();
    assert!(names.contains(&"coh_request"));
    assert!(names.contains(&"coh_drop"));
    assert!(names.contains(&"coh_retry"));
    // Retry backoffs land in the histogram, one sample per retry.
    let h = rec.metrics.histogram("coh.retry_backoff").expect("histogram recorded");
    assert_eq!(h.samples(), res.retries);
}
