//! Coherence checkpoint identity: pausing a 16-processor coherence run at an
//! op boundary and resuming it — in-process, across the JSON wire, or in a
//! freshly spawned process — is invisible to the simulation.
//!
//! The coherence twin of `tests/checkpoint_identity.rs`: every test demands
//! that a resumed run's [`SimResult`] is bit-identical to the uninterrupted
//! one — completion time, per-processor finish times, protocol actions,
//! invalidations, and (under a lossy interconnect) the retry, timeout and
//! drop counters. The matrix must include pauses taken mid-protocol, with
//! retry traffic in flight on both sides of the checkpoint.

use std::process::Command;

use imo_bench::codec::sim_result_json;
use informing_memops::coherence::{
    simulate_faulty, CohCheckpoint, CohOutcome, CohSession, MachineParams, Scheme,
};
use informing_memops::faults::{FaultConfig, FaultPlan};
use informing_memops::util::json::{parse, Json};
use informing_memops::util::snapshot::{self, Snapshot};
use informing_memops::workloads::parallel::{
    migratory, producer_consumer, readmostly, reduction, stencil, ParallelTrace, TraceConfig,
};

type AppBuilder = fn(&TraceConfig) -> ParallelTrace;

fn apps() -> [(&'static str, AppBuilder); 5] {
    [
        ("stencil", stencil),
        ("migratory", migratory),
        ("producer_consumer", producer_consumer),
        ("reduction", reduction),
        ("readmostly", readmostly),
    ]
}

/// A lossy interconnect: every scheme sees timed-out, retried requests.
fn stormy_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(FaultConfig { seed, drop_rate: 0.1 })
}

/// Serializes a checkpoint to pretty JSON text and decodes it back, as a
/// process handing the run to another would.
fn wire_trip(ckpt: &CohCheckpoint) -> (CohCheckpoint, Json) {
    let text = ckpt.to_wire().pretty();
    let json = parse(&text).expect("checkpoint wire text parses");
    let back = CohCheckpoint::from_wire(&json).expect("checkpoint wire decodes");
    assert_eq!(back.to_wire().pretty(), text, "re-encoding is byte-stable");
    (back, json)
}

/// Directory requests re-sent so far, read off the checkpoint wire (index 7
/// of the `counts` block — the order [`SimResult`]'s codec fixes).
fn retries_on_wire(wire: &Json) -> u64 {
    let body = wire.get("data").and_then(|d| d.get("body")).expect("wire carries a body");
    snapshot::get_u64s(body, "counts").expect("counts decode")[7]
}

/// All 5 parallel apps x both access-control schemes under a stormy
/// interconnect: pause at the midpoint, cross the JSON wire, resume, and
/// land on the uninterrupted result bit-for-bit. The matrix must include
/// pauses with retry traffic already suffered *and* still to come — the
/// checkpoint splits an in-flight retry schedule, not just clean
/// protocol quiescence.
#[test]
fn all_apps_schemes_resume_bit_identically() {
    let cfg = TraceConfig { procs: 8, ops_per_proc: 1_500, seed: 11 };
    let params = MachineParams::table2();
    let mut paused = 0u32;
    let mut mid_retry_pauses = 0u32;
    for (name, build) in apps() {
        let trace = build(&cfg);
        for scheme in [Scheme::Ecc, Scheme::Informing] {
            let plan = stormy_plan(7);
            let full = simulate_faulty(&trace, scheme, &params, &plan)
                .unwrap_or_else(|e| panic!("{name}/{scheme:?}: {e}"));
            assert!(full.retries > 0, "{name}/{scheme:?}: plan must exercise the retry path");
            let sess = CohSession::new(&trace, scheme, params).faults(plan);
            let ckpt = match sess.stop_at(full.ops / 2).run().expect("bounded run pauses") {
                CohOutcome::Paused(c) => c,
                CohOutcome::Complete(_) => panic!("{name}: midpoint is before the end"),
            };
            paused += 1;
            let (back, wire) = wire_trip(&ckpt);
            let mid_retries = retries_on_wire(&wire);
            if mid_retries > 0 && mid_retries < full.retries {
                mid_retry_pauses += 1;
            }
            match sess.stop_at(u64::MAX).resume(&back).expect("resume completes") {
                CohOutcome::Complete(r) => assert_eq!(
                    r, full,
                    "{name}/{scheme:?}: checkpoint/resume must not change the simulation"
                ),
                CohOutcome::Paused(_) => panic!("{name}: unbounded resume must finish"),
            }
        }
    }
    assert_eq!(paused, 10, "the whole matrix must pause");
    assert!(mid_retry_pauses > 0, "at least one checkpoint must split an in-flight retry schedule");
}

/// Micro-slicing: resuming every 97 ops (a boundary that never aligns with
/// the fault schedule) through dozens of wire trips still lands exactly on
/// the uninterrupted result.
#[test]
fn chained_micro_slices_resume_bit_identically() {
    let cfg = TraceConfig { procs: 8, ops_per_proc: 400, seed: 23 };
    let trace = producer_consumer(&cfg);
    let params = MachineParams::table2();
    let plan = stormy_plan(5);
    let full = simulate_faulty(&trace, Scheme::Informing, &params, &plan).expect("completes");
    let sess = CohSession::new(&trace, Scheme::Informing, params).faults(plan);
    let mut stop = 97u64;
    let mut outcome = sess.stop_at(stop).run().expect("runs");
    let mut pauses = 0u32;
    let r = loop {
        match outcome {
            CohOutcome::Complete(r) => break r,
            CohOutcome::Paused(c) => {
                pauses += 1;
                stop += 97;
                let (back, _) = wire_trip(&c);
                outcome = sess.stop_at(stop).resume(&back).expect("resumes");
            }
        }
    };
    assert!(pauses >= 30, "3200 ops in 97-op slices: only {pauses} pauses");
    assert_eq!(r, full, "micro-sliced run must equal the straight run");
}

// ---------------------------------------------------------------------------
// Fresh-process resume: the checkpoint crosses a real process boundary.
// ---------------------------------------------------------------------------

/// The one configuration the parent and the child both rebuild from
/// constants. The checkpoint's `cfg_hash` binds to it, so the resume in the
/// child doubles as a regression test for cross-process configuration-hash
/// determinism (session hashes must not depend on process-local state).
fn fresh_process_fixture() -> (ParallelTrace, Scheme, MachineParams, FaultPlan) {
    let cfg = TraceConfig { procs: 8, ops_per_proc: 1_000, seed: 31 };
    (migratory(&cfg), Scheme::Informing, MachineParams::table2(), stormy_plan(13))
}

const CHILD_IN: &str = "IMO_COH_CHILD_IN";
const CHILD_OUT: &str = "IMO_COH_CHILD_OUT";

/// Child half of `fresh_process_resume_is_bit_identical`: under the normal
/// test run (no env vars) this is a no-op. When re-executed by the parent it
/// decodes the checkpoint from `IMO_COH_CHILD_IN`, resumes it in this —
/// fresh — process, and writes the result's compact JSON to
/// `IMO_COH_CHILD_OUT`.
#[test]
fn fresh_process_resume_child() {
    let (Ok(inp), Ok(out)) = (std::env::var(CHILD_IN), std::env::var(CHILD_OUT)) else {
        return;
    };
    let text = std::fs::read_to_string(&inp).expect("child reads checkpoint");
    let ckpt = CohCheckpoint::from_wire(&parse(&text).expect("child parses checkpoint"))
        .expect("child decodes checkpoint");
    let (trace, scheme, params, plan) = fresh_process_fixture();
    let sess = CohSession::new(&trace, scheme, params).faults(plan);
    let r = match sess.stop_at(u64::MAX).resume(&ckpt).expect("child resumes") {
        CohOutcome::Complete(r) => r,
        CohOutcome::Paused(_) => panic!("child: unbounded resume must finish"),
    };
    std::fs::write(&out, sim_result_json(&r).compact()).expect("child writes result");
}

/// Pause mid-protocol (with retry traffic in flight), ship the checkpoint to
/// a freshly spawned process, resume there, and demand the child's result is
/// byte-identical to the uninterrupted in-process run.
#[test]
fn fresh_process_resume_is_bit_identical() {
    let (trace, scheme, params, plan) = fresh_process_fixture();
    let full = simulate_faulty(&trace, scheme, &params, &plan).expect("completes");
    assert!(full.retries > 0, "fixture must exercise the retry path");
    let expected = sim_result_json(&full).compact();

    let sess = CohSession::new(&trace, scheme, params).faults(plan);
    let ckpt = match sess.stop_at(full.ops / 2).run().expect("bounded run pauses") {
        CohOutcome::Paused(c) => c,
        CohOutcome::Complete(_) => panic!("midpoint is before the end"),
    };

    let dir = std::env::temp_dir();
    let inp = dir.join(format!("imo_coh_ckpt_{}.json", std::process::id()));
    let out = dir.join(format!("imo_coh_result_{}.json", std::process::id()));
    std::fs::write(&inp, ckpt.to_wire().pretty()).expect("parent writes checkpoint");
    let _ = std::fs::remove_file(&out);

    let status = Command::new(std::env::current_exe().expect("current_exe"))
        .args(["--exact", "fresh_process_resume_child", "--nocapture"])
        .env(CHILD_IN, &inp)
        .env(CHILD_OUT, &out)
        .status()
        .expect("spawning the child test process");
    assert!(status.success(), "child resume process failed");

    let got = std::fs::read_to_string(&out).expect("child wrote a result");
    assert_eq!(got, expected, "fresh-process resume must be byte-identical");
    let _ = std::fs::remove_file(&inp);
    let _ = std::fs::remove_file(&out);
}
