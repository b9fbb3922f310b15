//! Checkpoint identity: pausing a run at a cycle boundary and resuming it —
//! in-process, from the JSON wire, or in a freshly spawned process — is
//! invisible to the simulation.
//!
//! `SimSession::stop_at(c)` makes a run halt at the first cycle boundary at
//! or after `c` and emit a [`Checkpoint`] instead of a result. Every test
//! here demands that resuming the checkpoint produces a
//! `RunResult` bit-identical to the uninterrupted run: counters, slot
//! accounting, trap and misprediction totals, branch accuracy, all of it.
//! The observed variants additionally demand that the CPI stack of a resumed
//! run reconciles exactly with the uninterrupted one (and therefore with
//! `RunResult::cycles`).

use std::collections::BTreeSet;
use std::process::Command;

use imo_bench::codec::result_json;
use imo_util::check::Checker;
use imo_util::ensure_eq;
use imo_util::snapshot::{self, Snapshot, SnapshotError};
use informing_memops::core::instrument::{instrument, HandlerBody, HandlerKind, Scheme};
use informing_memops::core::Machine;
use informing_memops::cpu::{Checkpoint, Outcome, RunLimits, RunResult, SimError, SimSession};
use informing_memops::isa::{Asm, BlockCache, Program};
use informing_memops::obs::Recorder;
use informing_memops::util::json::{parse, Json};
use informing_memops::workloads::{all, by_name, Scale};

fn schemes() -> [(&'static str, Scheme); 3] {
    let body = HandlerBody::Generic { len: 10 };
    [
        ("none", Scheme::None),
        ("trap-10S", Scheme::Trap { handlers: HandlerKind::Single, body }),
        ("cc-10S", Scheme::ConditionCode { handlers: HandlerKind::Single, body }),
    ]
}

/// Serializes a checkpoint to pretty JSON text and decodes it back, as a
/// process handing the run to another would.
fn wire_trip(ckpt: &Checkpoint) -> (Checkpoint, Json) {
    let text = ckpt.to_wire().pretty();
    let json = parse(&text).expect("checkpoint wire text parses");
    let back = Checkpoint::from_wire(&json).expect("checkpoint wire decodes");
    assert_eq!(back.to_wire().pretty(), text, "re-encoding is byte-stable");
    (back, json)
}

/// True if the checkpoint was taken mid-miss: the out-of-order core's MSHR
/// file has at least one non-free entry on the wire.
fn mshrs_in_flight(wire: &Json) -> bool {
    let states = wire
        .get("data")
        .and_then(|d| d.get("body"))
        .and_then(|b| b.get("mshrs"))
        .and_then(|m| m.get("data"))
        .and_then(|d| d.get("states"))
        .and_then(Json::as_str);
    states.is_some_and(|s| s.bytes().any(|b| b != b'0'))
}

/// All 14 workloads x both machines x 3 schemes: pause at mid-run, cross the
/// JSON wire, resume, and land on the uninterrupted result bit-for-bit. The
/// matrix must include checkpoints taken with MSHRs in flight.
#[test]
fn all_workloads_machines_schemes_resume_bit_identically() {
    let mut paused_cells = 0u32;
    let mut mid_miss_cells = 0u32;
    for spec in all() {
        let p = (spec.build)(Scale::Test);
        for (label, scheme) in &schemes() {
            let inst = instrument(&p, scheme).expect("instruments");
            for machine in [Machine::default_ooo(), Machine::default_in_order()] {
                let baseline = machine
                    .run_limited(&inst.program, RunLimits::default())
                    .unwrap_or_else(|e| panic!("{}/{label}: {e}", spec.name));
                let outcome = SimSession::new(&inst.program, machine)
                    .stop_at(baseline.cycles / 2)
                    .run()
                    .unwrap_or_else(|e| panic!("{}/{label} (stop): {e}", spec.name));
                let resumed = match outcome {
                    Outcome::Paused(ckpt) => {
                        paused_cells += 1;
                        let (back, wire) = wire_trip(&ckpt);
                        if machine == Machine::default_ooo() && mshrs_in_flight(&wire) {
                            mid_miss_cells += 1;
                        }
                        complete(
                            SimSession::new(&inst.program, machine)
                                .resume(&back)
                                .unwrap_or_else(|e| panic!("{}/{label} (resume): {e}", spec.name)),
                        )
                    }
                    // Tiny runs can finish before the midpoint boundary.
                    Outcome::Complete { result, .. } => result,
                };
                assert_eq!(
                    resumed,
                    baseline,
                    "{}/{}/{label}: checkpoint/resume must not change the simulation",
                    spec.name,
                    machine.name()
                );
            }
        }
    }
    assert!(paused_cells > 50, "the matrix must actually exercise pauses ({paused_cells})");
    assert!(
        mid_miss_cells > 0,
        "at least one checkpoint must be taken mid-miss with MSHRs in flight"
    );
}

fn complete(outcome: Outcome) -> RunResult {
    match outcome {
        Outcome::Complete { result, .. } => result,
        Outcome::Paused(c) => panic!("unexpected second pause at cycle {}", c.cycle()),
    }
}

/// Observed runs: a resumed run's CPI stack must equal the uninterrupted
/// run's exactly, and both must total `RunResult::cycles`.
#[test]
fn observed_resume_reconciles_cpi_exactly() {
    let p = (by_name("compress").expect("workload exists").build)(Scale::Test);
    let scheme =
        Scheme::Trap { handlers: HandlerKind::Single, body: HandlerBody::Generic { len: 10 } };
    let inst = instrument(&p, &scheme).expect("instruments");
    for machine in [Machine::default_ooo(), Machine::default_in_order()] {
        let mut base_rec = Recorder::all();
        let (baseline, _) =
            machine.run_observed(&inst.program, &mut base_rec).expect("observed baseline");
        assert_eq!(base_rec.cpi.total(), baseline.cycles, "baseline CPI covers every cycle");

        let mut first_rec = Recorder::all();
        let outcome = SimSession::new(&inst.program, machine)
            .stop_at(baseline.cycles / 2)
            .recorder(&mut first_rec)
            .run()
            .expect("observed run pauses");
        let Outcome::Paused(ckpt) = outcome else { panic!("must pause at midpoint") };

        let mut resume_rec = Recorder::all();
        let resumed = complete(
            SimSession::new(&inst.program, machine)
                .recorder(&mut resume_rec)
                .resume(&ckpt)
                .expect("observed resume completes"),
        );
        assert_eq!(resumed, baseline, "{}: observed resume result", machine.name());
        // The CPI accumulator rides inside the checkpoint, so the recorder
        // that witnesses completion reconciles the *whole* run, not just the
        // tail: stack equality is exact, category by category.
        assert_eq!(resume_rec.cpi, base_rec.cpi, "{}: CPI stacks reconcile", machine.name());
        assert_eq!(resume_rec.cpi.total(), resumed.cycles, "{}: CPI total", machine.name());
    }
}

/// Pauses landing while batch-fetched plain instructions are still queued:
/// their handles must cross the wire byte-stably and resume onto the
/// uninterrupted result — probed at a dense band of consecutive stop cycles
/// so some checkpoints are guaranteed to catch partially drained runs
/// mid-block.
#[test]
fn fast_path_pauses_with_plain_runs_pending_resume_identically() {
    let p = (by_name("mdljsp2").expect("workload exists").build)(Scale::Test);
    for machine in [Machine::default_in_order(), Machine::default_ooo()] {
        let baseline = machine.run_limited(&p, RunLimits::default()).expect("uninterrupted run");
        let mid = baseline.cycles / 2;
        // A dense band of consecutive boundaries plus spread-out points:
        // consecutive stops cannot all land on run boundaries.
        let stops: Vec<u64> =
            (mid..mid + 8).chain([baseline.cycles / 4, 3 * baseline.cycles / 4]).collect();
        for stop in stops {
            let outcome = SimSession::new(&p, machine).stop_at(stop).run().expect("paused run");
            let Outcome::Paused(ckpt) = outcome else {
                panic!("{}: run must pause at {stop}", machine.name())
            };
            let (back, _) = wire_trip(&ckpt);
            let resumed =
                complete(SimSession::new(&p, machine).resume(&back).expect("resume completes"));
            assert_eq!(
                resumed,
                baseline,
                "{}: pause at {stop} with plain runs pending",
                machine.name()
            );
        }
    }
}

/// 32 random (workload, scheme, machine, stop-cycle) draws: arbitrary cycle
/// boundaries, not just the midpoint, resume bit-identically.
#[test]
fn random_stop_cycles_resume_identically() {
    let names: Vec<&'static str> = all().iter().map(|s| s.name).collect();
    Checker::new("checkpoint_identity_random").cases(32).run(|g| {
        let name = *g.pick(&names);
        let p = (by_name(name).expect("workload exists").build)(Scale::Test);
        let handlers = *g.pick(&[HandlerKind::Single, HandlerKind::PerReference]);
        let body = HandlerBody::Generic { len: *g.pick(&[1u32, 10, 100]) };
        let scheme = *g.pick(&[
            Scheme::None,
            Scheme::Trap { handlers, body },
            Scheme::ConditionCode { handlers, body },
        ]);
        let inst = instrument(&p, &scheme).map_err(|e| format!("{name}: {e}"))?;
        let machine = if g.bool() { Machine::default_ooo() } else { Machine::default_in_order() };
        let baseline = machine
            .run_limited(&inst.program, RunLimits::default())
            .map_err(|e| format!("{name} on {}: {e}", machine.name()))?;
        let stop = g.int(1..baseline.cycles.max(2));
        let outcome = SimSession::new(&inst.program, machine)
            .stop_at(stop)
            .run()
            .map_err(|e| format!("{name} stop {stop}: {e}"))?;
        let resumed = match outcome {
            Outcome::Paused(ckpt) => {
                ensure_eq!(ckpt.cycle() >= stop, true, "{name}: pause respects the boundary");
                let (back, _) = wire_trip(&ckpt);
                match SimSession::new(&inst.program, machine)
                    .resume(&back)
                    .map_err(|e| format!("{name} resume: {e}"))?
                {
                    Outcome::Complete { result, .. } => result,
                    Outcome::Paused(c) => {
                        return Err(format!("{name}: second pause at {}", c.cycle()))
                    }
                }
            }
            Outcome::Complete { result, .. } => result,
        };
        ensure_eq!(resumed, baseline, "{name} on {} stopped at {stop}", machine.name());
        Ok(())
    });
}

/// Chained slices: every run pauses about 20 times, each checkpoint crosses
/// the JSON wire, and each resume pauses again — both machines, plain and
/// trap-instrumented. ora barely touches memory; xlisp chases pointers, so
/// its pauses catch consumers waiting on misses. The CPU twin of
/// `tests/coherence_checkpoint.rs`'s `chained_micro_slices_resume_bit_identically`.
#[test]
fn chained_slices_resume_bit_identically() {
    let [none, trap, _] = schemes();
    for (kernel, (label, scheme)) in
        ["ora", "xlisp"].into_iter().flat_map(|k| [(k, none), (k, trap)])
    {
        let p = (by_name(kernel).expect("workload exists").build)(Scale::Test);
        let inst = instrument(&p, &scheme).expect("instruments");
        for machine in [Machine::default_ooo(), Machine::default_in_order()] {
            let name = format!("{kernel} {label} on {}", machine.name());
            let baseline =
                machine.run_limited(&inst.program, RunLimits::default()).expect("uninterrupted");
            let stride = (baseline.cycles / 20).max(1);
            let session = || SimSession::new(&inst.program, machine);
            let mut outcome = session().stop_at(stride).run().expect("first slice");
            let mut pauses = 0u32;
            let resumed = loop {
                match outcome {
                    Outcome::Complete { result, .. } => break result,
                    Outcome::Paused(ckpt) => {
                        pauses += 1;
                        let (back, _) = wire_trip(&ckpt);
                        let stop = back.cycle() + stride;
                        outcome = session()
                            .stop_at(stop)
                            .resume(&back)
                            .unwrap_or_else(|e| panic!("{name}: slice at {stop}: {e}"));
                    }
                }
            };
            assert!(pauses >= 15, "{name}: only {pauses} pauses");
            assert_eq!(resumed, baseline, "{name}: chained slices must equal the straight run");
        }
    }
}

// ---------------------------------------------------------------------------
// Malformed windows: a checkpoint whose reorder buffer or fetch queue the
// core could not have built is rejected on resume, not simulated.
// ---------------------------------------------------------------------------

/// The object field `key` of `j`, mutably.
fn field_mut<'a>(j: &'a mut Json, key: &str) -> &'a mut Json {
    match j {
        Json::Obj(pairs) => {
            pairs.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v).expect("field exists")
        }
        _ => panic!("{key}: not an object"),
    }
}

/// The array field `key` of `j`, mutably.
fn arr_mut<'a>(j: &'a mut Json, key: &str) -> &'a mut Vec<Json> {
    match field_mut(j, key) {
        Json::Arr(items) => items,
        _ => panic!("{key}: not an array"),
    }
}

/// The program the malformed-window tests pause: xlisp instrumented
/// trap-10S.
fn xlisp_trap() -> Program {
    let p = (by_name("xlisp").expect("workload exists").build)(Scale::Test);
    let [_, (_, trap), _] = schemes();
    instrument(&p, &trap).expect("instruments").program
}

/// Pauses xlisp trap-10S on `machine` at cycle 237, with several
/// instructions in flight (in the out-of-order core's reorder buffer, or the
/// in-order core's fetch queue), lets `edit` change the checkpoint body's
/// wire, and resumes the edited checkpoint.
fn resume_edited(machine: Machine, edit: impl FnOnce(&mut Json)) -> Result<Outcome, SimError> {
    resume_edited_envelope(machine, |wire| edit(field_mut(field_mut(wire, "data"), "body")))
}

/// [`resume_edited`], with `edit` given the whole wire envelope.
fn resume_edited_envelope(
    machine: Machine,
    edit: impl FnOnce(&mut Json),
) -> Result<Outcome, SimError> {
    let program = xlisp_trap();
    let outcome =
        SimSession::new(&program, machine).stop_at(237).run().expect("bounded run pauses");
    let Outcome::Paused(ckpt) = outcome else { panic!("cycle 237 is before the end") };
    let mut wire = ckpt.to_wire();
    let body = field_mut(field_mut(&mut wire, "data"), "body");
    let window = if matches!(machine, Machine::OutOfOrder(_)) { "rob" } else { "queue" };
    assert!(arr_mut(body, window).len() >= 4, "the pause must catch a populated {window}");
    edit(&mut wire);
    let edited = Checkpoint::from_wire(&wire).map_err(SimError::Checkpoint)?;
    SimSession::new(&program, machine).resume(&edited)
}

fn assert_bad(result: Result<Outcome, SimError>, field: &str) {
    match result {
        Err(SimError::Checkpoint(SnapshotError::Bad(f))) if f == field => {}
        Err(e) => panic!("expected a bad `{field}` checkpoint, got error {e}"),
        Ok(_) => panic!("expected a bad `{field}` checkpoint, but it resumed"),
    }
}

/// A ROB padded past `rob_entries` (32) to 70 entries.
#[test]
fn oversized_rob_checkpoint_is_rejected() {
    assert_bad(
        resume_edited(Machine::default_ooo(), |body| {
            let rob = arr_mut(body, "rob");
            let last = rob.last().expect("non-empty").clone();
            rob.resize(70, last);
        }),
        "rob",
    );
}

/// A ROB entry whose seq breaks contiguity from `rob_base`.
#[test]
fn noncontiguous_rob_checkpoint_is_rejected() {
    assert_bad(
        resume_edited(Machine::default_ooo(), |body| {
            let entry = &mut arr_mut(body, "rob")[1];
            *field_mut(field_mut(entry, "f"), "seq") = snapshot::u64_json(1_000_000);
        }),
        "rob",
    );
}

/// A fetch queue longer than the fetch stage can fill: it fetches only while
/// the queue holds fewer than `2 × issue_width` entries, at most
/// `issue_width` at a time.
#[test]
fn overfull_fetch_queue_checkpoint_is_rejected() {
    assert_bad(
        resume_edited(Machine::default_ooo(), |body| {
            let record = field_mut(&mut arr_mut(body, "rob")[0], "f").clone();
            arr_mut(body, "fetch_q").resize(12, record);
        }),
        "fetch_q",
    );
}

/// An in-order fetch queue padded past what the fetch stage can fill (it
/// fetches only while fewer than `2 × issue_width` entries are queued) to 70
/// entries.
#[test]
fn oversized_inorder_queue_checkpoint_is_rejected() {
    assert_bad(
        resume_edited(Machine::default_in_order(), |body| {
            let queue = arr_mut(body, "queue");
            let last = queue.last().expect("non-empty").clone();
            queue.resize(70, last);
        }),
        "queue",
    );
}

/// An in-order fetch-queue entry whose seq breaks contiguity.
#[test]
fn noncontiguous_inorder_queue_checkpoint_is_rejected() {
    assert_bad(
        resume_edited(Machine::default_in_order(), |body| {
            *field_mut(&mut arr_mut(body, "queue")[1], "seq") = snapshot::u64_json(1_000_000);
        }),
        "queue",
    );
}

/// Adds one to the front end's retired-instruction count, which sets the
/// next sequence number fetch hands out.
fn bump_instret(body: &mut Json) {
    let fe = field_mut(body, "fe");
    let instret = snapshot::get_u64(fe, "instret").expect("instret decodes");
    *field_mut(fe, "instret") = snapshot::u64_json(instret + 1);
}

/// An in-order front end one instruction past its fetch queue's tail.
#[test]
fn inorder_instret_past_the_queue_is_rejected() {
    assert_bad(resume_edited(Machine::default_in_order(), bump_instret), "queue");
}

/// An out-of-order front end one instruction past its window's tail.
#[test]
fn ooo_instret_past_the_window_is_rejected() {
    assert_bad(resume_edited(Machine::default_ooo(), bump_instret), "fetch_q");
}

/// A rename map naming an instruction that was never dispatched.
#[test]
fn undispatched_rename_checkpoint_is_rejected() {
    assert_bad(
        resume_edited(Machine::default_ooo(), |body| {
            arr_mut(body, "last_writer")[1] = snapshot::u64_json(1_000_000);
        }),
        "last_writer",
    );
}

/// A version-3 envelope, whose records named their instruction by `pc`
/// instead of a text index, is refused before its body is read.
#[test]
fn version_3_checkpoint_is_rejected() {
    for machine in [Machine::default_ooo(), Machine::default_in_order()] {
        let result = resume_edited_envelope(machine, |wire| {
            *field_mut(wire, "version") = Json::from(3u64);
        });
        match result {
            Err(SimError::Checkpoint(SnapshotError::Version {
                kind: "cpu.checkpoint",
                expected: 4,
                found: 3,
            })) => {}
            Err(e) => panic!("{}: expected a version error, got {e}", machine.name()),
            Ok(_) => panic!("{}: a version-3 checkpoint resumed", machine.name()),
        }
    }
}

/// Points the first record of the array `window` (or, for `"rob"`, the
/// first entry's record) at the first text index past the program.
fn index_past_the_text(body: &mut Json, window: &str) {
    let past_end = snapshot::u64_json(xlisp_trap().len() as u64);
    let record = arr_mut(body, window).first_mut().expect("a populated window");
    let record = if window == "rob" { field_mut(record, "f") } else { record };
    *field_mut(record, "idx") = past_end;
}

/// An in-order fetch-queue record naming no instruction of the program.
#[test]
fn inorder_queue_index_past_the_text_is_rejected() {
    assert_bad(
        resume_edited(Machine::default_in_order(), |body| index_past_the_text(body, "queue")),
        "idx",
    );
}

/// An out-of-order fetch-queue record naming no instruction of the program.
/// The pause catches an empty fetch queue, so the test queues a copy of a
/// reorder-buffer record first; records decode before the window's shape
/// is checked.
#[test]
fn fetch_queue_index_past_the_text_is_rejected() {
    assert_bad(
        resume_edited(Machine::default_ooo(), |body| {
            let record = field_mut(&mut arr_mut(body, "rob")[0], "f").clone();
            arr_mut(body, "fetch_q").insert(0, record);
            index_past_the_text(body, "fetch_q");
        }),
        "idx",
    );
}

/// A reorder-buffer record naming no instruction of the program.
#[test]
fn rob_index_past_the_text_is_rejected() {
    assert_bad(
        resume_edited(Machine::default_ooo(), |body| index_past_the_text(body, "rob")),
        "idx",
    );
}

// ---------------------------------------------------------------------------
// Fresh-process resume: the checkpoint crosses a real process boundary.
// ---------------------------------------------------------------------------

/// The program the parent and the child both rebuild from constants:
/// `compress` instrumented trap-10S, re-assembled with a label on every
/// basic-block leader (`instrument` re-assembles from resolved addresses
/// and keeps no labels). The checkpoint's `cfg_hash` hashes the program's
/// `Debug` rendering, so with a label table this large any
/// process-dependent iteration order would make the child reject the
/// checkpoint: the resume doubles as a regression test for cross-process
/// hash determinism.
fn fresh_process_program() -> Program {
    let p = (by_name("compress").expect("workload exists").build)(Scale::Test);
    let [_, (_, trap), _] = schemes();
    let inst = instrument(&p, &trap).expect("instruments");
    let blocks = BlockCache::build(&inst.program, |_| 1);
    let leaders: BTreeSet<u64> = blocks.blocks().iter().map(|b| b.addr()).collect();
    let mut a = Asm::new();
    for (addr, ins) in inst.program.iter() {
        if leaders.contains(&addr) {
            a.here(&format!("block_{addr:x}"));
        }
        a.emit(ins);
    }
    for &(addr, value) in inst.program.data() {
        a.word(addr, value);
    }
    let program = a.assemble().expect("re-assembles");
    assert_eq!(program.instrs(), inst.program.instrs(), "labels leave the text unchanged");
    program
}

const CHILD_IN: &str = "IMO_CPU_CHILD_IN";
const CHILD_OUT: &str = "IMO_CPU_CHILD_OUT";

/// Child half of `fresh_process_resume_is_bit_identical`: under the normal
/// test run (no env vars) this is a no-op. When re-executed by the parent it
/// decodes one checkpoint per machine from `IMO_CPU_CHILD_IN`, resumes each
/// in this — fresh — process, and writes the results' compact JSON to
/// `IMO_CPU_CHILD_OUT`.
#[test]
fn fresh_process_resume_child() {
    let (Ok(inp), Ok(out)) = (std::env::var(CHILD_IN), std::env::var(CHILD_OUT)) else {
        return;
    };
    let text = std::fs::read_to_string(&inp).expect("child reads checkpoints");
    let wire = parse(&text).expect("child parses checkpoints");
    let ckpts = wire.as_arr().expect("a checkpoint per machine");
    let program = fresh_process_program();
    let machines = [Machine::default_ooo(), Machine::default_in_order()];
    assert_eq!(ckpts.len(), machines.len());
    let results = machines.iter().zip(ckpts).map(|(machine, j)| {
        let ckpt = Checkpoint::from_wire(j).expect("child decodes checkpoint");
        let outcome = SimSession::new(&program, *machine)
            .resume(&ckpt)
            .unwrap_or_else(|e| panic!("child resume on {}: {e}", machine.name()));
        result_json(&complete(outcome))
    });
    std::fs::write(&out, Json::arr(results).compact()).expect("child writes results");
}

/// Pause both machines mid-run, ship the checkpoints to a freshly spawned
/// process, resume there, and demand the child's results are byte-identical
/// to the uninterrupted in-process runs.
#[test]
fn fresh_process_resume_is_bit_identical() {
    let program = fresh_process_program();
    let labels = program.listing().lines().filter(|l| l.ends_with(':')).count();
    assert!(labels >= 8, "fixture needs a real label table, has {labels} labels");
    let mut ckpts = Vec::new();
    let mut expected = Vec::new();
    for machine in [Machine::default_ooo(), Machine::default_in_order()] {
        let full = machine.run_limited(&program, RunLimits::default()).expect("completes");
        let outcome = SimSession::new(&program, machine)
            .stop_at(full.cycles / 2)
            .run()
            .expect("bounded run pauses");
        let Outcome::Paused(ckpt) = outcome else { panic!("midpoint is before the end") };
        ckpts.push(ckpt.to_wire());
        expected.push(result_json(&full));
    }
    let expected = Json::arr(expected).compact();

    let dir = std::env::temp_dir();
    let inp = dir.join(format!("imo_cpu_ckpt_{}.json", std::process::id()));
    let out = dir.join(format!("imo_cpu_result_{}.json", std::process::id()));
    std::fs::write(&inp, Json::arr(ckpts).pretty()).expect("parent writes checkpoints");
    let _ = std::fs::remove_file(&out);

    let status = Command::new(std::env::current_exe().expect("current_exe"))
        .args(["--exact", "fresh_process_resume_child", "--nocapture"])
        .env(CHILD_IN, &inp)
        .env(CHILD_OUT, &out)
        .status()
        .expect("spawning the child test process");
    assert!(status.success(), "child resume process failed");

    let got = std::fs::read_to_string(&out).expect("child wrote results");
    assert_eq!(got, expected, "fresh-process resume must be byte-identical");
    let _ = std::fs::remove_file(&inp);
    let _ = std::fs::remove_file(&out);
}
