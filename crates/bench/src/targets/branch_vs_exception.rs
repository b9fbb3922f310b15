//! **§4.2.2, branch-vs-exception**: on the out-of-order machine the
//! informing trap can be taken as soon as the miss is detected
//! (mispredicted-branch treatment) or postponed until the operation reaches
//! the head of the reorder buffer (exception treatment). The paper measured
//! the exception treatment 9 % / 7 % slower on `compress` with 1- /
//! 10-instruction handlers. A handler-length × trap-model sweep.

use imo_core::experiment::Variant;
use imo_core::instrument::{HandlerBody, HandlerKind, Scheme};
use imo_core::Machine;
use imo_cpu::{OooConfig, TrapModel};
use imo_util::json::Json;
use imo_workloads::Scale;

use crate::report::emit;
use crate::sweep::{cross2, CpuCell, SweepSpec};

/// One cell's outcome: the instrumented run under one trap model.
pub struct Cell {
    /// Generic handler length (1 or 10 instructions).
    pub handler_len: u32,
    /// Branch or Exception treatment.
    pub trap_model: TrapModel,
    /// Cycles of the instrumented (S) run.
    pub cycles: u64,
    /// S-run time normalized to the uninstrumented N run.
    pub norm_time: f64,
}

/// All four cells, handler-length-major, `[Branch, Exception]` inner.
pub struct Output {
    /// The sweep results in cell order.
    pub cells: Vec<Cell>,
}

/// Runs the 2 × 2 sweep across the pool. Each cell is a [`CpuCell`], so
/// its runs go through the memo; the branch-model ones are `fig2` cells.
///
/// # Panics
///
/// Panics if `compress` is missing or a simulation fails.
#[must_use]
pub fn compute() -> Output {
    let cells = cross2(&[1u32, 10], &[TrapModel::Branch, TrapModel::Exception]);
    let results = SweepSpec::new("branch_vs_exception", cells).run(|_, (len, trap_model)| {
        let mut cfg = OooConfig::paper();
        cfg.trap_model = trap_model;
        let cell = CpuCell {
            workload: "compress",
            scale: Scale::Small,
            machine: Machine::OutOfOrder(cfg),
            variants: vec![
                Variant { label: "N", scheme: Scheme::None },
                Variant {
                    label: "S",
                    scheme: Scheme::Trap {
                        handlers: HandlerKind::Single,
                        body: HandlerBody::Generic { len },
                    },
                },
            ],
        };
        let res = cell.run();
        let s = res.raw.iter().find(|(l, _)| *l == "S").expect("S ran").1;
        let norm = res.bars.iter().find(|b| b.label == "S").expect("S bar").total;
        Cell { handler_len: len, trap_model, cycles: s.cycles, norm_time: norm }
    });
    Output { cells: results }
}

/// The baseline payload: one row per cell.
#[must_use]
pub fn payload(out: &Output) -> Json {
    Json::arr(out.cells.iter().map(|c| {
        Json::obj([
            ("handler_len", Json::from(u64::from(c.handler_len))),
            ("trap_model", Json::Str(format!("{:?}", c.trap_model))),
            ("cycles", Json::from(c.cycles)),
            ("norm_time", Json::from(c.norm_time)),
        ])
    }))
}

/// Prints per-model cycles and the exception-vs-branch slowdowns.
pub fn print(out: &Output) {
    println!(
        "§4.2.2: informing trap handled as mispredicted branch vs exception (compress, ooo).\n"
    );
    for pair in out.cells.chunks_exact(2) {
        for c in pair {
            println!(
                "{:>3}-instr handler, {:?}: {} cycles (norm {:.3})",
                c.handler_len, c.trap_model, c.cycles, c.norm_time
            );
        }
        let slowdown = pair[1].cycles as f64 / pair[0].cycles as f64 - 1.0;
        println!(
            "  exception vs branch: +{:.1}% (paper: +{}%)\n",
            slowdown * 100.0,
            if pair[0].handler_len == 1 { 9 } else { 7 }
        );
    }
}

/// The whole bench target: compute, print, write the baseline.
pub fn run() {
    let out = compute();
    print(&out);
    emit("branch_vs_exception", payload(&out));
}
