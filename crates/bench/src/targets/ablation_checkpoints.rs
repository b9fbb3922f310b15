//! **§3.2 ablation**: under the mispredicted-branch treatment, every
//! informing memory operation holds a rename checkpoint while its cache
//! outcome is unresolved. The R10000 provides 3; the paper estimates
//! informing-as-branch needs ~3× as much shadow state. A checkpoint-budget
//! sweep on a dense informing workload.

use imo_core::experiment::Variant;
use imo_core::instrument::{HandlerBody, HandlerKind, Scheme};
use imo_cpu::{Machine, OooConfig};
use imo_util::json::Json;
use imo_workloads::Scale;

use crate::report::{emit, Table};
use crate::sweep::{CpuCell, SweepSpec};

const BUDGETS: [u32; 5] = [1, 2, 3, 6, 12];

/// The cycles measured at each checkpoint budget, in ascending order.
pub struct Output {
    /// `(checkpoints, cycles)` per budget.
    pub cycles: Vec<(u32, u64)>,
}

/// Runs the checkpoint-budget sweep across the pool. Each budget is a
/// one-variant [`CpuCell`], so its run goes through the memo; the
/// 12-checkpoint run (`OooConfig::paper()`'s budget) is a `fig2` cell.
///
/// # Panics
///
/// Panics if the workload is missing or a simulation fails.
#[must_use]
pub fn compute() -> Output {
    let scheme =
        Scheme::Trap { handlers: HandlerKind::Single, body: HandlerBody::Generic { len: 1 } };
    let cycles = SweepSpec::new("ablation_checkpoints", BUDGETS.to_vec()).run(|_, c| {
        let mut cfg = OooConfig::paper();
        cfg.max_checkpoints = c;
        let cell = CpuCell {
            workload: "alvinn", // dense, mostly-hitting loads
            scale: Scale::Small,
            machine: Machine::OutOfOrder(cfg),
            variants: vec![Variant { label: "S", scheme }],
        };
        (c, cell.run().raw[0].1.cycles)
    });
    Output { cycles }
}

fn base12(out: &Output) -> f64 {
    out.cycles.last().expect("sweep is non-empty").1 as f64
}

/// The baseline payload: one row per budget.
#[must_use]
pub fn payload(out: &Output) -> Json {
    let base = base12(out);
    Json::arr(out.cycles.iter().map(|(c, cy)| {
        Json::obj([
            ("checkpoints", Json::from(u64::from(*c))),
            ("cycles", Json::from(*cy)),
            ("slowdown_vs_12", Json::from(*cy as f64 / base)),
        ])
    }))
}

/// Prints the budget table and the expected shape.
pub fn print(out: &Output) {
    println!("§3.2 ablation: rename-checkpoint budget under informing-as-branch.\n");
    let base = base12(out);
    let mut t = Table::new(["checkpoints", "cycles", "slowdown vs 12"]);
    for (c, cy) in &out.cycles {
        t.row([c.to_string(), cy.to_string(), format!("{:.3}x", *cy as f64 / base)]);
    }
    print!("{}", t.render());
    println!(
        "\nexpected: the R10000's 3 checkpoints throttle dispatch when every reference\n\
         is a potential branch; ~3x the budget recovers the performance (§3.2)."
    );
}

/// The whole bench target: compute, print, write the baseline.
pub fn run() {
    let out = compute();
    print(&out);
    emit("ablation_checkpoints", payload(&out));
}
