//! The CPU workloads: Figure 2 cells simulated on one machine, or on both
//! machines under the `why_miss` attribution recorder.
//!
//! A pass runs every cell of the workload once, in an order drawn from the
//! seed, on one thread. The programs are built and instrumented during
//! set-up, before anything is timed.

use std::time::Instant;

use imo_core::experiment::figure2_variants;
use imo_core::instrument::instrument;
use imo_core::Machine;
use imo_cpu::speed::{speed_stats, SpeedStats};
use imo_cpu::RunLimits;
use imo_isa::Program;
use imo_obs::Recorder;
use imo_util::rng::{mix64, SmallRng};
use imo_workloads::{all, Scale};

use crate::metrics::{Group, Measured};
use crate::oracle::{cell_key, observed_problems, Oracle, Tally};
use crate::spans::Tracer;
use crate::stats::{fastest, largest, summary, tail, Summary};
use crate::{for_seconds, peak_rss_mb, probe, reset_peak_rss, RunOpts, SETUP_SECONDS};

/// One of the two simulated machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mach {
    /// The in-order Alpha-21164-like core.
    InOrder,
    /// The out-of-order R10000-like core.
    Ooo,
}

impl Mach {
    /// Both machines, in-order first.
    pub const BOTH: [Mach; 2] = [Mach::InOrder, Mach::Ooo];

    /// The paper's configuration of this machine.
    pub fn machine(self) -> Machine {
        match self {
            Mach::InOrder => Machine::default_in_order(),
            Mach::Ooo => Machine::default_ooo(),
        }
    }

    /// The name the reference files use.
    pub fn name(self) -> &'static str {
        match self {
            Mach::InOrder => "in-order",
            Mach::Ooo => "ooo",
        }
    }

    /// The name metric names use.
    pub fn tag(self) -> &'static str {
        match self {
            Mach::InOrder => "inorder",
            Mach::Ooo => "ooo",
        }
    }

    /// The layer its timing core is.
    pub fn layer(self) -> &'static str {
        match self {
            Mach::InOrder => "cpu.inorder",
            Mach::Ooo => "cpu.ooo",
        }
    }
}

/// Which CPU workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuKind {
    /// 14 kernels × 5 variants on the in-order machine.
    InOrder,
    /// 14 kernels × 5 variants on the out-of-order machine.
    Ooo,
    /// 14 kernels × {N, 10S} × both machines, under the attribution recorder.
    Observed,
}

/// One simulation a pass runs.
pub struct Cell {
    /// `kernel/machine/variant`, as in the references.
    pub key: String,
    /// The machine it runs on.
    pub mach: Mach,
    /// Index into [`Inputs::programs`].
    pub program: usize,
}

/// Everything set-up builds.
pub struct Inputs {
    /// Instrumented programs, shared by cells that differ only in machine.
    pub programs: Vec<Program>,
    /// The workload's cells, kernel-major.
    pub cells: Vec<Cell>,
    machines: [Machine; 2],
}

/// Set-up: builds every kernel at Scale::Small (`Spec::build`) and
/// instruments it for each variant the workload runs.
pub fn build_inputs(kind: CpuKind) -> Result<Inputs, String> {
    let (machs, labels): (&[Mach], &[&str]) = match kind {
        CpuKind::InOrder => (&[Mach::InOrder], &["N", "1S", "1U", "10S", "10U"]),
        CpuKind::Ooo => (&[Mach::Ooo], &["N", "1S", "1U", "10S", "10U"]),
        CpuKind::Observed => (&Mach::BOTH, &["N", "10S"]),
    };
    let variants: Vec<_> =
        figure2_variants().into_iter().filter(|v| labels.contains(&v.label)).collect();
    let mut programs = Vec::new();
    let mut cells = Vec::new();
    for spec in all() {
        let base = (spec.build)(Scale::Small);
        for v in &variants {
            let inst = instrument(&base, &v.scheme)
                .map_err(|e| format!("instrumenting {} as {}: {e}", spec.name, v.label))?;
            programs.push(inst.program);
            for &mach in machs {
                let key = cell_key(spec.name, mach.name(), v.label);
                cells.push(Cell { key, mach, program: programs.len() - 1 });
            }
        }
    }
    Ok(Inputs { programs, cells, machines: [Mach::InOrder.machine(), Mach::Ooo.machine()] })
}

/// The cell order of one pass: a Fisher–Yates shuffle seeded by
/// `(seed, pass)`.
pub fn pass_order(seed: u64, pass: u64, n: usize) -> Vec<usize> {
    let mut rng = SmallRng::seed_from_u64(mix64(seed, pass));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.bounded_u64(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

/// The `k` cells with the fewest reference cycles — the `--smoke` subset.
pub fn cheapest(inputs: &Inputs, oracle: &Oracle, k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..inputs.cells.len()).collect();
    idx.sort_by_key(|&i| oracle.cycles(&inputs.cells[i].key).unwrap_or(u64::MAX));
    idx.truncate(k);
    idx
}

/// What one pass measured and simulated.
#[derive(Debug, Clone, Default)]
pub struct PassOut {
    /// Host time of the whole pass, s.
    pub wall_s: f64,
    /// `(cell, host ms)` of each timed call, in the order they ran.
    pub calls: Vec<(usize, f64)>,
    /// `(cell, MB)`: the peak resident set during each call.
    pub rss: Vec<(usize, f64)>,
    /// Simulated cycles, instructions, L1D misses, L2 misses and informing
    /// traps, summed over the pass.
    pub sim: [u64; 5],
    /// Misses the attribution recorder classified.
    pub classified: u64,
    /// Events the recorder ring dropped.
    pub dropped: u64,
}

/// Runs the cells `order` names once each.
pub fn run_pass(
    kind: CpuKind,
    inputs: &Inputs,
    order: &[usize],
    oracle: &Oracle,
    tally: &mut Tally,
    tr: &mut Tracer,
) -> PassOut {
    let mut out = PassOut::default();
    let pass = tr.enter("pass", "bench.pass", None);
    for &i in order {
        let cell = &inputs.cells[i];
        let program = &inputs.programs[cell.program];
        let m = &inputs.machines[cell.mach as usize];
        reset_peak_rss();
        let (outcome, problems) = if kind == CpuKind::Observed {
            let span = tr.enter("Machine::run_observed", "obs", Some(&cell.key));
            let mut rec = Recorder::disabled();
            rec.enable_attribution(m.attrib_config());
            let outcome = m.run_observed(program, &mut rec).map(|(r, _)| r);
            out.calls.push((i, tr.exit(span).as_secs_f64() * 1e3));
            let mut problems = oracle.cell_problems(&cell.key, &outcome);
            if let Ok(r) = &outcome {
                problems.extend(observed_problems(r, None, rec.attribution()));
            }
            out.classified += rec.attribution().map_or(0, |a| a.cpu_classified_total());
            out.dropped += rec.dropped();
            (outcome, problems)
        } else {
            let span = tr.enter("Machine::run_limited", cell.mach.layer(), Some(&cell.key));
            let outcome = m.run_limited(program, RunLimits::default());
            out.calls.push((i, tr.exit(span).as_secs_f64() * 1e3));
            let problems = oracle.cell_problems(&cell.key, &outcome);
            (outcome, problems)
        };
        out.rss.push((i, peak_rss_mb(std::process::id())));
        if let Ok(r) = outcome {
            let add =
                [r.cycles, r.instructions, r.mem.l1d_misses, r.mem.l2_misses, r.informing_traps];
            for (s, a) in out.sim.iter_mut().zip(add) {
                *s += a;
            }
        }
        tally.record(&cell.key, &problems);
    }
    out.wall_s = tr.exit(pass).as_secs_f64();
    out
}

/// The set-up samples and the inputs the last set-up built.
fn set_up(kind: CpuKind) -> Result<(Vec<f64>, Inputs), String> {
    let (mut samples, mut inputs) = (Vec::new(), None);
    for_seconds(SETUP_SECONDS, 1, |_| {
        let t = Instant::now();
        inputs = Some(build_inputs(kind)?);
        samples.push(t.elapsed().as_secs_f64());
        Ok(())
    })?;
    Ok((samples, inputs.expect("set-up ran at least once")))
}

/// Host seconds of a pass made of each cell's fastest call in `passes`.
fn fastest_pass_s(n: usize, passes: &[PassOut]) -> f64 {
    fastest(n, passes.iter().flat_map(|p| p.calls.iter().copied())).iter().sum::<f64>() / 1e3
}

/// Runs a CPU workload for `opts.seconds`: untraced, the end-to-end
/// metrics; traced, the layer probe and passes with tracing on and off, for
/// the per-layer metrics.
pub fn measure(
    kind: CpuKind,
    opts: &RunOpts,
    oracle: &Oracle,
    tally: &mut Tally,
    tr: &mut Tracer,
) -> Result<Measured, String> {
    let (setup, inputs) = set_up(kind)?;
    let n = inputs.cells.len();
    let mut m = Measured { threads: 1, seed_used: true, ..Measured::default() };
    let start = Instant::now();

    if !tr.is_on() {
        let mut passes = Vec::new();
        m.passes = for_seconds(opts.seconds, 2, |p| {
            let order = pass_order(opts.seed, p as u64, n);
            passes.push(run_pass(kind, &inputs, &order, oracle, tally, tr));
            Ok(())
        })?;
        let calls: Vec<(usize, f64)> =
            passes.iter().flat_map(|p| p.calls.iter().copied()).collect();
        let best = fastest(n, calls.iter().copied());
        let pass_s = best.iter().sum::<f64>() / 1e3;
        let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
        m.metrics.insert("setup_s".into(), summary(&setup));
        m.metrics.insert("pass_s".into(), Summary::derived(pass_s, calls.len()));
        m.metrics.insert("call_ms_p50".into(), summary(&best));
        let rss = fastest(n, passes.iter().flat_map(|p| p.rss.iter().copied()));
        m.metrics.insert("peak_rss_mb".into(), Summary::derived(largest(&rss), calls.len()));
        m.extra.insert("pass_wall_s".into(), summary(&walls));
        let cycles = passes[0].sim[0] as f64;
        m.extra.insert(
            "sim_mcycles_per_s".into(),
            Summary::derived(cycles / pass_s / 1e6, calls.len()),
        );
        let raw: Vec<f64> = calls.iter().map(|c| c.1).collect();
        if let Some((p, value)) = tail(&raw) {
            m.extra.insert(format!("call_ms_p{p}"), Summary { value, ..summary(&raw) });
        }
        return Ok(m);
    }

    // Traced: the layer probe, then passes that alternate tracing on and off
    // (on first), so the tracing overhead compares passes of one run.
    m.metrics.extend(probe::run(oracle, tally, tr)?);
    let before = speed_stats();
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let mut off = Tracer::new(false);
    let left = (opts.seconds - start.elapsed().as_secs_f64()).max(0.0);
    m.passes = for_seconds(left, 2, |p| {
        let order = pass_order(opts.seed, p as u64, n);
        if p % 2 == 0 {
            traced.push(run_pass(kind, &inputs, &order, oracle, tally, tr));
        } else {
            untraced.push(run_pass(kind, &inputs, &order, oracle, tally, &mut off));
        }
        Ok(())
    })?;
    let fast = speed_delta(before, speed_stats());

    let (on_s, off_s) = (fastest_pass_s(n, &traced), fastest_pass_s(n, &untraced));
    m.metrics.insert("trace.pass_s".into(), Summary::derived(on_s, traced.len() * n));
    m.metrics.insert("trace.overhead_pct".into(), Summary::single((on_s / off_s - 1.0) * 100.0));
    m.metrics.insert("cpu.fastpath.block_hit_rate".into(), Summary::single(fast.block_hit_rate()));
    m.metrics
        .insert("cpu.fastpath.batched_instr_pct".into(), Summary::single(fast.batched_instr_pct()));
    let per_pass = |f: &dyn Fn(&PassOut) -> u64| {
        summary(&traced.iter().map(|p| f(p) as f64).collect::<Vec<_>>())
    };
    for (i, name) in ["cycles", "instructions", "l1d_misses", "l2_misses", "informing_traps"]
        .into_iter()
        .enumerate()
    {
        m.metrics.insert(format!("sim.{name}"), per_pass(&|p| p.sim[i]));
    }
    m.metrics.insert("obs.attrib.classified".into(), per_pass(&|p| p.classified));
    m.metrics.insert("obs.recorder.dropped".into(), per_pass(&|p| p.dropped));
    m.groups = vec![Group::Probe, Group::Pass, Group::Cpu];
    m.extra.insert("untraced.pass_s".into(), Summary::derived(off_s, untraced.len() * n));
    Ok(m)
}

fn speed_delta(before: SpeedStats, after: SpeedStats) -> SpeedStats {
    SpeedStats {
        groups: after.groups - before.groups,
        block_groups: after.block_groups - before.block_groups,
        plain_instrs: after.plain_instrs - before.plain_instrs,
        instrs: after.instrs - before.instrs,
    }
}

/// Smoke check: one untraced pass over the two cheapest cells of `kind`.
pub fn smoke(kind: CpuKind, oracle: &Oracle) -> Result<Tally, String> {
    let inputs = build_inputs(kind)?;
    let mut tally = Tally::default();
    let order = cheapest(&inputs, oracle, 2);
    run_pass(kind, &inputs, &order, oracle, &mut tally, &mut Tracer::new(false));
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_one_order_and_another_seed_another() {
        let a = pass_order(1996, 3, 70);
        assert_eq!(a, pass_order(1996, 3, 70));
        let b = pass_order(7, 3, 70);
        assert_ne!(a, b);
        assert_ne!(a, pass_order(1996, 4, 70), "each pass draws a new order");
        let (mut sa, mut sb) = (a.clone(), b.clone());
        sa.sort_unstable();
        sb.sort_unstable();
        assert_eq!(sa, (0..70).collect::<Vec<_>>());
        assert_eq!(sa, sb, "same cells, different order");
    }

    #[test]
    fn workloads_have_the_documented_cell_counts() {
        let count = |k| build_inputs(k).expect("builds").cells.len();
        assert_eq!(count(CpuKind::InOrder), 70);
        assert_eq!(count(CpuKind::Ooo), 70);
        assert_eq!(count(CpuKind::Observed), 56);
    }
}
