//! **Simulator performance**: how fast the event-driven timing cores
//! simulate, in sim-cycles per wall-second, on a miss-dominated workload
//! (`mdljsp2`: index-list gathers, scattered FP loads) for both machines
//! × 3 instrumentation schemes.
//!
//! Each row carries three proofs alongside its timing:
//!
//! * `identical_to_tick_accurate` — the fast-forwarding core's `RunResult`
//!   is bit-identical to a reference run with
//!   `RunLimits::force_tick_accurate` (cycle skipping is a pure
//!   optimization);
//! * `speedup_vs_tick` — the measured wall-clock win of cycle skipping;
//! * `dedup` — a controlled double-pass over six cells through the sweep
//!   memo cache ([`crate::sweep::memoized`]), nonce-namespaced so the
//!   counts are exactly requested=12 / simulated=6 / deduped=6 whether the
//!   target runs standalone or after twelve other targets have warmed the
//!   cache in the same `ci_gate` process.
//!
//! Simulated counters and the dedup counts are exact in the gate; the
//! `*_ns` / `cycles_per_sec` / `speedup_vs_tick` fields are host wall-clock
//! and compared with the tolerance band. Each wall column has its median
//! and its minimum: on a shared host the minimum is the steadier figure.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use imo_core::instrument::{instrument, HandlerBody, HandlerKind, Scheme};
use imo_cpu::speed::speed_stats;
use imo_cpu::{RunLimits, RunResult};
use imo_util::json::Json;
use imo_workloads::{by_name, Scale};

use crate::report::{emit, Table};
use crate::sweep::{both_machines, memo_stats, memoized, MemoStats};

const WORKLOAD: &str = "mdljsp2";

fn schemes() -> [(&'static str, Scheme); 3] {
    let body = HandlerBody::Generic { len: 10 };
    [
        ("none", Scheme::None),
        ("trap-10S", Scheme::Trap { handlers: HandlerKind::Single, body }),
        ("cc-10S", Scheme::ConditionCode { handlers: HandlerKind::Single, body }),
    ]
}

/// One machine × scheme measurement.
pub struct Row {
    /// Machine name ("ooo" / "in-order").
    pub machine: &'static str,
    /// Scheme label ("none" / "trap-10S" / "cc-10S").
    pub scheme: &'static str,
    /// The event-driven run's result (simulated counters are exact).
    pub result: RunResult,
    /// Event-driven result equals the tick-accurate reference bit-for-bit.
    pub identical: bool,
    /// Median wall time of one event-driven run.
    pub wall_ns: u64,
    /// Fastest event-driven run.
    pub wall_min_ns: u64,
    /// Median wall time of one tick-accurate reference run.
    pub tick_ns: u64,
    /// Fastest tick-accurate reference run.
    pub tick_min_ns: u64,
    /// Fraction of the event run's fetch groups served from a single
    /// pre-decoded basic block (exact counter, not wall clock).
    pub block_hit_rate: f64,
    /// Percentage of the event run's instructions retired through batched
    /// plain-run execution (exact counter, not wall clock).
    pub batched_instr_pct: f64,
}

impl Row {
    /// Simulated cycles per wall-second of the event-driven core (median
    /// run).
    #[must_use]
    pub fn cycles_per_sec(&self) -> f64 {
        self.result.cycles as f64 * 1e9 / self.wall_ns.max(1) as f64
    }

    /// Wall-clock speedup of cycle skipping over the tick-accurate core.
    #[must_use]
    pub fn speedup_vs_tick(&self) -> f64 {
        self.tick_ns as f64 / self.wall_ns.max(1) as f64
    }
}

/// All rows plus the memo-dedup proof counts.
pub struct Output {
    /// Machine-major × scheme measurements.
    pub rows: Vec<Row>,
    /// The controlled dedup proof (requested=12, simulated=6).
    pub dedup: MemoStats,
}

fn samples() -> u32 {
    std::env::var("IMO_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(5)
        .clamp(3, 101)
}

/// Median and minimum wall time of one `f()` call (one warmup, then
/// `samples` timed runs).
fn run_ns(samples: u32, mut f: impl FnMut() -> RunResult) -> (u64, u64) {
    std::hint::black_box(f());
    let mut v = Vec::with_capacity(samples as usize);
    for _ in 0..samples {
        let t = Instant::now();
        std::hint::black_box(f());
        v.push(t.elapsed().as_nanos() as u64);
    }
    v.sort_unstable();
    (v[v.len() / 2].max(1), v[0].max(1))
}

/// A controlled double-pass over six small cells through the memo cache.
///
/// The key namespace carries a per-invocation nonce, so pass 1 always misses
/// (6 simulations) and pass 2 always hits (6 served from cache) — the
/// returned counts are exactly `requested: 12, simulated: 6`. They are
/// counted here, around the memo calls, rather than read off the
/// process-wide [`memo_stats`], so other threads using the cache at the
/// same time (concurrent unit tests, say) cannot leak into them. The cells
/// deliberately go through the memory-only [`memoized`], never the on-disk
/// store: the nonce restarts at 0 each process, so a persisted entry would
/// turn pass 1's misses into disk hits across runs and break the exact
/// counts.
fn dedup_proof() -> MemoStats {
    static NONCE: AtomicU64 = AtomicU64::new(0);
    let nonce = NONCE.fetch_add(1, Ordering::Relaxed);
    let spec = by_name(WORKLOAD).expect("workload exists");
    let program = (spec.build)(Scale::Test);
    let (mut requested, mut simulated) = (0, 0);
    for _pass in 0..2 {
        for machine in both_machines() {
            for (label, scheme) in schemes() {
                let key = format!("simspeed-dedup/{nonce}/{}/{label}", machine.name());
                requested += 1;
                memoized(&key, || {
                    simulated += 1;
                    let inst = instrument(&program, &scheme).expect("instruments");
                    machine
                        .run_limited(&inst.program, RunLimits::default())
                        .expect("dedup cell simulates")
                });
            }
        }
    }
    MemoStats { requested, simulated, served_disk: 0, disk_writes: 0, disk_rejected: 0 }
}

/// Runs every machine × scheme row (serial — these are wall-clock timings)
/// plus the dedup proof.
///
/// # Panics
///
/// Panics if instrumentation or a simulation fails, or if an event-driven
/// run is not bit-identical to its tick-accurate reference.
#[must_use]
pub fn compute() -> Output {
    let spec = by_name(WORKLOAD).expect("workload exists");
    let program = (spec.build)(Scale::Small);
    let n = samples();
    let mut rows = Vec::new();
    for machine in both_machines() {
        for (label, scheme) in schemes() {
            let inst = instrument(&program, &scheme).expect("instruments");
            let p = &inst.program;
            let before = speed_stats();
            let event = machine.run_limited(p, RunLimits::default()).expect("event run");
            // Fast-path coverage counters for exactly this event run (the
            // globals keep accumulating across the timed samples below).
            let fast = speed_stats().since(before);
            let tick = machine.run_limited(p, RunLimits::tick_accurate()).expect("tick run");
            let identical = event == tick;
            assert!(
                identical,
                "{}/{label}: fast-forward diverged from tick-accurate",
                machine.name()
            );
            let (wall_ns, wall_min_ns) =
                run_ns(n, || machine.run_limited(p, RunLimits::default()).expect("event run"));
            let (tick_ns, tick_min_ns) =
                run_ns(n, || machine.run_limited(p, RunLimits::tick_accurate()).expect("tick run"));
            rows.push(Row {
                machine: machine.name(),
                scheme: label,
                result: event,
                identical,
                wall_ns,
                wall_min_ns,
                tick_ns,
                tick_min_ns,
                block_hit_rate: fast.block_hit_rate(),
                batched_instr_pct: fast.batched_instr_pct(),
            });
        }
    }
    Output { rows, dedup: dedup_proof() }
}

/// The baseline payload.
#[must_use]
pub fn payload(out: &Output) -> Json {
    let rows = out.rows.iter().map(|r| {
        Json::obj([
            ("machine", Json::from(r.machine)),
            ("scheme", Json::from(r.scheme)),
            ("sim_cycles", Json::from(r.result.cycles)),
            ("instructions", Json::from(r.result.instructions)),
            ("identical_to_tick_accurate", Json::Bool(r.identical)),
            ("wall_ns", Json::from(r.wall_ns)),
            ("wall_min_ns", Json::from(r.wall_min_ns)),
            ("tick_wall_ns", Json::from(r.tick_ns)),
            ("tick_wall_min_ns", Json::from(r.tick_min_ns)),
            ("cycles_per_sec", Json::from(r.cycles_per_sec())),
            ("speedup_vs_tick", Json::from(r.speedup_vs_tick())),
            ("block_hit_rate", Json::from(r.block_hit_rate)),
            ("batched_instr_pct", Json::from(r.batched_instr_pct)),
        ])
    });
    Json::obj([
        ("workload", Json::from(WORKLOAD)),
        ("rows", Json::arr(rows)),
        (
            "dedup",
            Json::obj([
                ("requested", Json::from(out.dedup.requested)),
                ("simulated", Json::from(out.dedup.simulated)),
                ("deduped", Json::from(out.dedup.deduped())),
                ("hit_rate", Json::from(out.dedup.hit_rate())),
            ]),
        ),
    ])
}

/// Prints the timing table, the dedup proof, and the process-wide memo
/// coverage.
pub fn print(out: &Output) {
    println!("SIMULATOR PERFORMANCE. Event-driven cores on {WORKLOAD} (miss-dominated).\n");
    let mut t = Table::new([
        "machine",
        "scheme",
        "sim cycles",
        "Mcycles/sec",
        "best Mcycles/sec",
        "speedup vs tick",
        "block hit",
        "batched",
        "identical",
    ]);
    for r in &out.rows {
        t.row([
            r.machine.to_string(),
            r.scheme.to_string(),
            r.result.cycles.to_string(),
            format!("{:.1}", r.cycles_per_sec() / 1e6),
            format!("{:.1}", r.result.cycles as f64 * 1e3 / r.wall_min_ns as f64),
            format!("{:.2}x", r.speedup_vs_tick()),
            format!("{:.1}%", r.block_hit_rate * 100.0),
            format!("{:.1}%", r.batched_instr_pct),
            if r.identical { "yes".to_string() } else { "NO".to_string() },
        ]);
    }
    print!("{}", t.render());
    println!(
        "\ndedup proof: {} requested, {} simulated, {} served from cache (hit rate {:.0}%)",
        out.dedup.requested,
        out.dedup.simulated,
        out.dedup.deduped(),
        out.dedup.hit_rate() * 100.0
    );
    let s = memo_stats();
    println!(
        "process-wide memo: {} requested, {} simulated, {} served from memory, {} from disk",
        s.requested,
        s.simulated,
        s.served_memory(),
        s.served_disk
    );
}

/// The whole bench target: compute, print, write the baseline.
pub fn run() {
    let out = compute();
    print(&out);
    emit("simspeed", payload(&out));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_proof_counts_are_exact() {
        // Twice, to prove the nonce keeps repeat invocations exact too.
        for _ in 0..2 {
            let s = dedup_proof();
            assert_eq!(s.requested, 12);
            assert_eq!(s.simulated, 6);
            assert_eq!(s.deduped(), 6);
            assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn schemes_cover_none_trap_cc() {
        let labels: Vec<_> = schemes().iter().map(|(l, _)| *l).collect();
        assert_eq!(labels, ["none", "trap-10S", "cc-10S"]);
    }
}
