//! Microbenches of the simulator substrate itself: cache probes, functional
//! execution, instrumentation rewriting, and the two cycle-level models
//! end-to-end on a small kernel. These track the *simulator's* speed (host
//! time), not simulated time — so this target stays serial: running timing
//! samples concurrently would corrupt the measurements.

use std::hint::black_box;

use imo_util::json::Json;
use imo_util::Bench;

use imo_core::instrument::{instrument, HandlerBody, HandlerKind, Scheme};
use imo_cpu::Machine;
use imo_isa::exec::{Executor, NeverMiss};
use imo_mem::{Cache, CacheConfig, HierarchyConfig, MemoryHierarchy};
use imo_workloads::{by_name, Scale};

use crate::report::emit;

/// The completed bench runner.
pub struct Output {
    /// All recorded timings.
    pub bench: Bench,
}

fn bench_cache(b: &mut Bench) {
    let mut cache = Cache::new(CacheConfig::new(32 * 1024, 2, 32));
    cache.access(0x1000, false);
    b.bench("cache/probe_hit", || black_box(cache.access(black_box(0x1000), false)));

    let mut cache = Cache::new(CacheConfig::new(32 * 1024, 2, 32));
    let mut addr = 0u64;
    b.bench("cache/probe_streaming_miss", || {
        addr = addr.wrapping_add(32);
        black_box(cache.access(black_box(addr), false))
    });

    let mut h = MemoryHierarchy::new(HierarchyConfig::out_of_order());
    let mut addr = 0u64;
    let mut cycle = 0u64;
    b.bench("hierarchy/probe_and_schedule", || {
        addr = addr.wrapping_add(8);
        cycle += 1;
        let p = h.probe_data(black_box(addr), false);
        black_box(h.schedule_data(p, cycle))
    });
}

fn bench_exec(b: &mut Bench) {
    let spec = by_name("espresso").expect("espresso exists");
    let program = (spec.build)(Scale::Test);
    b.bench("exec/functional_espresso_test", || {
        let mut e = Executor::new(&program);
        e.run(&mut NeverMiss, 50_000_000).expect("runs")
    });
}

fn bench_instrument(b: &mut Bench) {
    let spec = by_name("compress").expect("compress exists");
    let program = (spec.build)(Scale::Test);
    let scheme = Scheme::Trap {
        handlers: HandlerKind::PerReference,
        body: HandlerBody::Generic { len: 10 },
    };
    b.bench("instrument/trap_unique_compress", || {
        instrument(black_box(&program), &scheme).expect("instruments")
    });
}

fn bench_models(b: &mut Bench) {
    let spec = by_name("doduc").expect("doduc exists");
    let program = (spec.build)(Scale::Test);
    b.bench_sampled("models/ooo_doduc_test", 5, || {
        Machine::default_ooo().run(&program).expect("runs")
    });
    b.bench_sampled("models/inorder_doduc_test", 5, || {
        Machine::default_in_order().run(&program).expect("runs")
    });
}

/// Runs every microbench serially (wall-clock fidelity).
#[must_use]
pub fn compute() -> Output {
    let mut b = Bench::new("substrate");
    bench_cache(&mut b);
    bench_exec(&mut b);
    bench_instrument(&mut b);
    bench_models(&mut b);
    Output { bench: b }
}

/// The baseline payload (carries its own `bench` envelope).
#[must_use]
pub fn payload(out: &Output) -> Json {
    out.bench.to_json()
}

/// Prints the timing table.
pub fn print(out: &Output) {
    println!("Substrate microbenches (host ns/iter, median of samples).\n");
    print!("{}", out.bench.render());
}

/// The whole bench target: compute, print, write the baseline.
pub fn run() {
    let out = compute();
    print(&out);
    emit("substrate", payload(&out));
}
