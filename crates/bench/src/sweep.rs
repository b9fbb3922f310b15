//! The deterministic parallel sweep engine behind every bench target.
//!
//! A bench is a *matrix*: a cross product of axes (workload, machine,
//! variant set, scheme, seed, …) whose cells are independent simulations.
//! Instead of hand-rolled nested loops, each target declares its cells with
//! [`Matrix`] / [`cross2`] / [`cross3`] and fans them out with
//! [`SweepSpec::run`], which executes the cells on the
//! [`imo_util::pool`] work-stealing pool and returns results **in cell
//! order** — so the rendered tables and `BENCH_*.json` baselines are
//! byte-identical for any thread count (`IMO_THREADS=1` reproduces the
//! serial run exactly).
//!
//! The module also provides the two canonical cell shapes of this paper's
//! experiment matrix: [`CpuCell`] (one workload × machine × variant-set
//! point of the Figure 2/3-style sweeps) and the parallel
//! [`crate::runners::fig4_rows`] app × scheme sweep built on it.
//!
//! ## Result memoization
//!
//! The 13 bench targets overlap: `handler100` re-runs `fig2`/`fig3`'s
//! uninstrumented N cells, `fig4_sensitivity`'s centre sweep points are
//! exactly `fig4`'s matrix, `fault_resilience`'s migratory baseline is one
//! of its own identity cells. [`memoized`] is a process-wide cache keyed by
//! a *structural* key string — every input that can change the simulated
//! counters (workload spec, machine params, scheme, fault plan, seed,
//! limits) rendered via `Debug`, with oversized components (generated
//! traces) folded to an [`imo_util::hash::debug_hash`] — so one `registry()`
//! pass (`ci_gate`, `tier2.sh`) simulates each distinct cell once.
//! Simulations are deterministic, which is what makes serving a cached
//! `RunResult` sound: a cache hit is bit-identical to a re-run, and
//! [`memo_stats`] proves the dedup coverage without affecting any payload.
//!
//! ## The on-disk L2: the content-addressed sweep store
//!
//! The in-process map is the L1; [`memoized_stored`] adds the persistent
//! L2 of [`imo_util::store`] under `.imo-cache/`, addressed by
//! `(store schema version, code fingerprint, key)`. The fingerprint
//! ([`code_fingerprint`]) is a build-time digest of every simulator
//! crate's sources, so a simulator change invalidates the store wholesale
//! while a bench-matrix edit invalidates only the touched cells (their
//! inputs are the key). Disk values round-trip through the bit-exact
//! [`crate::codec`] encodings, and any verification or decode failure
//! silently falls back to recompute: a stale or corrupt store can cost
//! time, never correctness.
//!
//! Configuration: `IMO_STORE=off|ro|rw` (default `rw`), `IMO_STORE_DIR`
//! (default `<repo>/.imo-cache`).

use std::any::Any;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use imo_core::experiment::{normalize_experiment, ExperimentResult, Variant};
use imo_core::instrument::instrument;
use imo_core::Machine;
use imo_cpu::RunLimits;
use imo_util::json::Json;
use imo_util::pool::Pool;
use imo_util::snapshot::SnapshotError;
use imo_util::store::{Store, StoreMode};
use imo_workloads::{by_name, Scale};

use crate::codec::{decode_result, result_json};

/// Process-wide memo cache: structural key → boxed result.
static MEMO: OnceLock<Mutex<HashMap<String, Box<dyn Any + Send + Sync>>>> = OnceLock::new();
/// Total [`memoized`]/[`memoized_stored`] calls (cache hits included).
static MEMO_REQUESTED: AtomicU64 = AtomicU64::new(0);
/// Distinct keys whose value came from running `compute`.
static MEMO_SIMULATED: AtomicU64 = AtomicU64::new(0);
/// Distinct keys whose value came from the on-disk store.
static MEMO_SERVED_DISK: AtomicU64 = AtomicU64::new(0);
/// The process-wide store handle (`None` when `IMO_STORE=off`).
static STORE: OnceLock<Option<Store>> = OnceLock::new();

/// The code fingerprint addressing the on-disk store: the build-time
/// digest of every simulator crate's sources baked in by `build.rs`, or
/// the `IMO_CODE_HASH` override (16 hex digits, else the string itself is
/// hashed) for tests and tooling that need to pin or perturb it.
#[must_use]
pub fn code_fingerprint() -> u64 {
    static FP: OnceLock<u64> = OnceLock::new();
    *FP.get_or_init(|| {
        if let Ok(over) = std::env::var("IMO_CODE_HASH") {
            let t = over.trim().trim_start_matches("0x");
            if !t.is_empty() {
                return u64::from_str_radix(t, 16)
                    .unwrap_or_else(|_| imo_util::hash::fnv1a_64(t.as_bytes()));
            }
        }
        u64::from_str_radix(env!("IMO_CODE_FINGERPRINT"), 16).unwrap_or(0)
    })
}

/// The process-wide on-disk sweep store, opened on first use from
/// `IMO_STORE` / `IMO_STORE_DIR`; `None` when disabled.
pub fn store() -> Option<&'static Store> {
    STORE
        .get_or_init(|| {
            let mode = match std::env::var("IMO_STORE").as_deref() {
                Ok("off") | Ok("0") => return None,
                Ok("ro") => StoreMode::ReadOnly,
                Ok("rw") | Ok("") | Err(_) => StoreMode::ReadWrite,
                Ok(other) => {
                    eprintln!("warning: unknown IMO_STORE={other:?}, store disabled");
                    return None;
                }
            };
            let dir = match std::env::var("IMO_STORE_DIR") {
                Ok(d) if !d.trim().is_empty() => PathBuf::from(d.trim()),
                _ => crate::report::repo_root().join(".imo-cache"),
            };
            Some(Store::open(&dir, mode, code_fingerprint()))
        })
        .as_ref()
}

fn l1() -> &'static Mutex<HashMap<String, Box<dyn Any + Send + Sync>>> {
    MEMO.get_or_init(|| Mutex::new(HashMap::new()))
}

fn l1_get<T: Clone + Send + Sync + 'static>(key: &str) -> Option<T> {
    l1().lock()
        .expect("memo lock")
        .get(key)
        .map(|hit| hit.downcast_ref::<T>().expect("memo key reused at a different type").clone())
}

/// Inserts into the L1, counting the key once under `simulated` or
/// `served_disk` depending on where its value came from. Racing inserts of
/// the same key count once (first wins), so the stats are
/// interleaving-invariant.
fn l1_insert<T: Clone + Send + Sync + 'static>(key: &str, value: &T, from_disk: bool) {
    match l1().lock().expect("memo lock").entry(key.to_string()) {
        Entry::Occupied(_) => {}
        Entry::Vacant(slot) => {
            slot.insert(Box::new(value.clone()));
            let counter = if from_disk { &MEMO_SERVED_DISK } else { &MEMO_SIMULATED };
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Runs `compute` at most once per distinct `key`, serving repeats from the
/// process-wide in-memory cache. Values never touch the disk store — use
/// [`memoized_stored`] for results worth keeping across runs.
///
/// The value is computed *outside* the cache lock (cells are long
/// simulations; holding the lock would serialize the pool), so two workers
/// racing on the same key may both compute — determinism makes their values
/// identical, and the first to finish populates the cache. The stats
/// reported by [`memo_stats`] count *unique keys*, which is
/// interleaving-invariant.
pub fn memoized<T, F>(key: &str, compute: F) -> T
where
    T: Clone + Send + Sync + 'static,
    F: FnOnce() -> T,
{
    MEMO_REQUESTED.fetch_add(1, Ordering::Relaxed);
    if let Some(hit) = l1_get(key) {
        return hit;
    }
    let value = compute();
    l1_insert(key, &value, false);
    value
}

/// [`memoized`] with the on-disk store as the L2: an L1 miss probes the
/// store before computing, and a computed value is persisted for future
/// runs.
///
/// `encode`/`decode` are the value's codec (the [`crate::codec`]
/// `result_json`/`decode_result` pair for `RunResult`, say). A store hit
/// that fails `decode` is rejected — counted, deleted in read-write mode —
/// and falls back to recompute, so a stale or corrupt entry can never
/// change a result.
pub fn memoized_stored<T, F, E, D>(key: &str, encode: E, decode: D, compute: F) -> T
where
    T: Clone + Send + Sync + 'static,
    F: FnOnce() -> T,
    E: Fn(&T) -> Json,
    D: Fn(&Json) -> Result<T, SnapshotError>,
{
    MEMO_REQUESTED.fetch_add(1, Ordering::Relaxed);
    if let Some(hit) = l1_get(key) {
        return hit;
    }
    if let Some(store) = store() {
        if let Some(payload) = store.get(key) {
            match decode(&payload) {
                Ok(value) => {
                    l1_insert(key, &value, true);
                    return value;
                }
                Err(_) => store.reject(key),
            }
        }
    }
    let value = compute();
    if let Some(store) = store() {
        store.put(key, &encode(&value));
    }
    l1_insert(key, &value, false);
    value
}

/// Memo-cache coverage counters; see [`memo_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoStats {
    /// Cell results requested through [`memoized`]/[`memoized_stored`].
    pub requested: u64,
    /// Distinct cells actually simulated (computed in this process).
    pub simulated: u64,
    /// Distinct cells served from the on-disk store instead of simulating.
    pub served_disk: u64,
    /// Values persisted to the on-disk store this process.
    pub disk_writes: u64,
    /// Store entries rejected (torn/corrupt/stale) and recomputed.
    pub disk_rejected: u64,
}

impl MemoStats {
    /// Requests served from either cache tier instead of re-simulating.
    #[must_use]
    pub fn deduped(&self) -> u64 {
        self.requested.saturating_sub(self.simulated)
    }

    /// Requests served from the in-process map (repeat keys).
    #[must_use]
    pub fn served_memory(&self) -> u64 {
        self.deduped().saturating_sub(self.served_disk)
    }

    /// Fraction of requests served from either cache tier (`0.0` when
    /// idle).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.requested == 0 {
            0.0
        } else {
            self.deduped() as f64 / self.requested as f64
        }
    }

    /// Of the distinct cells this process needed, the percentage served
    /// from disk instead of simulated — the warm-store coverage `ci_gate
    /// --assert-warm` gates on. `0.0` when nothing was needed.
    #[must_use]
    pub fn disk_coverage_pct(&self) -> f64 {
        let distinct = self.simulated + self.served_disk;
        if distinct == 0 {
            0.0
        } else {
            self.served_disk as f64 * 100.0 / distinct as f64
        }
    }
}

/// Snapshot of the process-wide memo coverage across both tiers: how many
/// cell results were requested, how many distinct cells were simulated vs
/// served from the on-disk store, and the store's write/reject counters.
#[must_use]
pub fn memo_stats() -> MemoStats {
    let (disk_writes, disk_rejected) =
        store().map_or((0, 0), |s| (s.stats().writes, s.stats().rejected));
    MemoStats {
        requested: MEMO_REQUESTED.load(Ordering::Relaxed),
        simulated: MEMO_SIMULATED.load(Ordering::Relaxed),
        served_disk: MEMO_SERVED_DISK.load(Ordering::Relaxed),
        disk_writes,
        disk_rejected,
    }
}

/// A flat list of experiment cells (usually a cross product of axes).
#[derive(Debug, Clone)]
pub struct Matrix<C> {
    /// The cells, in declaration order — the order results come back in.
    pub cells: Vec<C>,
}

impl<C> Matrix<C> {
    /// Wraps an explicit cell list.
    pub fn new(cells: Vec<C>) -> Matrix<C> {
        Matrix { cells }
    }

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the matrix has no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// The cross product of two axes, first axis major.
pub fn cross2<A: Clone, B: Clone>(a: &[A], b: &[B]) -> Vec<(A, B)> {
    a.iter().flat_map(|x| b.iter().map(move |y| (x.clone(), y.clone()))).collect()
}

/// The cross product of three axes, leftmost axis major.
pub fn cross3<A: Clone, B: Clone, C: Clone>(a: &[A], b: &[B], c: &[C]) -> Vec<(A, B, C)> {
    a.iter()
        .flat_map(|x| {
            b.iter().flat_map(move |y| {
                let x = x.clone();
                c.iter().map(move |z| (x.clone(), y.clone(), z.clone()))
            })
        })
        .collect()
}

/// A named sweep over a [`Matrix`]: the declarative core of one bench
/// target.
#[derive(Debug, Clone)]
pub struct SweepSpec<C> {
    /// Bench-target name (diagnostics only; the baseline file is named by
    /// [`crate::report::emit`]).
    pub name: &'static str,
    /// The cell matrix.
    pub matrix: Matrix<C>,
}

impl<C: Send> SweepSpec<C> {
    /// A sweep over an explicit cell list.
    pub fn new(name: &'static str, cells: Vec<C>) -> SweepSpec<C> {
        SweepSpec { name, matrix: Matrix::new(cells) }
    }

    /// Runs every cell on the auto-sized pool (`IMO_THREADS` override) and
    /// returns results in cell order.
    ///
    /// # Panics
    ///
    /// Propagates panics from `f` — a bench cell has no useful recovery.
    pub fn run<R, F>(self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, C) -> R + Sync,
    {
        self.run_on(&Pool::auto(), f)
    }

    /// [`SweepSpec::run`] on an explicit pool (tests pin thread counts).
    pub fn run_on<R, F>(self, pool: &Pool, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, C) -> R + Sync,
    {
        pool.map_indexed(self.matrix.cells, f)
    }
}

/// One cell of a Figure 2/3-style sweep: a workload at a scale, on a
/// machine, under a variant set.
#[derive(Debug, Clone)]
pub struct CpuCell {
    /// Workload name (must exist in the registry).
    pub workload: &'static str,
    /// Problem scale.
    pub scale: Scale,
    /// Machine model and configuration.
    pub machine: Machine,
    /// The instrumentation variants to run, first is the N baseline.
    pub variants: Vec<Variant>,
}

impl CpuCell {
    /// Runs this cell to its [`ExperimentResult`].
    ///
    /// Each variant's raw `RunResult` goes through [`memoized_stored`]
    /// individually, so a variant shared between targets (every target's N
    /// baseline, say) simulates once per process even when the surrounding
    /// variant sets differ — and persists to the on-disk store, so a later
    /// run with the same code fingerprint serves it without simulating at
    /// all. The program is only built if some variant actually misses both
    /// cache tiers.
    ///
    /// # Panics
    ///
    /// Panics if the workload name is unknown or a simulation fails — the
    /// bench harness has no useful recovery.
    #[must_use]
    pub fn run(&self) -> ExperimentResult {
        let spec = by_name(self.workload)
            .unwrap_or_else(|| panic!("unknown workload `{}`", self.workload));
        let limits = RunLimits::default();
        let mut program = None;
        let mut raw = Vec::with_capacity(self.variants.len());
        for v in &self.variants {
            let key = format!(
                "cpu-run/{}/{:?}/{:?}/{:?}/{:?}",
                self.workload, self.scale, self.machine, v.scheme, limits
            );
            let result = memoized_stored(&key, result_json, decode_result, || {
                let program = program.get_or_insert_with(|| (spec.build)(self.scale));
                let inst = instrument(program, &v.scheme).unwrap_or_else(|e| {
                    panic!("instrumenting {} as {:?}: {e}", self.workload, v.scheme)
                });
                self.machine
                    .run_limited(&inst.program, limits)
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", self.workload, self.machine.name()))
            });
            raw.push((v.label, result));
        }
        normalize_experiment(self.workload, self.machine.name(), raw)
    }
}

/// The standard machine axis, in the paper's presentation order.
#[must_use]
pub fn both_machines() -> [Machine; 2] {
    [Machine::default_ooo(), Machine::default_in_order()]
}

/// Builds the workload-major × machine cell list of a Figure 2/3-style
/// sweep: for each name, one cell per machine (ooo then in-order).
pub fn cpu_cells(names: &[&'static str], scale: Scale, variants: &[Variant]) -> Vec<CpuCell> {
    cross2(names, &both_machines())
        .into_iter()
        .map(|(workload, machine)| CpuCell {
            workload,
            scale,
            machine,
            variants: variants.to_vec(),
        })
        .collect()
}

/// Fans a [`CpuCell`] list out across the pool, returning results in cell
/// order.
pub fn run_cpu_cells(name: &'static str, cells: Vec<CpuCell>) -> Vec<ExperimentResult> {
    SweepSpec::new(name, cells).run(|_, cell| cell.run())
}

#[cfg(test)]
mod tests {
    use super::*;
    use imo_core::experiment::figure2_variants;

    #[test]
    fn cross_products_are_major_order() {
        assert_eq!(cross2(&[1, 2], &['a', 'b']), vec![(1, 'a'), (1, 'b'), (2, 'a'), (2, 'b')]);
        let c3 = cross3(&[1, 2], &['a'], &[true, false]);
        assert_eq!(c3, vec![(1, 'a', true), (1, 'a', false), (2, 'a', true), (2, 'a', false)]);
    }

    #[test]
    fn cpu_cells_enumerate_machines_per_workload() {
        let cells = cpu_cells(&["ora", "compress"], Scale::Test, &figure2_variants());
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].workload, "ora");
        assert_eq!(cells[0].machine.name(), "ooo");
        assert_eq!(cells[1].machine.name(), "in-order");
        assert_eq!(cells[2].workload, "compress");
    }

    #[test]
    fn sweep_results_are_thread_count_invariant() {
        let cells = cpu_cells(&["ora"], Scale::Test, &figure2_variants());
        let serial =
            SweepSpec::new("t", cells.clone()).run_on(&Pool::new(1), |_, c: CpuCell| c.run());
        let par = SweepSpec::new("t", cells).run_on(&Pool::new(4), |_, c: CpuCell| c.run());
        assert_eq!(serial, par);
    }

    #[test]
    fn memoized_computes_each_key_once() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let calls = AtomicU32::new(0);
        let before = memo_stats();
        let a = memoized("test/memo/unique-key-1", || {
            calls.fetch_add(1, Ordering::SeqCst);
            42u64
        });
        let b = memoized("test/memo/unique-key-1", || {
            calls.fetch_add(1, Ordering::SeqCst);
            99u64
        });
        assert_eq!(a, 42);
        assert_eq!(b, 42, "second call served from cache");
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        // Other tests share the process-wide cache, so only lower bounds on
        // the deltas are safe to assert.
        let after = memo_stats();
        assert!(after.requested >= before.requested + 2);
        assert!(after.simulated > before.simulated);
    }

    #[test]
    fn memo_stats_math() {
        let s = MemoStats {
            requested: 10,
            simulated: 4,
            served_disk: 2,
            disk_writes: 4,
            disk_rejected: 1,
        };
        assert_eq!(s.deduped(), 6);
        assert_eq!(s.served_memory(), 4);
        assert!((s.hit_rate() - 0.6).abs() < 1e-12);
        // 6 distinct cells were needed; 2 came from disk.
        assert!((s.disk_coverage_pct() - 100.0 * 2.0 / 6.0).abs() < 1e-12);
        let idle = MemoStats {
            requested: 0,
            simulated: 0,
            served_disk: 0,
            disk_writes: 0,
            disk_rejected: 0,
        };
        assert_eq!(idle.deduped(), 0);
        assert_eq!(idle.hit_rate(), 0.0);
        assert_eq!(idle.disk_coverage_pct(), 0.0);
    }

    #[test]
    fn memoized_stored_round_trips_through_the_disk_tier() {
        use imo_util::snapshot;
        let Some(store) = store() else {
            return; // IMO_STORE=off in this environment: nothing to test
        };
        let encode = |v: &u64| Json::obj([("v", snapshot::u64_json(*v))]);
        let decode = |j: &Json| snapshot::get_u64(j, "v");
        // A key unique to this test but stable across runs, so the second
        // `cargo test` in a workspace serves it from disk — either source
        // must produce the same value.
        let key = "test/memo/stored-round-trip";
        let v = memoized_stored(key, encode, decode, || 0x1996_u64);
        assert_eq!(v, 0x1996);
        if store.mode() == imo_util::store::StoreMode::ReadWrite {
            let payload = store.get(key).expect("entry persisted");
            assert_eq!(decode(&payload).expect("decodes"), 0x1996);
        }
    }

    #[test]
    fn matrix_reports_size() {
        let m = Matrix::new(vec![1, 2, 3]);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
        assert!(Matrix::<u8>::new(vec![]).is_empty());
    }
}
