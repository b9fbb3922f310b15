//! Shared-memory reference traces for the §4.3 coherence case study.
//!
//! The paper evaluates fine-grained access control on parallel applications
//! under a TangoLite-based simulator. The application names in Figure 4 are
//! not recoverable from the text, so this module generates five synthetic
//! parallel kernels spanning the axes that drive the comparison between
//! reference-checking, ECC-fault and informing-memory access control:
//! read/write mix, sharing degree, conflict (coherence-action) rate, and the
//! fraction of potentially-shared references. Reference checking pays per
//! *shared reference*; ECC pays per *fault* (and per write on pages holding
//! READONLY data); informing pays per *primary miss*.
//!
//! The kernels are tuned the way real fine-grained-DSM applications behave:
//! shared working sets that largely fit the caches, most shared-classified
//! references quiet, and a few percent of references triggering coherence —
//! the regime in which the paper's Figure 4 comparison is meaningful. (If
//! coherence actions dominated, the 900-cycle network would drown every
//! detection scheme equally; if nothing were shared, there would be nothing
//! to compare.)

use imo_util::rng::SmallRng;

/// One memory reference in a processor's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOp {
    /// Byte address referenced.
    pub addr: u64,
    /// `true` for writes.
    pub is_write: bool,
    /// Whether the compiler classified this datum as potentially shared
    /// (reference-checking schemes only instrument shared references).
    pub shared: bool,
    /// Compute cycles spent before this reference.
    pub think: u32,
}

/// A whole application: one trace per processor.
#[derive(Debug, Clone)]
pub struct ParallelTrace {
    /// Application name.
    pub name: &'static str,
    /// Per-processor reference streams.
    pub per_proc: Vec<Vec<TraceOp>>,
}

impl ParallelTrace {
    /// Total references across all processors.
    pub fn total_ops(&self) -> usize {
        self.per_proc.iter().map(Vec::len).sum()
    }

    /// Fraction of references that are writes.
    pub fn write_fraction(&self) -> f64 {
        let w: usize = self.per_proc.iter().flatten().filter(|o| o.is_write).count();
        w as f64 / self.total_ops().max(1) as f64
    }

    /// Fraction of references classified potentially-shared.
    pub fn shared_fraction(&self) -> f64 {
        let s: usize = self.per_proc.iter().flatten().filter(|o| o.shared).count();
        s as f64 / self.total_ops().max(1) as f64
    }
}

/// Trace-generation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Number of processors (16 in Table 2).
    pub procs: usize,
    /// References per processor.
    pub ops_per_proc: usize,
    /// RNG seed (traces are deterministic given the seed).
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig { procs: 16, ops_per_proc: 12_000, seed: 0x1996 }
    }
}

const LINE: u64 = 32;
/// Each processor owns a 1 MB private arena starting here.
const PRIVATE_BASE: u64 = 0x1000_0000;
/// Shared space.
const SHARED_BASE: u64 = 0x8000_0000;
/// Per-processor scratch regions inside the *shared-classified* space
/// (partitioned data: instrumented by reference checking, but conflict-free).
const SCRATCH_BASE: u64 = 0x9000_0000;
const SCRATCH_BYTES: u64 = 8 * 1024;

fn rng_for(cfg: &TraceConfig, app: u64, proc_id: usize) -> SmallRng {
    SmallRng::seed_from_u64(cfg.seed ^ (app << 32) ^ proc_id as u64)
}

fn think(rng: &mut SmallRng) -> u32 {
    rng.gen_range(8..24)
}

/// A quiet op in the processor's own shared-classified scratch region.
fn scratch_op(p: usize, cursor: u64, is_write: bool, rng: &mut SmallRng) -> TraceOp {
    let addr = SCRATCH_BASE + (p as u64) * SCRATCH_BYTES + (cursor * 8) % SCRATCH_BYTES;
    TraceOp { addr, is_write, shared: true, think: think(rng) }
}

/// A registered application: its name and the generator of its traces.
#[derive(Debug, Clone, Copy)]
pub struct App {
    /// The name its generator gives the trace ([`ParallelTrace::name`]).
    pub name: &'static str,
    /// Builds the application's traces.
    pub build: fn(&TraceConfig) -> ParallelTrace,
}

/// The five applications, in Figure 4 order.
pub const APPS: [App; 5] = [
    App { name: "stencil", build: stencil },
    App { name: "migratory", build: migratory },
    App { name: "producer_consumer", build: producer_consumer },
    App { name: "reduction", build: reduction },
    App { name: "readmostly", build: readmostly },
];

/// Looks an application up by name.
pub fn app_by_name(name: &str) -> Option<App> {
    APPS.into_iter().find(|a| a.name == name)
}

/// Builds all five applications, in [`APPS`] order.
pub fn all_apps(cfg: &TraceConfig) -> Vec<ParallelTrace> {
    APPS.iter().map(|a| (a.build)(cfg)).collect()
}

/// Row-partitioned grid relaxation: each processor sweeps its own rows of a
/// shared grid (quiet after first touch, but still shared-classified and so
/// instrumented by reference checking) and exchanges halo values with its
/// left neighbour through a dedicated per-processor exchange page every 32nd
/// cell — read-heavy, nearest-neighbour sharing, low action rate.
pub fn stencil(cfg: &TraceConfig) -> ParallelTrace {
    let rows_per_proc = 3u64; // 12 KB per processor: fits the 16 KB L1
    let row_bytes = 4096u64;
    let exchange_base = SHARED_BASE + 0x10_0000; // one 4 KB page per proc
    let per_proc = (0..cfg.procs)
        .map(|p| {
            let mut rng = rng_for(cfg, 1, p);
            let my_base = SHARED_BASE + (p as u64) * rows_per_proc * row_bytes;
            let my_exch = exchange_base + (p as u64) * 4096;
            let left_exch = exchange_base + (((p + cfg.procs - 1) % cfg.procs) as u64) * 4096;
            let mut ops = Vec::with_capacity(cfg.ops_per_proc);
            let mut cursor = 0u64;
            while ops.len() < cfg.ops_per_proc {
                let in_row = cursor % (row_bytes / 8);
                let row = (cursor / (row_bytes / 8)) % rows_per_proc;
                let addr = my_base + row * row_bytes + in_row * 8;
                ops.push(TraceOp { addr, is_write: false, shared: true, think: think(&mut rng) });
                ops.push(TraceOp { addr, is_write: true, shared: true, think: think(&mut rng) });
                if cursor.is_multiple_of(32) {
                    // Publish a halo value; fetch the neighbour's.
                    let slot = ((cursor / 32) % 16) * 8; // 16 words = 4 lines
                    ops.push(TraceOp {
                        addr: my_exch + slot,
                        is_write: true,
                        shared: true,
                        think: think(&mut rng),
                    });
                    ops.push(TraceOp {
                        addr: left_exch + slot,
                        is_write: false,
                        shared: true,
                        think: think(&mut rng),
                    });
                }
                cursor += 3;
            }
            ops.truncate(cfg.ops_per_proc);
            ops
        })
        .collect();
    ParallelTrace { name: "stencil", per_proc }
}

/// Migratory objects: lock-protected records (8 KB pool) bounce between
/// processors in read-modify-write bursts, separated by runs of quiet
/// partitioned work. Write-heavy at the sharing points — the pattern that
/// punishes ECC's page-grain write protection (object pages always hold
/// READONLY lines belonging to other processors' copies).
pub fn migratory(cfg: &TraceConfig) -> ParallelTrace {
    let objects = 64u64;
    let obj_bytes = 4 * LINE;
    let quiet_run = 120u64;
    let per_proc = (0..cfg.procs)
        .map(|p| {
            let mut rng = rng_for(cfg, 2, p);
            let mut ops = Vec::with_capacity(cfg.ops_per_proc);
            let mut cursor = 0u64;
            while ops.len() < cfg.ops_per_proc {
                // Burst: read all four lines of one object, update two.
                let obj = rng.gen_range(0..objects);
                let base = SHARED_BASE + obj * obj_bytes;
                for l in 0..4u64 {
                    ops.push(TraceOp {
                        addr: base + l * LINE,
                        is_write: false,
                        shared: true,
                        think: think(&mut rng),
                    });
                }
                for l in 0..2u64 {
                    ops.push(TraceOp {
                        addr: base + l * LINE,
                        is_write: true,
                        shared: true,
                        think: think(&mut rng),
                    });
                }
                // Quiet partitioned work (alternating read/write).
                for q in 0..quiet_run {
                    ops.push(scratch_op(p, cursor + q, q % 2 == 1, &mut rng));
                }
                cursor += quiet_run;
            }
            ops.truncate(cfg.ops_per_proc);
            ops
        })
        .collect();
    ParallelTrace { name: "migratory", per_proc }
}

/// Ring producer/consumer: small batches flow through 4 KB ring buffers
/// between quiet runs; balanced read/write mix with pairwise sharing.
pub fn producer_consumer(cfg: &TraceConfig) -> ParallelTrace {
    let buf_bytes = 4 * 1024u64;
    let quiet_run = 80u64;
    let per_proc = (0..cfg.procs)
        .map(|p| {
            let mut rng = rng_for(cfg, 3, p);
            let my_buf = SHARED_BASE + (p as u64) * buf_bytes;
            let left_buf = SHARED_BASE + (((p + cfg.procs - 1) % cfg.procs) as u64) * buf_bytes;
            let mut ops = Vec::with_capacity(cfg.ops_per_proc);
            let mut pos = 0u64;
            let mut cursor = 0u64;
            while ops.len() < cfg.ops_per_proc {
                // Produce one line's worth, consume one line's worth.
                for i in 0..4u64 {
                    ops.push(TraceOp {
                        addr: my_buf + ((pos + i) * 8) % buf_bytes,
                        is_write: true,
                        shared: true,
                        think: think(&mut rng),
                    });
                }
                for i in 0..4u64 {
                    ops.push(TraceOp {
                        addr: left_buf + ((pos + i) * 8) % buf_bytes,
                        is_write: false,
                        shared: true,
                        think: think(&mut rng),
                    });
                }
                pos += 4;
                for q in 0..quiet_run {
                    ops.push(scratch_op(p, cursor + q, q % 2 == 1, &mut rng));
                }
                cursor += quiet_run;
            }
            ops.truncate(cfg.ops_per_proc);
            ops
        })
        .collect();
    ParallelTrace { name: "producer_consumer", per_proc }
}

/// Private streaming with a shared accumulator: most references stream over
/// *unshared* private data (reference checking is cheap here — the app where
/// the schemes converge), interleaved with reads of a shared read-only
/// coefficient table; every 32nd reference updates a per-processor slot in a
/// falsely-shared result block.
pub fn reduction(cfg: &TraceConfig) -> ParallelTrace {
    let coef_base = SHARED_BASE + 0x20_0000; // 4 KB read-only table
    let per_proc = (0..cfg.procs)
        .map(|p| {
            let mut rng = rng_for(cfg, 4, p);
            let private = PRIVATE_BASE + (p as u64) * 0x10_0000;
            let acc = SHARED_BASE + (p as u64) * 8; // false-sharing-prone block
            let mut ops = Vec::with_capacity(cfg.ops_per_proc);
            let mut cursor = 0u64;
            while ops.len() < cfg.ops_per_proc {
                for k in 0..31 {
                    if k % 4 == 3 {
                        // Shared-classified read-only coefficient lookup:
                        // quiet for informing/ECC, taxed by ref-checking.
                        ops.push(TraceOp {
                            addr: coef_base + rng.gen_range(0..512u64) * 8,
                            is_write: false,
                            shared: true,
                            think: think(&mut rng),
                        });
                    } else {
                        ops.push(TraceOp {
                            addr: private + (cursor * 8) % 0x10_0000,
                            is_write: false,
                            shared: false,
                            think: think(&mut rng),
                        });
                    }
                    cursor += 1;
                }
                ops.push(TraceOp {
                    addr: acc,
                    is_write: true,
                    shared: true,
                    think: think(&mut rng),
                });
            }
            ops.truncate(cfg.ops_per_proc);
            ops
        })
        .collect();
    ParallelTrace { name: "reduction", per_proc }
}

/// Read-mostly shared table: every processor reads an 8 KB table (resident
/// in each L1 once warm); processor 0 sparsely rewrites entries,
/// invalidating the readers — the pattern that punishes per-reference
/// checking hardest.
pub fn readmostly(cfg: &TraceConfig) -> ParallelTrace {
    let table_bytes = 8 * 1024u64;
    let per_proc = (0..cfg.procs)
        .map(|p| {
            let mut rng = rng_for(cfg, 5, p);
            let mut ops = Vec::with_capacity(cfg.ops_per_proc);
            while ops.len() < cfg.ops_per_proc {
                let addr = SHARED_BASE + rng.gen_range(0..table_bytes / 8) * 8;
                let is_write = p == 0 && rng.gen_range(0..64u32) == 0;
                ops.push(TraceOp { addr, is_write, shared: true, think: think(&mut rng) });
            }
            ops
        })
        .collect();
    ParallelTrace { name: "readmostly", per_proc }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TraceConfig {
        TraceConfig { procs: 4, ops_per_proc: 1000, seed: 7 }
    }

    #[test]
    fn five_apps_with_full_traces() {
        let apps = all_apps(&cfg());
        assert_eq!(apps.len(), 5);
        for app in &apps {
            assert_eq!(app.per_proc.len(), 4, "{}", app.name);
            for t in &app.per_proc {
                assert_eq!(t.len(), 1000, "{}", app.name);
            }
        }
    }

    #[test]
    fn app_table_names_match_their_traces() {
        // Memo keys take an app's name from the table, Figure 4 rows from
        // the generated trace: the two must agree.
        let small = TraceConfig { procs: 2, ops_per_proc: 16, seed: 1 };
        for app in APPS {
            assert_eq!((app.build)(&small).name, app.name);
            assert_eq!(app_by_name(app.name).map(|a| a.name), Some(app.name));
        }
        let names = APPS.map(|a| a.name);
        assert_eq!(
            names,
            ["stencil", "migratory", "producer_consumer", "reduction", "readmostly"],
            "Figure 4 order, each name once"
        );
        assert!(app_by_name("nonesuch").is_none());
    }

    #[test]
    fn traces_are_deterministic() {
        let a = migratory(&cfg());
        let b = migratory(&cfg());
        assert_eq!(a.per_proc, b.per_proc);
    }

    #[test]
    fn write_mixes_span_the_axes() {
        let apps = all_apps(&cfg());
        let wf: std::collections::HashMap<_, _> =
            apps.iter().map(|a| (a.name, a.write_fraction())).collect();
        assert!(wf["migratory"] > wf["readmostly"] + 0.2, "{wf:?}");
        assert!(wf["producer_consumer"] > 0.3 && wf["producer_consumer"] < 0.7, "{wf:?}");
        assert!(wf["readmostly"] < 0.05, "{wf:?}");
    }

    #[test]
    fn reduction_is_mostly_private_but_others_are_shared_classified() {
        let apps = all_apps(&cfg());
        for app in &apps {
            let sf = app.shared_fraction();
            if app.name == "reduction" {
                // ~25%: coefficient reads + accumulator updates.
                assert!(sf < 0.4, "reduction: {sf}");
            } else {
                assert!(sf > 0.9, "{}: {sf}", app.name);
            }
        }
    }

    #[test]
    fn stencil_exchanges_halo_values_with_left_neighbour() {
        let s = stencil(&cfg());
        let exchange_base = SHARED_BASE + 0x10_0000;
        // Processor 1 must read processor 0's exchange page and write its own.
        let p0_page = exchange_base..exchange_base + 4096;
        let p1_page = exchange_base + 4096..exchange_base + 2 * 4096;
        let ops = &s.per_proc[1];
        assert!(ops.iter().any(|o| !o.is_write && p0_page.contains(&o.addr)));
        assert!(ops.iter().any(|o| o.is_write && p1_page.contains(&o.addr)));
    }

    #[test]
    fn scratch_regions_are_disjoint_per_processor() {
        let m = migratory(&cfg());
        for (p, t) in m.per_proc.iter().enumerate() {
            for op in t {
                if op.addr >= SCRATCH_BASE {
                    let owner = (op.addr - SCRATCH_BASE) / SCRATCH_BYTES;
                    assert_eq!(owner as usize, p, "scratch is partitioned");
                }
            }
        }
    }
}
