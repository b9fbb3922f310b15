//! The regeneration workload: `ci_gate --skip-wall` run as a child process,
//! the wait a user or CI has to regenerate every deterministic paper table
//! and figure.
//!
//! A pass runs one child on an empty sweep store, which simulates every
//! distinct cell and writes the store, then a second child on the store the
//! first filled, which reads every cell back from disk. One child runs at a
//! time with `IMO_THREADS = min(2, nproc)`. The input is the paper's fixed
//! matrix, so this workload ignores the seed.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::thread::sleep;
use std::time::{Duration, Instant};

use imo_util::json::{parse, Json};

use crate::metrics::{Group, Measured};
use crate::oracle::{regen_problems, Oracle, Tally};
use crate::spans::Tracer;
use crate::stats::{fastest, largest, summary, Summary};
use crate::{for_seconds, probe, RunOpts, OUT_DIR, SETUP_SECONDS};

/// The deterministic `ci_gate` targets, all of which must report `clean`.
pub const TARGETS: [&str; 12] = [
    "table1",
    "fig2",
    "fig3",
    "handler100",
    "branch_vs_exception",
    "table2",
    "fig4",
    "fig4_sensitivity",
    "ablation_mshr",
    "ablation_checkpoints",
    "fault_resilience",
    "attrib",
];

/// The `ci_gate` binary and where its children keep their files.
pub struct Gate {
    exe: PathBuf,
    work: PathBuf,
    threads: usize,
}

/// One finished `ci_gate` child.
pub struct ChildRun {
    /// Spawn to exit, host time.
    pub wall: Duration,
    /// The largest `VmHWM` read from `/proc/<pid>/status` while it ran, MB.
    pub peak_rss_mb: f64,
    /// Its standard output.
    pub stdout: String,
    /// Its `--stats-json` document, if it wrote a parseable one.
    pub stats: Option<Json>,
    /// How it exited.
    pub status: ExitStatus,
}

/// Kills and reaps a child that is dropped before it was waited for.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Gate {
    /// The `ci_gate` next to this executable, with children's files under
    /// `work`.
    pub fn locate(work: PathBuf) -> Result<Gate, String> {
        let me = std::env::current_exe().map_err(|e| format!("locating perf: {e}"))?;
        let exe = me.with_file_name("ci_gate");
        if !exe.is_file() {
            return Err(format!(
                "{} not found; build it with `cargo build --release -p imo-bench --bin ci_gate`",
                exe.display()
            ));
        }
        fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        Ok(Gate { exe, work, threads: nproc.min(2) })
    }

    fn command(&self) -> Command {
        let mut cmd = Command::new(&self.exe);
        cmd.env("IMO_THREADS", self.threads.to_string())
            .env("IMO_STORE", "rw")
            .env_remove("IMO_STORE_DIR")
            .env_remove("IMO_SERVE_ADDR")
            .env_remove("IMO_CODE_HASH");
        cmd
    }

    /// `ci_gate --code-hash`: the fingerprint addressing the store.
    pub fn code_hash(&self) -> Result<String, String> {
        let out = self
            .command()
            .arg("--code-hash")
            .output()
            .map_err(|e| format!("running {} --code-hash: {e}", self.exe.display()))?;
        if !out.status.success() {
            return Err(format!("ci_gate --code-hash exited with {}", out.status));
        }
        Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
    }

    /// Runs `ci_gate --skip-wall` on the sweep store at `store`, sampling its
    /// peak RSS until it exits. Its output goes to files named by `tag`.
    pub fn run(&self, store: &Path, tag: &str) -> Result<ChildRun, String> {
        let file = |ext: &str| self.work.join(format!("{tag}.{ext}"));
        let create = |p: &Path| fs::File::create(p).map_err(|e| format!("{}: {e}", p.display()));
        let stats_path = file("stats.json");
        let _ = fs::remove_file(&stats_path);
        let mut cmd = self.command();
        cmd.arg("--skip-wall")
            .arg("--store-dir")
            .arg(store)
            .arg("--stats-json")
            .arg(&stats_path)
            .stdin(Stdio::null())
            .stdout(create(&file("out"))?)
            .stderr(create(&file("err"))?);
        let start = Instant::now();
        let mut child = Reaped(cmd.spawn().map_err(|e| format!("spawning ci_gate: {e}"))?);
        let mut peak_rss_mb = 0.0f64;
        let status = loop {
            if let Some(status) = child.0.try_wait().map_err(|e| format!("waiting: {e}"))? {
                break status;
            }
            peak_rss_mb = peak_rss_mb.max(crate::peak_rss_mb(child.0.id()));
            sleep(Duration::from_millis(5));
        };
        let wall = start.elapsed();
        let stdout = fs::read_to_string(file("out")).unwrap_or_default();
        let stats = fs::read_to_string(&stats_path).ok().and_then(|t| parse(&t).ok());
        Ok(ChildRun { wall, peak_rss_mb, stdout, stats, status })
    }
}

/// Checks every deterministic target of `child`, counting one operation each.
fn check(child: &ChildRun, tag: &str, tally: &mut Tally) {
    for t in TARGETS {
        let mut problems = regen_problems(t, &child.stdout, child.stats.as_ref());
        if !problems.is_empty() && !child.status.success() {
            problems.push(format!("ci_gate exited with {}", child.status));
        }
        tally.record(&format!("{tag}/{t}"), &problems);
    }
}

fn totals(child: &ChildRun, key: &str) -> f64 {
    let t = child.stats.as_ref().and_then(|s| s.get("totals"));
    t.and_then(|t| t.get(key)).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Each target's share of the child's wall time, and the rest (start-up,
/// baseline parsing, diffing), in percent, as `bench.targets.<t>.<kind>_pct`
/// and `bench.gate.<kind>_other_pct`.
fn shares(child: &ChildRun, kind: &str) -> Vec<(String, f64)> {
    let wall_ms = child.wall.as_secs_f64() * 1e3;
    let targets =
        child.stats.as_ref().and_then(|s| s.get("targets")).and_then(Json::as_arr).unwrap_or(&[]);
    let ms = |name: &str| {
        targets
            .iter()
            .find(|t| t.get("name").and_then(Json::as_str) == Some(name))
            .and_then(|t| t.get("wall_ms"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let mut out: Vec<(String, f64)> = TARGETS
        .iter()
        .map(|t| (format!("bench.targets.{t}.{kind}_pct"), ms(t) / wall_ms * 100.0))
        .collect();
    let covered: f64 = TARGETS.iter().map(|t| ms(t)).sum();
    out.push((format!("bench.gate.{kind}_other_pct"), (wall_ms - covered) / wall_ms * 100.0));
    out
}

/// The children of one pass: cold, then warm.
type Pass = [ChildRun; 2];

/// The smallest `f` of the cold and of the warm children in `passes`.
fn per_child(passes: &[Pass], f: impl Fn(&ChildRun) -> f64) -> Vec<f64> {
    fastest(2, passes.iter().flat_map(|p| [(0, f(&p[0])), (1, f(&p[1]))]))
}

fn wall_s(child: &ChildRun) -> f64 {
    child.wall.as_secs_f64()
}

/// Runs the regeneration workload for `opts.seconds`; see the module docs.
pub fn measure(
    opts: &RunOpts,
    oracle: &Oracle,
    tally: &mut Tally,
    tr: &mut Tracer,
) -> Result<Measured, String> {
    let work = Path::new(OUT_DIR).join(format!("regen-{}", std::process::id()));
    let gate = Gate::locate(work.clone())?;
    let mut m = Measured { threads: gate.threads, seed_used: false, ..Measured::default() };

    let (mut setup, mut fingerprint) = (Vec::new(), None);
    for_seconds(SETUP_SECONDS, 1, |_| {
        let t = Instant::now();
        fingerprint = Some(gate.code_hash()?);
        setup.push(t.elapsed().as_secs_f64());
        Ok(())
    })?;
    m.fingerprint = fingerprint;

    let pass = |p: usize, tr: &mut Tracer, tally: &mut Tally| -> Result<Pass, String> {
        let store = work.join(format!("store{p}"));
        let span = tr.enter("pass", "bench.pass", None);
        let mut run = |kind: &str, tr: &mut Tracer| -> Result<ChildRun, String> {
            let tag = format!("pass{p}-{kind}");
            let s = tr.enter("ci_gate --skip-wall", "bench.gate", Some(&tag));
            let child = gate.run(&store, &tag);
            tr.exit(s);
            let child = child?;
            check(&child, &tag, tally);
            Ok(child)
        };
        let children = [run("cold", tr)?, run("warm", tr)?];
        tr.exit(span);
        let _ = fs::remove_dir_all(&store);
        Ok(children)
    };

    let start = Instant::now();
    let mut passes = Vec::new();
    if !tr.is_on() {
        m.passes = for_seconds(opts.seconds, 2, |p| {
            passes.push(pass(p, tr, tally)?);
            Ok(())
        })?;
        let best = per_child(&passes, wall_s);
        let (cold, warm) = (best[0], best[1]);
        let walls: Vec<f64> =
            passes.iter().map(|p| (p[0].wall + p[1].wall).as_secs_f64()).collect();
        let children = 2 * passes.len();
        m.metrics.insert("setup_s".into(), summary(&setup));
        m.metrics.insert("pass_s".into(), Summary::derived(cold + warm, children));
        m.metrics.insert("call_ms_p50".into(), summary(&[cold * 1e3, warm * 1e3]));
        let rss = largest(&per_child(&passes, |c| c.peak_rss_mb));
        m.metrics.insert("peak_rss_mb".into(), Summary::derived(rss, children));
        m.extra.insert("pass_wall_s".into(), summary(&walls));
        m.extra.insert("regen_cold_s".into(), Summary::derived(cold, passes.len()));
        m.extra.insert("regen_warm_s".into(), Summary::derived(warm, passes.len()));
    } else {
        // The layer probe, then passes that alternate tracing on and off (on
        // first), so the tracing overhead compares passes of one run.
        m.metrics.extend(probe::run(oracle, tally, tr)?);
        let mut untraced = Vec::new();
        let mut off = Tracer::new(false);
        let left = (opts.seconds - start.elapsed().as_secs_f64()).max(0.0);
        m.passes = for_seconds(left, 2, |p| {
            if p % 2 == 0 {
                passes.push(pass(p, tr, tally)?);
            } else {
                untraced.push(pass(p, &mut off, tally)?);
            }
            Ok(())
        })?;
        let on_s: f64 = per_child(&passes, wall_s).iter().sum();
        let off_s: f64 = per_child(&untraced, wall_s).iter().sum();
        m.metrics.insert("trace.pass_s".into(), Summary::derived(on_s, 2 * passes.len()));
        m.metrics
            .insert("trace.overhead_pct".into(), Summary::single((on_s / off_s - 1.0) * 100.0));
        let per_pass: Vec<Vec<(String, f64)>> = passes
            .iter()
            .map(|p| shares(&p[0], "cold").into_iter().chain(shares(&p[1], "warm")).collect())
            .collect();
        for (i, (name, _)) in per_pass[0].iter().enumerate() {
            let xs: Vec<f64> = per_pass.iter().map(|r| r[i].1).collect();
            m.metrics.insert(name.clone(), summary(&xs));
        }
        let [cold, warm] = &passes[passes.len() - 1];
        for (metric, child, key) in [
            ("bench.sweep.cells_simulated", cold, "simulated"),
            ("bench.sweep.served_memory", cold, "served_memory"),
            ("util.store.writes", cold, "disk_writes"),
            ("bench.sweep.served_disk", warm, "served_disk"),
            ("util.store.disk_coverage_pct", warm, "disk_coverage_pct"),
        ] {
            m.metrics.insert(metric.into(), Summary::single(totals(child, key)));
        }
        let rejected = totals(cold, "disk_rejected") + totals(warm, "disk_rejected");
        m.metrics.insert("util.store.rejected".into(), Summary::single(rejected));
        m.groups = vec![Group::Probe, Group::Pass, Group::Gate];
        m.extra.insert("untraced.pass_s".into(), Summary::derived(off_s, 2 * untraced.len()));
    }
    if tally.failed == 0 {
        let _ = fs::remove_dir_all(&work);
    }
    Ok(m)
}
