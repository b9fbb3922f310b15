//! `perf`: the simulator's end-to-end and per-layer performance benchmark.
//!
//! ```text
//! perf --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! perf --smoke
//! perf compare [--benchmark FILE] --parent A.json… --change B.json…
//! ```
//!
//! Run from the repository root, which holds the committed references. Each
//! invocation runs one workload as a closed loop with one outstanding call
//! for `--seconds` of whole passes, checks every output against the
//! references, prints each metric with its unit and sample count, writes a
//! self-describing result file (default `target/perf/<workload>-<seed>.json`),
//! and ends its standard output with one JSON line: `correct`, `attempted`,
//! `failed` and the metrics. See `README.md` in this directory.

mod cells;
mod compare;
mod metrics;
mod oracle;
mod probe;
mod regen;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use imo_util::json::Json;
use imo_util::Table;

use cells::CpuKind;
use metrics::{complete, end_to_end, per_layer, result_line, summary_json, Group, Measured};
use oracle::{Oracle, Tally};
use spans::{chrome_trace, layer_times, Tracer};
use stats::Summary;

const DEFAULT_SEED: u64 = 1996;
const DEFAULT_SECONDS: f64 = 20.0;
/// How long set-up is repeated; `setup_s` is the median set-up, so the first
/// few, which run while the CPU is still cold, do not set it.
pub const SETUP_SECONDS: f64 = 0.5;
/// Where result, trace and scratch files go, relative to the repository root.
const OUT_DIR: &str = "target/perf";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 70 Fig. 2 cells on the in-order machine.
    Fig2InOrder,
    /// The same 70 cells on the out-of-order machine.
    Fig2Ooo,
    /// 56 cells on both machines under the attribution recorder.
    Fig2Observed,
    /// `ci_gate` on an empty sweep store, then on the store it filled.
    Regen,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::Fig2InOrder, Workload::Fig2Ooo, Workload::Fig2Observed, Workload::Regen];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig2InOrder => "fig2-inorder",
            Workload::Fig2Ooo => "fig2-ooo",
            Workload::Fig2Observed => "fig2-observed",
            Workload::Regen => "regen",
        }
    }
}

/// A measuring run's options.
pub struct RunOpts {
    /// The workload.
    pub workload: Workload,
    /// Seed of the per-pass cell orders.
    pub seed: u64,
    /// Host seconds of whole passes to measure.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Where the result file goes.
    pub out: Option<PathBuf>,
}

/// Runs `pass(i)` for i = 0, 1, … until `seconds` have been spent and at
/// least `min` passes ran; returns the pass count.
pub fn for_seconds(
    seconds: f64,
    min: usize,
    mut pass: impl FnMut(usize) -> Result<(), String>,
) -> Result<usize, String> {
    let start = Instant::now();
    let mut n = 0;
    while n < min || start.elapsed().as_secs_f64() < seconds {
        pass(n)?;
        n += 1;
    }
    Ok(n)
}

/// The peak resident set (`VmHWM`) of process `pid` in MB, or 0 once it
/// has exited.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next().and_then(|n| n.parse::<f64>().ok()));
    kb.unwrap_or(0.0) / 1024.0
}

/// Resets this process's `VmHWM` to its current resident set, so the next
/// [`peak_rss_mb`] covers only what runs in between.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

enum Mode {
    Run(RunOpts),
    Smoke,
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut out) = (DEFAULT_SEED, DEFAULT_SECONDS, false, None);
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--smoke" => return Ok(Mode::Smoke),
            "--workload" => {
                let name = value("--workload")?;
                workload = Some(Workload::ALL.into_iter().find(|w| w.name() == name).ok_or_else(
                    || {
                        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                        format!("unknown workload {name}; choose one of {}", names.join(", "))
                    },
                )?);
            }
            "--seed" => seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--trace" => {
                trace = it.next_if(|v| *v == "0" || *v == "1").is_none_or(|v| v == "1");
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("give --workload NAME (or --smoke, or compare)")?;
    Ok(Mode::Run(RunOpts { workload, seed, seconds, trace, out }))
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn write(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.pretty()).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn metric_table(rows: &[(String, &'static str, Summary)]) -> String {
    let mut t = Table::new(["metric", "value", "unit", "samples", "q1", "q3"]);
    for (name, unit, s) in rows {
        t.row([
            name.clone(),
            format!("{:.6}", s.value),
            (*unit).to_string(),
            s.samples.to_string(),
            format!("{:.6}", s.q1),
            format!("{:.6}", s.q3),
        ]);
    }
    t.render()
}

fn run(opts: &RunOpts) -> Result<ExitCode, String> {
    let oracle = Oracle::load(Path::new("."))
        .map_err(|e| format!("{e} (run perf from the repository root)"))?;
    let mut tally = Tally::default();
    let mut tr = Tracer::new(opts.trace);
    let w = opts.workload;
    let mut m: Measured = match w {
        Workload::Fig2InOrder => {
            cells::measure(CpuKind::InOrder, opts, &oracle, &mut tally, &mut tr)?
        }
        Workload::Fig2Ooo => cells::measure(CpuKind::Ooo, opts, &oracle, &mut tally, &mut tr)?,
        Workload::Fig2Observed => {
            cells::measure(CpuKind::Observed, opts, &oracle, &mut tally, &mut tr)?
        }
        Workload::Regen => regen::measure(opts, &oracle, &mut tally, &mut tr)?,
    };
    let rows = if opts.trace {
        complete(&per_layer(), &m.groups, &m.metrics)?
    } else {
        complete(&end_to_end(), &[Group::Run], &m.metrics)?
    };
    m.extra.insert("failed_frac".into(), Summary::single(tally.failed_frac()));

    println!(
        "perf {}: seed {}{}, {} passes, {} thread(s), trace {}",
        w.name(),
        opts.seed,
        if m.seed_used { "" } else { " (unused: the input is the paper's fixed matrix)" },
        m.passes,
        m.threads,
        if opts.trace { "on" } else { "off" },
    );
    print!("{}", metric_table(&rows));
    let extra: Vec<_> = m.extra.iter().map(|(k, s)| (k.clone(), "", *s)).collect();
    print!("{}", metric_table(&extra));
    println!("operations: {} attempted, {} failed", tally.attempted, tally.failed);

    let stem = format!("{}-{}", w.name(), opts.seed);
    if opts.trace {
        let mut t = Table::new(["layer", "calls", "total ms", "self ms"]);
        for (layer, lt) in layer_times(tr.spans()) {
            t.row([
                layer.to_string(),
                lt.calls.to_string(),
                format!("{:.3}", lt.total_ms),
                format!("{:.3}", lt.self_ms),
            ]);
        }
        print!("{t}", t = t.render());
        let overhead = m.metrics.get("trace.overhead_pct").map_or(0.0, |s| s.value);
        println!("tracing overhead: {overhead:+.2}% (traced pass vs an untraced pass of this run)");
        let path = Path::new(OUT_DIR).join(format!("trace-{stem}.json"));
        write(&path, &chrome_trace(tr.spans()))?;
        println!("wrote {} ({} spans; open in Perfetto)", path.display(), tr.spans().len());
    }

    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let section = |rows: &[(String, &str, Summary)]| {
        Json::obj(rows.iter().map(|(n, u, s)| (n.clone(), summary_json(u, s))))
    };
    let mut doc = vec![
        ("perf_result", Json::from(1u64)),
        ("workload", Json::from(w.name())),
        ("seed", Json::from(opts.seed)),
        ("seed_used", Json::Bool(m.seed_used)),
        ("git_rev", Json::from(git_rev())),
        ("nproc", Json::from(nproc)),
        ("threads", Json::from(m.threads)),
        ("passes", Json::from(m.passes)),
        ("seconds", Json::from(opts.seconds)),
        ("trace", Json::Bool(opts.trace)),
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::from(tally.attempted)),
        ("failed", Json::from(tally.failed)),
    ];
    if let Some(fp) = &m.fingerprint {
        doc.push(("code_fingerprint", Json::from(fp.as_str())));
    }
    doc.push(("metrics", section(&rows)));
    doc.push(("extra", section(&extra)));
    let suffix = if opts.trace { "-trace" } else { "" };
    let path =
        opts.out.clone().unwrap_or_else(|| Path::new(OUT_DIR).join(format!("{stem}{suffix}.json")));
    write(&path, &Json::obj(doc))?;
    println!("wrote {}", path.display());

    println!("{}", result_line(tally.attempted, tally.failed, &rows).compact());
    Ok(ExitCode::SUCCESS)
}

/// One pass over the two cheapest cells of each CPU workload; `regen` is
/// skipped. Ends with a JSON line like a run's, whose only metric is
/// `failed_frac`.
fn smoke() -> Result<ExitCode, String> {
    let oracle = Oracle::load(Path::new("."))
        .map_err(|e| format!("{e} (run perf from the repository root)"))?;
    let mut total = Tally::default();
    for (w, kind) in [
        (Workload::Fig2InOrder, CpuKind::InOrder),
        (Workload::Fig2Ooo, CpuKind::Ooo),
        (Workload::Fig2Observed, CpuKind::Observed),
    ] {
        let t = cells::smoke(kind, &oracle)?;
        println!("smoke {}: {} attempted, {} failed", w.name(), t.attempted, t.failed);
        total.attempted += t.attempted;
        total.failed += t.failed;
    }
    println!("smoke regen: skipped");
    let frac = Summary::single(total.failed_frac());
    println!(
        "{}",
        result_line(total.attempted, total.failed, &[("failed_frac".into(), "fraction", frac)])
            .compact()
    );
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        _ => parse_args(&args).and_then(|mode| match mode {
            Mode::Run(opts) => run(&opts),
            Mode::Smoke => smoke(),
        }),
    };
    result.unwrap_or_else(|e| {
        eprintln!("perf: {e}");
        ExitCode::from(2)
    })
}
