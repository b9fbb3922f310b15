//! `perf compare --parent A.json… --change B.json…`: the verdict of a
//! change against its parent, per metric and workload, from result files.
//!
//! Pairs are taken in the order the files are given, so alternate the runs
//! (parent, change, parent, …) and list each side in run order. A change
//! *improved* a metric only when it wins at least nine tenths of the pairs
//! (ties count for neither side) and its median differs from the parent's
//! by more than the parent's own interquartile spread. It is *worse* when
//! its median is past the bound `BENCHMARK.json` fixes, *unresolved* when
//! either side's spread is wider than that bound (unless every change run
//! beats every parent run), and otherwise *unchanged*. Per-layer metrics
//! have no bound, so they are only ever *improved* or left unjudged.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use imo_util::json::{parse, Json};
use imo_util::Table;

use crate::stats::{median, quartiles};

/// The verdict on one (metric, workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better beyond noise.
    Improved,
    /// Worse than the bound allows.
    Worse,
    /// Too noisy to tell against the bound.
    Unresolved,
    /// Within the bound.
    Unchanged,
    /// Not improved, and there is no bound to judge against.
    Unjudged,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unjudged => "-",
        }
    }
}

/// One side's median and quartiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Spread {
    fn of(xs: &[f64]) -> Option<Spread> {
        let (q1, q3) = quartiles(xs)?;
        Some(Spread { q1, median: median(xs)?, q3 })
    }

    /// Interquartile range as a share of the median.
    fn relative(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The comparison of one (metric, workload).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Judged {
    /// The parent's runs.
    pub parent: Spread,
    /// The change's runs.
    pub change: Spread,
    /// Pairs the change won.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges `change` against `parent` (one value per run, in run order).
pub fn judge(
    parent: &[f64],
    change: &[f64],
    lower_is_better: bool,
    bound: Option<f64>,
) -> Option<Judged> {
    let (p, c) = (Spread::of(parent)?, Spread::of(change)?);
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let pairs = parent.len().min(change.len());
    let wins = parent.iter().zip(change).filter(|(p, c)| better(**c, **p)).count();
    let improved = wins * 10 >= pairs * 9
        && better(c.median, p.median)
        && (c.median - p.median).abs() > p.q3 - p.q1;
    let verdict = match bound {
        _ if improved => Verdict::Improved,
        None => Verdict::Unjudged,
        Some(b) => {
            let loss = if lower_is_better { c.median - p.median } else { p.median - c.median };
            let all_better = change.iter().all(|c| parent.iter().all(|p| better(*c, *p)));
            if loss > b * p.median.abs() {
                Verdict::Worse
            } else if p.relative().max(c.relative()) > b && !all_better {
                Verdict::Unresolved
            } else {
                Verdict::Unchanged
            }
        }
    };
    Some(Judged { parent: p, change: c, wins, pairs, verdict })
}

/// metric name → (lower is better, bound).
type Directions = BTreeMap<String, (bool, Option<f64>)>;

fn directions(benchmark: &Json) -> Result<Directions, String> {
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for m in benchmark.get(key).and_then(Json::as_arr).ok_or(format!("no {key} list"))? {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            out.insert(name.to_string(), (lower, m.get("bound").and_then(Json::as_f64)));
        }
    }
    Ok(out)
}

/// workload → metric → one value per run, in the order given.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(files: &[String]) -> Result<Runs, String> {
    let mut runs: Runs = BTreeMap::new();
    for f in files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("reading {f}: {e}"))?;
        let doc = parse(&text).map_err(|e| format!("parsing {f}: {e}"))?;
        let workload =
            doc.get("workload").and_then(Json::as_str).ok_or(format!("{f}: no workload"))?;
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return Err(format!("{f}: no metrics object"));
        };
        let slot = runs.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            let v =
                m.get("value").and_then(Json::as_f64).ok_or(format!("{f}: {name} has no value"))?;
            slot.entry(name.clone()).or_default().push(v);
        }
    }
    Ok(runs)
}

/// Parses `compare`'s arguments and prints one row per (metric, workload).
pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let mut benchmark = "BENCHMARK.json".to_string();
    let (mut parent, mut change) = (Vec::new(), Vec::new());
    let mut side: Option<&mut Vec<String>> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--benchmark" => benchmark = it.next().ok_or("--benchmark needs a file")?.clone(),
            "--parent" => side = Some(&mut parent),
            "--change" => side = Some(&mut change),
            f if !f.starts_with("--") => {
                side.as_mut().ok_or(format!("{f}: give --parent or --change first"))?.push(f.into())
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if parent.is_empty() || change.is_empty() {
        return Err(
            "usage: perf compare [--benchmark FILE] --parent A.json… --change B.json…".into()
        );
    }
    let text = std::fs::read_to_string(Path::new(&benchmark))
        .map_err(|e| format!("reading {benchmark}: {e}"))?;
    let dirs = directions(&parse(&text).map_err(|e| format!("parsing {benchmark}: {e}"))?)?;
    let (p, c) = (load(&parent)?, load(&change)?);

    let mut t = Table::new([
        "metric",
        "workload",
        "parent q1/median/q3",
        "change q1/median/q3",
        "wins",
        "verdict",
    ]);
    for (workload, metrics) in &p {
        let Some(theirs) = c.get(workload) else { continue };
        for (name, pv) in metrics {
            let (Some(cv), Some(&(lower, bound))) = (theirs.get(name), dirs.get(name)) else {
                continue;
            };
            let Some(j) = judge(pv, cv, lower, bound) else { continue };
            let fmt = |s: Spread| format!("{:.4} / {:.4} / {:.4}", s.q1, s.median, s.q3);
            t.row([
                name.clone(),
                workload.clone(),
                fmt(j.parent),
                fmt(j.change),
                format!("{}/{}", j.wins, j.pairs),
                j.verdict.label().to_string(),
            ]);
        }
    }
    print!("{}", t.render());
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PARENT: [f64; 10] = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 10.1, 9.9];

    #[test]
    fn a_consistent_win_beyond_the_parent_spread_is_improved() {
        let change: Vec<f64> = PARENT.iter().map(|x| x * 0.8).collect();
        let j = judge(&PARENT, &change, true, Some(0.1)).expect("judged");
        assert_eq!((j.wins, j.pairs, j.verdict), (10, 10, Verdict::Improved));
        // Higher-is-better metrics win the other way.
        let j = judge(&PARENT, &change, false, Some(0.1)).expect("judged");
        assert_eq!(j.verdict, Verdict::Worse);
    }

    #[test]
    fn a_median_past_the_bound_is_worse() {
        let change: Vec<f64> = PARENT.iter().map(|x| x * 1.15).collect();
        assert_eq!(
            judge(&PARENT, &change, true, Some(0.1)).expect("judged").verdict,
            Verdict::Worse
        );
        assert_eq!(
            judge(&PARENT, &change, true, Some(0.2)).expect("judged").verdict,
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = [6.0, 14.0, 8.0, 12.0, 10.0, 7.0, 13.0, 9.0, 11.0, 10.0];
        let j = judge(&PARENT, &noisy, true, Some(0.1)).expect("judged");
        assert_eq!(j.verdict, Verdict::Unresolved);
    }

    #[test]
    fn small_wins_inside_the_parent_spread_are_not_improvements() {
        let change: Vec<f64> = PARENT.iter().map(|x| x - 0.01).collect();
        let j = judge(&PARENT, &change, true, Some(0.1)).expect("judged");
        assert_eq!(j.wins, 10);
        assert_eq!(j.verdict, Verdict::Unchanged);
        assert_eq!(judge(&PARENT, &change, true, None).expect("judged").verdict, Verdict::Unjudged);
    }

    #[test]
    fn ties_count_for_neither_side() {
        let mut change = PARENT.map(|x| x * 0.8);
        change[0] = PARENT[0];
        change[1] = PARENT[1];
        let j = judge(&PARENT, &change, true, Some(0.1)).expect("judged");
        assert_eq!((j.wins, j.verdict), (8, Verdict::Unchanged), "8/10 wins is short of 9/10");
    }
}
