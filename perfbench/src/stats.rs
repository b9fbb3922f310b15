//! Order statistics for host-time samples.
//!
//! Quartiles follow Python's `statistics.quantiles(data, n=4)` (the default
//! "exclusive" method), so the spreads `perf compare` prints are the ones a
//! reader gets from the result files with the standard library.

/// The median of `xs` (mean of the middle pair for an even count), or `None`
/// when there are no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartiles, as `statistics.quantiles(xs, n=4)` gives them
/// (a single sample is its own quartiles), or `None` for no samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let ld = s.len();
    match ld {
        0 => None,
        1 => Some((s[0], s[0])),
        _ => {
            let q = |i: usize| {
                let m = ld + 1;
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            Some((q(1), q(3)))
        }
    }
}

/// The nearest-rank `p`-th percentile of `xs`, refused (`None`) unless at
/// least ten samples lie above it: a tail read from fewer samples is noise.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 || !(0.0..100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    (n - rank >= 10).then(|| s[rank - 1])
}

/// The highest of p99, p95, p90 and p75 that [`percentile`] accepts, with
/// its `p`.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    [99.0, 95.0, 90.0, 75.0].into_iter().find_map(|p| percentile(xs, p).map(|v| (p, v)))
}

/// The fastest time of each of `n` calls, from `(call, time)` pairs gathered
/// over a run's passes. Interference from other work on a shared host only
/// ever adds time, in bursts that can slow a whole pass twofold, so a call's
/// fastest run is the steadiest estimate of what its code costs.
pub fn fastest(n: usize, timings: impl IntoIterator<Item = (usize, f64)>) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; n];
    for (call, t) in timings {
        best[call] = best[call].min(t);
    }
    best
}

/// [`Summary::of`] `xs`, or a zero summary for no samples.
pub fn summary(xs: &[f64]) -> Summary {
    Summary::of(xs).unwrap_or(Summary::single(0.0))
}

/// The largest of `xs` (0 for none).
pub fn largest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

/// A metric's value together with the samples it was reduced from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The reported value (the median, unless the metric says otherwise).
    pub value: f64,
    /// Samples behind the value.
    pub samples: usize,
    /// First quartile of the samples.
    pub q1: f64,
    /// Median of the samples.
    pub median: f64,
    /// Third quartile of the samples.
    pub q3: f64,
}

impl Summary {
    /// Summarises `xs`, reporting its median; `None` for no samples.
    pub fn of(xs: &[f64]) -> Option<Summary> {
        let median = median(xs)?;
        let (q1, q3) = quartiles(xs)?;
        Some(Summary { value: median, samples: xs.len(), q1, median, q3 })
    }

    /// A value read once (an exact count, or a ratio of two totals).
    pub fn single(value: f64) -> Summary {
        Summary::derived(value, 1)
    }

    /// A value computed from `samples` timings, with no spread of its own.
    pub fn derived(value: f64, samples: usize) -> Summary {
        Summary { value, samples, q1: value, median: value, q3: value }
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        assert_eq!(median(&xs), Some(5.5));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[4.0]), Some((4.0, 4.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_above() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), Some(90.0)); // exactly 10 above
        assert_eq!(percentile(&xs, 91.0), None); // 9 above
        assert_eq!(percentile(&xs, 95.0), None);
        let few: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&few, 0.0), None, "10 samples leave at most 9 above any rank");
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&eleven, 5.0), Some(1.0));
        // 224 samples (56 cells × 4 passes) keep 11 above p95.
        let n224: Vec<f64> = (1..=224).map(f64::from).collect();
        assert_eq!(percentile(&n224, 95.0), Some(213.0));
        assert_eq!(tail(&n224), Some((95.0, 213.0)));
        assert_eq!(tail(&few), None);
    }

    #[test]
    fn fastest_keeps_each_calls_minimum() {
        let timings = [(0, 3.0), (1, 5.0), (0, 2.0), (1, 9.0), (2, 1.0)];
        assert_eq!(fastest(3, timings), vec![2.0, 5.0, 1.0]);
    }

    #[test]
    fn summary_reports_the_median() {
        let s = Summary::of(&[5.0, 1.0, 3.0]).expect("samples");
        assert_eq!((s.value, s.samples, s.q1, s.q3), (3.0, 3, 1.0, 5.0));
        assert_eq!(Summary::of(&[]), None);
    }
}
