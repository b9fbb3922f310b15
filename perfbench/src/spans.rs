//! Spans recorded in the benchmark's own code around each call into a
//! layer.
//!
//! Every timed call goes through [`Tracer::enter`] / [`Tracer::exit`], which
//! time it with one pair of `Instant`s whether tracing is on or off, so the
//! traced and untraced runs time the same code. With tracing on, each span
//! also keeps its name (the entry point), layer, parent span and cell id in
//! memory; they are written at exit as a Chrome trace-event file and folded
//! into a per-layer self-time table.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use imo_util::json::Json;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The entry point called, e.g. `Machine::run_limited`.
    pub name: &'static str,
    /// The layer it belongs to, e.g. `cpu.inorder`.
    pub layer: &'static str,
    /// Nanoseconds from the tracer's start to the call.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's start to the return.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The cell (or target) the call worked on, if any.
    pub cell: Option<String>,
}

/// A span that has been entered and not yet exited.
#[must_use = "a span must be exited to be timed"]
pub struct Open {
    start: Instant,
    idx: Option<usize>,
}

/// Times calls and, when on, records them as spans.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer { on, t0: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts timing a call to `name` in `layer`.
    pub fn enter(&mut self, name: &'static str, layer: &'static str, cell: Option<&str>) -> Open {
        let start = Instant::now();
        let idx = self.on.then(|| {
            let start_ns = self.ns_since_start(start);
            self.spans.push(Span {
                name,
                layer,
                start_ns,
                end_ns: start_ns,
                parent: self.stack.last().copied(),
                cell: cell.map(str::to_owned),
            });
            let idx = self.spans.len() - 1;
            self.stack.push(idx);
            idx
        });
        Open { start, idx }
    }

    /// Ends the call started by `open`, returning its host time.
    pub fn exit(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        if let Some(idx) = open.idx {
            self.spans[idx].end_ns = self.ns_since_start(end);
            self.stack.retain(|&i| i != idx);
        }
        end - open.start
    }

    /// The spans recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns_since_start(&self, t: Instant) -> u64 {
        u64::try_from((t - self.t0).as_nanos()).unwrap_or(u64::MAX)
    }
}

/// One row of the per-layer table.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans in the layer.
    pub calls: u64,
    /// Their summed duration, ms.
    pub total_ms: f64,
    /// Their summed duration minus the time their child spans cover, ms.
    pub self_ms: f64,
}

/// Per-layer calls, total time and self time. Calls on one thread nest, so
/// the time a span's children cover is the sum of their durations.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let dur = s.end_ns - s.start_ns;
        let row = out.entry(s.layer).or_default();
        row.calls += 1;
        row.total_ms += dur as f64 / 1e6;
        row.self_ms += dur.saturating_sub(covered) as f64 / 1e6;
    }
    out
}

/// The spans as a Chrome trace-event document (complete `X` events, times in
/// microseconds), which Perfetto and `chrome://tracing` open directly.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let events = spans.iter().enumerate().map(|(i, s)| {
        let mut args = vec![("span", Json::from(i)), ("layer", Json::from(s.layer))];
        if let Some(p) = s.parent {
            args.push(("parent", Json::from(p)));
        }
        if let Some(c) = &s.cell {
            args.push(("cell", Json::from(c.as_str())));
        }
        Json::obj([
            ("name", Json::from(s.name)),
            ("cat", Json::from(s.layer)),
            ("ph", Json::from("X")),
            ("ts", Json::from(s.start_ns as f64 / 1e3)),
            ("dur", Json::from((s.end_ns - s.start_ns) as f64 / 1e3)),
            ("pid", Json::from(1u64)),
            ("tid", Json::from(1u64)),
            ("args", Json::obj(args)),
        ])
    });
    Json::obj([("traceEvents", Json::arr(events)), ("displayTimeUnit", Json::from("ms"))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: "f", layer, start_ns, end_ns, parent, cell: None }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("bench.pass", 0, 10_000_000, None),
            span("cpu.ooo", 1_000_000, 4_000_000, Some(0)),
            span("cpu.ooo", 5_000_000, 9_000_000, Some(0)),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["bench.pass"].calls, 1);
        assert!((t["bench.pass"].total_ms - 10.0).abs() < 1e-9);
        assert!((t["bench.pass"].self_ms - 3.0).abs() < 1e-9);
        assert_eq!(t["cpu.ooo"].calls, 2);
        assert!((t["cpu.ooo"].self_ms - 7.0).abs() < 1e-9);
    }

    #[test]
    fn tracer_nests_and_times_with_tracing_off_too() {
        let mut on = Tracer::new(true);
        let outer = on.enter("pass", "bench.pass", None);
        let inner = on.enter("Machine::run_limited", "cpu.inorder", Some("ora/in-order/N"));
        on.exit(inner);
        let whole = on.exit(outer);
        assert_eq!(on.spans().len(), 2);
        assert_eq!(on.spans()[1].parent, Some(0));
        assert!(on.spans()[0].end_ns >= on.spans()[1].end_ns);
        assert!(whole >= Duration::ZERO);

        let mut off = Tracer::new(false);
        let s = off.enter("pass", "bench.pass", None);
        off.exit(s);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let spans = [span("bench.pass", 0, 2_000, None), span("obs", 500, 1_500, Some(0))];
        let doc = chrome_trace(&spans);
        let events = doc.get("traceEvents").and_then(Json::as_arr).expect("events");
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(events[1].get("dur").and_then(Json::as_f64), Some(1.0));
        assert_eq!(events[1].get("args").and_then(|a| a.get("parent")), Some(&Json::from(0u64)));
    }
}
