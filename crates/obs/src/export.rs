//! Exporters: Chrome trace-event JSON (Perfetto / `chrome://tracing`
//! loadable) and a text flamegraph-style run summary.
//!
//! Exports are pure functions of a [`Recorder`]'s contents — same events,
//! metrics and CPI stack produce byte-identical output, which is what the
//! determinism tests assert.

use crate::cpi::CpiStack;
use crate::event::{Category, Event, EventKind};
use crate::recorder::Recorder;
use imo_util::json::Json;

/// Builds a Chrome trace-event document from a recorder.
///
/// Events become instant events (`ph: "i"`) with `ts` in simulated cycles
/// (1 cycle = 1 µs on the Perfetto timeline), grouped onto one track per
/// category — coherence traffic gets one track per processor instead. Each
/// used track is named via a `thread_name` metadata record. The CPI stack
/// and metrics registry ride along under `otherData` so a trace file is a
/// self-contained run record.
#[must_use]
pub fn chrome_trace(rec: &Recorder) -> Json {
    let events = rec.events();
    let mut trace_events: Vec<Json> = Vec::with_capacity(events.len() + 8);

    // Name every track that appears, in ascending tid order so output is
    // stable regardless of event order.
    let mut tids: Vec<u32> = events.iter().map(|e| e.kind.track()).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in &tids {
        trace_events.push(Json::obj([
            ("name", Json::from("thread_name")),
            ("ph", Json::from("M")),
            ("pid", Json::from(0u64)),
            ("tid", Json::from(u64::from(*tid))),
            ("args", Json::obj([("name", Json::from(track_name(*tid)))])),
        ]));
    }

    for ev in &events {
        trace_events.push(instant(ev));
    }

    Json::obj([
        ("traceEvents", Json::Arr(trace_events)),
        ("displayTimeUnit", Json::from("ms")),
        (
            "otherData",
            Json::obj([
                ("tool", Json::from("imo-obs")),
                ("mask", Json::from(rec.mask().to_string())),
                ("events_retained", Json::from(rec.len())),
                ("events_dropped", Json::from(rec.dropped())),
                ("cpi_stack", rec.cpi.to_json()),
                ("metrics", rec.metrics.to_json()),
            ]),
        ),
    ])
}

fn track_name(tid: u32) -> String {
    match Category::ALL.get(tid as usize) {
        Some(c) => c.name().to_string(),
        None => format!("proc{}", tid - 16),
    }
}

fn instant(ev: &Event) -> Json {
    Json::obj([
        ("name", Json::from(ev.kind.name())),
        ("ph", Json::from("i")),
        ("s", Json::from("t")),
        ("ts", Json::from(ev.cycle)),
        ("pid", Json::from(0u64)),
        ("tid", Json::from(u64::from(ev.kind.track()))),
        ("args", args(ev.kind)),
    ])
}

fn args(kind: EventKind) -> Json {
    match kind {
        EventKind::Fetch { seq, pc } => {
            Json::obj([("seq", Json::from(seq)), ("pc", Json::from(format!("{pc:#x}")))])
        }
        EventKind::Issue { seq } | EventKind::Graduate { seq } | EventKind::TrapReturn { seq } => {
            Json::obj([("seq", Json::from(seq))])
        }
        EventKind::DataAccess { pc, line, store, prefetch, ptr_base, .. } => Json::obj([
            ("pc", Json::from(format!("{pc:#x}"))),
            ("line", Json::from(format!("{line:#x}"))),
            ("store", Json::Bool(store)),
            ("prefetch", Json::Bool(prefetch)),
            ("ptr_base", Json::Bool(ptr_base)),
        ]),
        EventKind::InstMiss { pc } => Json::obj([("pc", Json::from(format!("{pc:#x}")))]),
        EventKind::MshrAllocate { line } | EventKind::MshrMerge { line } => {
            Json::obj([("line", Json::from(format!("{line:#x}")))])
        }
        EventKind::TrapEnter { seq, pc } => {
            Json::obj([("seq", Json::from(seq)), ("pc", Json::from(format!("{pc:#x}")))])
        }
        EventKind::CohRequest { proc, line }
        | EventKind::CohDrop { proc, line }
        | EventKind::CohInvalidate { proc, line } => Json::obj([
            ("proc", Json::from(u64::from(proc))),
            ("line", Json::from(format!("{line:#x}"))),
        ]),
        EventKind::CohAccess { proc, line, store, served, .. } => Json::obj([
            ("proc", Json::from(u64::from(proc))),
            ("line", Json::from(format!("{line:#x}"))),
            ("store", Json::Bool(store)),
            ("served", Json::from(served.label())),
        ]),
        EventKind::CohRetry { proc, line, backoff } => Json::obj([
            ("proc", Json::from(u64::from(proc))),
            ("line", Json::from(format!("{line:#x}"))),
            ("backoff", Json::from(backoff)),
        ]),
    }
}

/// A text flamegraph-style summary: the CPI stack bars, event-stream
/// shape, counters, and histograms — everything a terminal user needs
/// without opening the trace in Perfetto.
#[must_use]
pub fn flame_summary(rec: &Recorder, title: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    out.push_str(&format!(
        "events: {} retained, {} dropped (mask: {})\n",
        rec.len(),
        rec.dropped(),
        rec.mask(),
    ));
    let stack = &rec.cpi;
    if stack.total() > 0 {
        out.push_str("\ncpi stack (cycles):\n");
        out.push_str(&stack.render());
    }
    if !rec.metrics.counters().is_empty() {
        out.push_str("\ncounters:\n");
        for (k, v) in rec.metrics.counters() {
            out.push_str(&format!("  {k:<32} {v}\n"));
        }
    }
    if !rec.metrics.histograms().is_empty() {
        out.push_str("\nlatency histograms:\n");
        for (k, h) in rec.metrics.histograms() {
            out.push_str(&format!("  {k:<24} {}\n", h.render()));
        }
    }
    out
}

/// Renders a [`CpiStack`] comparison between two runs (e.g. informing vs
/// baseline) as aligned per-category rows with deltas.
#[must_use]
pub fn compare_stacks(label_a: &str, a: &CpiStack, label_b: &str, b: &CpiStack) -> String {
    use crate::cpi::CpiCategory;
    let mut out = String::new();
    out.push_str(&format!("{:<14} {:>12} {:>12} {:>12}\n", "category", label_a, label_b, "delta"));
    for c in CpiCategory::ALL {
        let (va, vb) = (a.get(c), b.get(c));
        if va == 0 && vb == 0 {
            continue;
        }
        out.push_str(&format!(
            "{:<14} {:>12} {:>12} {:>+12}\n",
            c.name(),
            va,
            vb,
            vb as i64 - va as i64,
        ));
    }
    out.push_str(&format!(
        "{:<14} {:>12} {:>12} {:>+12}\n",
        "total",
        a.total(),
        b.total(),
        b.total() as i64 - a.total() as i64,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CategoryMask, ServedBy};

    fn sample_recorder() -> Recorder {
        let mut r = Recorder::all();
        r.record(0, EventKind::Fetch { seq: 0, pc: 0x100 });
        r.record(
            2,
            EventKind::DataAccess {
                served: ServedBy::L2,
                pc: 0x104,
                addr: 0x44,
                line: 0x40,
                store: false,
                prefetch: false,
                ptr_base: false,
            },
        );
        r.record(3, EventKind::TrapEnter { seq: 0, pc: 0x100 });
        r.record(9, EventKind::CohRetry { proc: 1, line: 0x80, backoff: 4 });
        r.cpi.add(crate::cpi::CpiCategory::Base, 5);
        r.cpi.add(crate::cpi::CpiCategory::L1Miss, 5);
        r.metrics.count("cpu.loads", 1);
        r.metrics.observe("load_to_use", 12);
        r
    }

    #[test]
    fn chrome_trace_shape() {
        let j = chrome_trace(&sample_recorder());
        let events = j.get("traceEvents").unwrap().as_arr().unwrap();
        // 4 instants + 4 distinct tracks (pipeline, cache, trap, proc1).
        assert_eq!(events.len(), 8);
        let meta: Vec<&Json> =
            events.iter().filter(|e| e.get("ph").unwrap().as_str() == Some("M")).collect();
        assert_eq!(meta.len(), 4);
        assert_eq!(meta[0].get("args").unwrap().get("name").unwrap().as_str(), Some("pipeline"));
        let inst: Vec<&Json> =
            events.iter().filter(|e| e.get("ph").unwrap().as_str() == Some("i")).collect();
        assert_eq!(inst[0].get("name").unwrap().as_str(), Some("fetch"));
        assert_eq!(inst[1].get("ts").unwrap().as_f64(), Some(2.0));
        assert_eq!(inst[3].get("args").unwrap().get("backoff").unwrap().as_f64(), Some(4.0));
        let other = j.get("otherData").unwrap();
        assert_eq!(other.get("cpi_stack").unwrap().get("total").unwrap().as_f64(), Some(10.0));
    }

    #[test]
    fn chrome_trace_reparses_and_is_deterministic() {
        let a = chrome_trace(&sample_recorder()).pretty();
        let b = chrome_trace(&sample_recorder()).pretty();
        assert_eq!(a, b);
        assert!(imo_util::json::parse(&a).is_ok());
    }

    #[test]
    fn proc_tracks_are_named() {
        let j = chrome_trace(&sample_recorder());
        let events = j.get("traceEvents").unwrap().as_arr().unwrap();
        let proc_meta = events
            .iter()
            .find(|e| {
                e.get("ph").unwrap().as_str() == Some("M")
                    && e.get("tid").unwrap().as_f64() == Some(17.0)
            })
            .unwrap();
        assert_eq!(proc_meta.get("args").unwrap().get("name").unwrap().as_str(), Some("proc1"));
    }

    #[test]
    fn flame_summary_mentions_everything() {
        let s = flame_summary(&sample_recorder(), "demo");
        assert!(s.contains("== demo =="));
        assert!(s.contains("4 retained"));
        assert!(s.contains("base"));
        assert!(s.contains("cpu.loads"));
        assert!(s.contains("load_to_use"));
    }

    #[test]
    fn empty_recorder_summary_is_small() {
        let r = Recorder::new(CategoryMask::NONE);
        let s = flame_summary(&r, "empty");
        assert!(s.contains("0 retained"));
        assert!(!s.contains("cpi stack"));
    }

    #[test]
    fn compare_stacks_deltas() {
        let a = CpiStack { base: 10, l1_miss: 4, ..CpiStack::default() };
        let b = CpiStack { base: 10, l1_miss: 2, handler: 3, ..CpiStack::default() };
        let s = compare_stacks("off", &a, "on", &b);
        assert!(s.contains("l1_miss"));
        assert!(s.contains("-2"));
        assert!(s.contains("+3"));
        assert!(s.lines().last().unwrap().starts_with("total"));
    }
}
