//! `imo-obs`: the deterministic observability layer shared by every
//! simulation crate.
//!
//! The paper's thesis is that exposing memory-system behaviour to software
//! unlocks optimization; this crate applies the same idea to the simulator
//! itself. It provides four pieces, all zero-dependency and deterministic:
//!
//! - **Typed events** ([`Event`]/[`EventKind`]): fetch/issue/graduate,
//!   cache and MSHR outcomes, informing-trap entry/return, and coherence
//!   traffic including dropped messages — recorded into a bounded ring
//!   buffer [`Recorder`] gated by a per-category [`CategoryMask`]. The CPU
//!   cores are generic over [`Observer`]; their [`NoObs`] instance compiles
//!   the record sites out, a `None` recorder elsewhere (or an empty mask)
//!   costs one branch, and either way simulation results stay
//!   bit-identical.
//! - **Metrics** ([`MetricsRegistry`]): named counters plus fixed-bucket
//!   latency [`Histogram`]s (load-to-use, trap redirect, retry backoff)
//!   with one shared schema across `imo-cpu`, `imo-mem`, `imo-coherence`
//!   and `imo-faults`.
//! - **CPI-stack attribution** ([`CpiStack`]): every elapsed cycle is
//!   classified into exactly one of base / issue-stall / L1-miss / L2-miss
//!   / handler / coherence-wait, and the sum reconciles *exactly* with the
//!   run's cycle count — the trace-grounded reproduction of the paper's
//!   Figure 2/4 decomposition.
//! - **Miss attribution** ([`Attribution`]/[`MissProfile`], [`pattern`]):
//!   a streaming "why did this miss" analyzer folding the event stream
//!   into per-PC hot-miss tables, an exactly-reconciling compulsory /
//!   coherence / capacity / conflict classification via an online
//!   reuse-distance sketch, and a per-PC access-pattern taxonomy
//!   (fixed-stride / pointer-chase / irregular) — exported as text table,
//!   versioned JSON and a Perfetto-track twin.
//! - **Exporters** ([`chrome_trace`], [`flame_summary`]): Chrome
//!   trace-event JSON loadable in Perfetto / `chrome://tracing`, and a
//!   terminal flamegraph summary. Same recorder contents ⇒ byte-identical
//!   output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod attrib;
pub mod cpi;
pub mod event;
pub mod export;
pub mod metrics;
pub mod observer;
pub mod pattern;
pub mod recorder;

pub use attrib::{AttribConfig, Attribution, MissClass, MissProfile, PROFILE_VERSION};
pub use cpi::{CpiCategory, CpiStack};
pub use event::{Category, CategoryMask, Event, EventKind, ServedBy};
pub use export::{chrome_trace, compare_stacks, flame_summary};
pub use metrics::{Histogram, MetricsRegistry, BUCKET_BOUNDS};
pub use observer::{NoObs, Observer};
pub use pattern::{Pattern, PatternDetector};
pub use recorder::{Recorder, DEFAULT_CAPACITY};

/// Records into an optional recorder — the idiom every simulator uses so
/// the uninstrumented path stays a single branch.
#[inline]
pub fn record(obs: &mut Option<&mut Recorder>, cycle: u64, kind: EventKind) {
    if let Some(rec) = obs.as_deref_mut() {
        rec.record(cycle, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optional_record_helper() {
        let mut none: Option<&mut Recorder> = None;
        record(&mut none, 1, EventKind::Issue { seq: 0 });

        let mut rec = Recorder::all();
        let mut some = Some(&mut rec);
        record(&mut some, 1, EventKind::Issue { seq: 0 });
        assert_eq!(rec.len(), 1);
    }
}
