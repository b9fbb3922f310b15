//! The compile-time observer interface the timing cores are generic over.
//!
//! A core written against `O: Observer` is monomorphized twice: once for
//! [`NoObs`], whose hooks are empty and whose [`Observer::ON`] is `false`
//! (so observation-only bookkeeping such as the CPI stack folds away), and
//! once for [`Recorder`]. Both instances run the same loop body, so
//! attaching a recorder never changes which code path simulates the
//! machine — it only adds the recording.

use crate::event::EventKind;
use crate::recorder::Recorder;

/// An event sink resolved at compile time.
pub trait Observer {
    /// Whether this sink keeps anything. Callers gate observation-only
    /// work (CPI classification, histogram inputs) on it; for [`NoObs`]
    /// that work is dead code.
    const ON: bool;

    /// Records one event at `cycle`.
    fn record(&mut self, cycle: u64, kind: EventKind);

    /// Adds one sample to the named latency histogram.
    fn observe(&mut self, histogram: &str, cycles: u64);

    /// The underlying recorder, for end-of-run metrics and the CPI merge.
    fn recorder(&mut self) -> Option<&mut Recorder>;
}

/// The observer that keeps nothing: every hook compiles to nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoObs;

impl Observer for NoObs {
    const ON: bool = false;

    #[inline(always)]
    fn record(&mut self, _cycle: u64, _kind: EventKind) {}

    #[inline(always)]
    fn observe(&mut self, _histogram: &str, _cycles: u64) {}

    #[inline(always)]
    fn recorder(&mut self) -> Option<&mut Recorder> {
        None
    }
}

impl Observer for Recorder {
    const ON: bool = true;

    #[inline]
    fn record(&mut self, cycle: u64, kind: EventKind) {
        Recorder::record(self, cycle, kind);
    }

    #[inline]
    fn observe(&mut self, histogram: &str, cycles: u64) {
        self.metrics.observe(histogram, cycles);
    }

    #[inline]
    fn recorder(&mut self) -> Option<&mut Recorder> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive<O: Observer>(obs: &mut O) {
        obs.record(3, EventKind::Issue { seq: 7 });
        obs.observe("cpu.load_to_use", 4);
    }

    #[test]
    fn recorder_keeps_what_noobs_drops() {
        let mut none = NoObs;
        drive(&mut none);
        assert!(none.recorder().is_none());

        let mut rec = Recorder::all();
        drive(&mut rec);
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.metrics.histogram("cpu.load_to_use").map(|h| h.samples()), Some(1));
        assert!(Observer::recorder(&mut rec).is_some());
    }
}
