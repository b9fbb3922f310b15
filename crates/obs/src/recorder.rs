//! The bounded ring-buffer event recorder.
//!
//! A [`Recorder`] is handed to a simulator either as the
//! [`crate::Observer`] type parameter of the CPU cores (whose unobserved
//! [`crate::NoObs`] instance compiles the record sites out) or as an
//! `Option<&mut Recorder>` (one branch per would-be event). The recorder
//! never feeds back into simulation state, so instrumented runs are
//! bit-identical to plain ones. With a recorder present, each event pays
//! one mask AND before any allocation — disabling a category suppresses
//! its stream entirely.

use crate::attrib::{AttribConfig, Attribution};
use crate::cpi::CpiStack;
use crate::event::{CategoryMask, Event, EventKind};
use crate::metrics::MetricsRegistry;

/// Default ring capacity: enough for the tier-1 workloads' full event
/// streams while bounding memory on long runs.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Records typed [`Event`]s into a bounded ring buffer, owns the run's
/// [`MetricsRegistry`], and accumulates the CPI stack.
#[derive(Debug, Clone)]
pub struct Recorder {
    mask: CategoryMask,
    capacity: usize,
    /// Ring storage; once full, `start` marks the oldest retained event.
    ring: Vec<Event>,
    start: usize,
    dropped: u64,
    total: u64,
    /// Optional streaming miss-attribution analyzer. Fed every event
    /// *before* the category mask and ring buffer, so masking and
    /// eviction can never skew attribution.
    attrib: Option<Box<Attribution>>,
    /// Shared named counters and latency histograms.
    pub metrics: MetricsRegistry,
    /// Cycle attribution accumulated by the simulator.
    pub cpi: CpiStack,
}

impl Recorder {
    /// A recorder with the given enable mask and [`DEFAULT_CAPACITY`].
    #[must_use]
    pub fn new(mask: CategoryMask) -> Recorder {
        Recorder::with_capacity(mask, DEFAULT_CAPACITY)
    }

    /// A recorder retaining at most `capacity` events (oldest evicted
    /// first). A capacity of 0 keeps metrics and CPI attribution but
    /// retains no events.
    #[must_use]
    pub fn with_capacity(mask: CategoryMask, capacity: usize) -> Recorder {
        Recorder {
            mask,
            capacity,
            ring: Vec::new(),
            start: 0,
            dropped: 0,
            total: 0,
            attrib: None,
            metrics: MetricsRegistry::new(),
            cpi: CpiStack::default(),
        }
    }

    /// A recorder with every category enabled.
    #[must_use]
    pub fn all() -> Recorder {
        Recorder::new(CategoryMask::ALL)
    }

    /// A recorder with no event categories enabled — metrics and CPI
    /// attribution still accumulate.
    #[must_use]
    pub fn disabled() -> Recorder {
        Recorder::new(CategoryMask::NONE)
    }

    /// The enable mask.
    #[must_use]
    pub fn mask(&self) -> CategoryMask {
        self.mask
    }

    /// Enables miss attribution for the given cache geometry. Replaces any
    /// prior analyzer state.
    pub fn enable_attribution(&mut self, cfg: AttribConfig) {
        self.attrib = Some(Box::new(Attribution::new(cfg)));
    }

    /// The attribution analyzer, when enabled.
    #[must_use]
    pub fn attribution(&self) -> Option<&Attribution> {
        self.attrib.as_deref()
    }

    /// Detaches and returns the attribution analyzer.
    pub fn take_attribution(&mut self) -> Option<Box<Attribution>> {
        self.attrib.take()
    }

    /// Records an event if its category is enabled. One mask test on the
    /// fast path; eviction replaces the oldest event once the ring fills.
    #[inline]
    pub fn record(&mut self, cycle: u64, kind: EventKind) {
        if let Some(attrib) = self.attrib.as_deref_mut() {
            attrib.on_event(&kind);
        }
        if self.mask.contains(kind.category()) {
            self.retain(Event { cycle, kind });
        }
    }

    /// Counts an enabled event and stores it in the ring. Kept out of
    /// [`Recorder::record`] so the masked-out case inlines to one test.
    fn retain(&mut self, ev: Event) {
        self.total += 1;
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.ring.len() < self.capacity {
            self.ring.push(ev);
        } else {
            self.ring[self.start] = ev;
            self.start = (self.start + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Retained events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.ring.len());
        out.extend_from_slice(&self.ring[self.start..]);
        out.extend_from_slice(&self.ring[..self.start]);
        out
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no events are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events that matched the mask but were evicted (or not retained
    /// because capacity is 0).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events that matched the mask, retained or not.
    #[must_use]
    pub fn total_recorded(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Category;

    fn ev(seq: u64) -> EventKind {
        EventKind::Issue { seq }
    }

    #[test]
    fn mask_filters_categories() {
        let mut r = Recorder::new(CategoryMask::of(&[Category::Trap]));
        r.record(1, ev(0)); // pipeline: filtered
        r.record(2, EventKind::TrapEnter { seq: 1, pc: 0x40 });
        assert_eq!(r.len(), 1);
        assert_eq!(r.total_recorded(), 1);
        assert_eq!(r.events()[0].cycle, 2);
    }

    #[test]
    fn disabled_recorder_retains_nothing() {
        let mut r = Recorder::disabled();
        r.record(1, ev(0));
        r.record(2, EventKind::CohDrop { proc: 0, line: 0 });
        assert!(r.is_empty());
        assert_eq!(r.total_recorded(), 0);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut r = Recorder::with_capacity(CategoryMask::ALL, 3);
        for i in 0..5 {
            r.record(i, ev(i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.total_recorded(), 5);
        let cycles: Vec<u64> = r.events().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
    }

    #[test]
    fn attribution_sees_masked_and_evicted_events() {
        use crate::event::ServedBy;
        // Mask excludes Cache entirely AND capacity is 1: the analyzer
        // must still see every access.
        let mut r = Recorder::with_capacity(CategoryMask::of(&[Category::Trap]), 1);
        r.enable_attribution(AttribConfig::default());
        for i in 0..4u64 {
            r.record(
                i,
                EventKind::DataAccess {
                    served: ServedBy::Memory,
                    pc: 0x10,
                    addr: 0x1000 + i * 64,
                    line: 0x1000 + i * 64,
                    store: false,
                    prefetch: false,
                    ptr_base: false,
                },
            );
        }
        assert_eq!(r.total_recorded(), 0, "mask still filters the ring");
        let a = r.attribution().expect("enabled");
        assert_eq!(a.cpu_demand_misses(), 4);
        assert_eq!(a.cpu_classified_total(), 4);
    }

    #[test]
    fn zero_capacity_keeps_metrics_only() {
        let mut r = Recorder::with_capacity(CategoryMask::ALL, 0);
        r.record(1, ev(0));
        r.metrics.count("x", 1);
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 1);
        assert_eq!(r.metrics.counter("x"), Some(1));
    }
}
