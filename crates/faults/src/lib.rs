//! # Deterministic fault injection
//!
//! The paper's §4.3 access-control study literally builds on *induced
//! faults* — Blizzard-E poisons invalid blocks with bad ECC, and the
//! page-protection scheme relies on write traps — yet a simulator that
//! assumes a perfect substrate cannot tell whether the modelled protocols
//! degrade gracefully when the substrate misbehaves. This crate provides a
//! seed-driven fault *plan*: a reproducible schedule of injected faults at
//! three sites,
//!
//! * **interconnect** — directory protocol messages are dropped, duplicated
//!   or delayed ([`InterconnectFault`]);
//! * **cache line** — ECC events on invalidated lines: single-bit errors are
//!   corrected in hardware, double-bit errors are detect-only and lose the
//!   line ([`EccFault`]);
//! * **handler** — informing miss handlers overrun their cycle budget or
//!   dispatch through a stale MHAR ([`HandlerFault`]).
//!
//! Every site draws from its own [`imo_util::rng`] stream split off the plan
//! seed, so the schedule at one site is independent of how many draws another
//! site makes, and a `(seed, site, draw-index)` triple always yields the same
//! fault. Two simulations with the same trace and the same plan are
//! bit-identical; a plan with all rates zero never touches the RNG at all,
//! which keeps zero-fault runs cycle-identical to a simulator without fault
//! hooks.
//!
//! ## Example
//!
//! ```
//! use imo_faults::{FaultConfig, FaultPlan, InterconnectFault};
//!
//! let mut cfg = FaultConfig::none(42);
//! cfg.drop_rate = 0.5;
//! let plan = FaultPlan::new(cfg);
//! let mut a = plan.interconnect();
//! let mut b = plan.interconnect();
//! let first: Vec<Option<InterconnectFault>> = (0..8).map(|_| a.draw()).collect();
//! let second: Vec<Option<InterconnectFault>> = (0..8).map(|_| b.draw()).collect();
//! assert_eq!(first, second); // same plan => same schedule
//! assert!(first.iter().any(Option::is_some)); // rate 0.5 actually injects
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use imo_util::rng::{mix64, SmallRng};

/// A fault injected on one directory protocol message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterconnectFault {
    /// The message is lost; the sender times out and must retry.
    Drop,
    /// The message arrives twice; the receiver NACKs the duplicate.
    Duplicate,
    /// The message is delayed by the given number of cycles.
    Delay(u64),
}

/// An ECC event on a cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EccFault {
    /// Single-bit error: corrected transparently by the ECC logic.
    SingleBit,
    /// Double-bit error: detected but uncorrectable; the line's data is lost
    /// and must be refetched from the next level.
    DoubleBit,
}

/// A fault injected on one informing-trap handler invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandlerFault {
    /// The handler overran its cycle budget by `extra_cycles`.
    Overrun {
        /// Extra pipeline bubbles charged to the trapping instruction.
        extra_cycles: u64,
    },
    /// The MHAR was stale; the machine must reload it before dispatching,
    /// stalling fetch for `reload_cycles`.
    StaleMhar {
        /// Fetch stall while the handler address is re-established.
        reload_cycles: u64,
    },
}

impl HandlerFault {
    /// The timing penalty this fault adds to the trapping instruction's
    /// fetch redirect.
    #[must_use]
    pub fn penalty_cycles(self) -> u64 {
        match self {
            HandlerFault::Overrun { extra_cycles } => extra_cycles,
            HandlerFault::StaleMhar { reload_cycles } => reload_cycles,
        }
    }
}

/// Per-site fault rates and the plan seed.
///
/// Rates are probabilities in `[0, 1]` applied independently per draw; at
/// each site the kinds partition a single uniform draw, so at most one fault
/// is injected per message / invalidation / trap. All-zero rates (the
/// [`FaultConfig::none`] construction) are guaranteed to never consume
/// randomness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed every site stream is split from.
    pub seed: u64,
    /// Probability a protocol message is dropped.
    pub drop_rate: f64,
    /// Probability a protocol message is duplicated.
    pub dup_rate: f64,
    /// Probability a protocol message is delayed.
    pub delay_rate: f64,
    /// Maximum delay of a delayed message (uniform in `1..=delay_cycles`).
    pub delay_cycles: u64,
    /// Probability an invalidated line suffers a single-bit ECC error.
    pub ecc_single_rate: f64,
    /// Probability an invalidated line suffers a double-bit ECC error.
    pub ecc_double_rate: f64,
    /// Probability an informing handler overruns its budget.
    pub handler_overrun_rate: f64,
    /// Extra cycles charged by a handler overrun.
    pub handler_overrun_cycles: u64,
    /// Probability an informing trap dispatches through a stale MHAR.
    pub stale_mhar_rate: f64,
    /// Fetch stall charged by a stale-MHAR dispatch.
    pub stale_mhar_cycles: u64,
    /// After this many *consecutive* faulty handler invocations the machine
    /// disables informing traps and reports `degraded` (graceful
    /// degradation; 0 means "never degrade").
    pub degrade_after: u32,
}

impl FaultConfig {
    /// A plan that injects nothing (all rates zero).
    #[must_use]
    pub fn none(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            drop_rate: 0.0,
            dup_rate: 0.0,
            delay_rate: 0.0,
            delay_cycles: 900,
            ecc_single_rate: 0.0,
            ecc_double_rate: 0.0,
            handler_overrun_rate: 0.0,
            handler_overrun_cycles: 100,
            stale_mhar_rate: 0.0,
            stale_mhar_cycles: 50,
            degrade_after: 4,
        }
    }

    /// A plan that injects every site's faults at the same `rate` (split
    /// evenly across the kinds at each site) — the knob the resilience bench
    /// sweeps.
    #[must_use]
    pub fn uniform(seed: u64, rate: f64) -> FaultConfig {
        let mut c = FaultConfig::none(seed);
        c.drop_rate = rate / 3.0;
        c.dup_rate = rate / 3.0;
        c.delay_rate = rate / 3.0;
        c.ecc_single_rate = rate / 2.0;
        c.ecc_double_rate = rate / 2.0;
        c.handler_overrun_rate = rate / 2.0;
        c.stale_mhar_rate = rate / 2.0;
        c
    }

    /// Whether any interconnect fault can be injected.
    #[must_use]
    pub fn has_interconnect(&self) -> bool {
        self.drop_rate > 0.0 || self.dup_rate > 0.0 || self.delay_rate > 0.0
    }

    /// Whether any cache-line ECC fault can be injected.
    #[must_use]
    pub fn has_ecc(&self) -> bool {
        self.ecc_single_rate > 0.0 || self.ecc_double_rate > 0.0
    }

    /// Whether any handler fault can be injected.
    #[must_use]
    pub fn has_handler(&self) -> bool {
        self.handler_overrun_rate > 0.0 || self.stale_mhar_rate > 0.0
    }

    /// Whether the plan can inject anything at all.
    #[must_use]
    pub fn is_none(&self) -> bool {
        !self.has_interconnect() && !self.has_ecc() && !self.has_handler()
    }

    /// Dumps the plan's knobs into a shared metrics registry under the
    /// `faults.` prefix, so every observed run's export records exactly what
    /// fault pressure it ran under. Rates (probabilities) are recorded in
    /// parts per million to keep the registry integer-valued.
    pub fn record_metrics(&self, m: &mut imo_obs::MetricsRegistry) {
        let ppm = |rate: f64| (rate * 1e6).round() as u64;
        m.set("faults.seed", self.seed);
        m.set("faults.drop_rate_ppm", ppm(self.drop_rate));
        m.set("faults.dup_rate_ppm", ppm(self.dup_rate));
        m.set("faults.delay_rate_ppm", ppm(self.delay_rate));
        m.set("faults.delay_cycles", self.delay_cycles);
        m.set("faults.ecc_single_rate_ppm", ppm(self.ecc_single_rate));
        m.set("faults.ecc_double_rate_ppm", ppm(self.ecc_double_rate));
        m.set("faults.handler_overrun_rate_ppm", ppm(self.handler_overrun_rate));
        m.set("faults.stale_mhar_rate_ppm", ppm(self.stale_mhar_rate));
        m.set("faults.degrade_after", u64::from(self.degrade_after));
    }
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig::none(0)
    }
}

// Site tags: arbitrary distinct constants mixed into the plan seed so each
// site gets an independent stream. Fixed for all time — changing them
// invalidates recorded fault schedules.
const SITE_INTERCONNECT: u64 = 0x1996_0001;
const SITE_CACHE_LINE: u64 = 0x1996_0002;
const SITE_HANDLER: u64 = 0x1996_0003;

/// A deterministic fault schedule: a factory for the per-site streams.
///
/// The plan itself is immutable; each call to [`FaultPlan::interconnect`],
/// [`FaultPlan::cache_lines`] or [`FaultPlan::handlers`] returns a fresh
/// stream positioned at draw 0, so a simulation that owns its streams
/// replays the same schedule every run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    cfg: FaultConfig,
}

impl FaultPlan {
    /// A plan over the given configuration.
    #[must_use]
    pub fn new(cfg: FaultConfig) -> FaultPlan {
        FaultPlan { cfg }
    }

    /// The plan that injects nothing.
    #[must_use]
    pub fn none() -> FaultPlan {
        FaultPlan { cfg: FaultConfig::none(0) }
    }

    /// The configuration this plan was built from.
    #[must_use]
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// The interconnect fault stream (one draw per protocol message).
    #[must_use]
    pub fn interconnect(&self) -> InterconnectFaults {
        InterconnectFaults { cfg: self.cfg, seed: mix64(self.cfg.seed, SITE_INTERCONNECT), n: 0 }
    }

    /// The cache-line ECC fault stream (one draw per invalidation).
    #[must_use]
    pub fn cache_lines(&self) -> EccFaults {
        EccFaults { cfg: self.cfg, seed: mix64(self.cfg.seed, SITE_CACHE_LINE), n: 0 }
    }

    /// The handler fault stream (one draw per informing trap).
    #[must_use]
    pub fn handlers(&self) -> HandlerFaults {
        HandlerFaults { cfg: self.cfg, seed: mix64(self.cfg.seed, SITE_HANDLER), n: 0 }
    }
}

/// One uniform sample in `[0, 1)` from a per-draw split RNG. Splitting per
/// draw (rather than advancing one generator) makes draw `n` a pure function
/// of `(stream seed, n)`.
fn draw(seed: u64, n: u64) -> (f64, SmallRng) {
    let mut rng = SmallRng::seed_from_u64(mix64(seed, n));
    let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    (u, rng)
}

/// Reproducible interconnect fault schedule; see [`FaultPlan::interconnect`].
#[derive(Debug, Clone)]
pub struct InterconnectFaults {
    cfg: FaultConfig,
    seed: u64,
    n: u64,
}

impl InterconnectFaults {
    /// Number of draws consumed so far. Because draw `n` is a pure function
    /// of `(stream seed, n)`, this single counter is the stream's entire
    /// mutable state — a checkpoint records it and
    /// [`InterconnectFaults::seek`] restores it.
    #[must_use]
    pub fn position(&self) -> u64 {
        self.n
    }

    /// Fast-forwards (or rewinds) the stream so the next draw is draw `n`,
    /// as returned by [`InterconnectFaults::position`] on the stream being
    /// restored.
    pub fn seek(&mut self, n: u64) {
        self.n = n;
    }

    /// The fault (if any) injected on the next protocol message.
    pub fn draw(&mut self) -> Option<InterconnectFault> {
        if !self.cfg.has_interconnect() {
            return None;
        }
        let (u, mut rng) = draw(self.seed, self.n);
        self.n += 1;
        if u < self.cfg.drop_rate {
            Some(InterconnectFault::Drop)
        } else if u < self.cfg.drop_rate + self.cfg.dup_rate {
            Some(InterconnectFault::Duplicate)
        } else if u < self.cfg.drop_rate + self.cfg.dup_rate + self.cfg.delay_rate {
            let d = rng.gen_range(1..self.cfg.delay_cycles.max(1) + 1);
            Some(InterconnectFault::Delay(d))
        } else {
            None
        }
    }
}

/// Reproducible cache-line ECC schedule; see [`FaultPlan::cache_lines`].
#[derive(Debug, Clone)]
pub struct EccFaults {
    cfg: FaultConfig,
    seed: u64,
    n: u64,
}

impl EccFaults {
    /// Number of draws consumed so far. Because draw `n` is a pure function
    /// of `(stream seed, n)`, this single counter is the stream's entire
    /// mutable state — a checkpoint records it and [`EccFaults::seek`]
    /// restores it.
    #[must_use]
    pub fn position(&self) -> u64 {
        self.n
    }

    /// Fast-forwards (or rewinds) the stream so the next draw is draw `n`,
    /// as returned by [`EccFaults::position`] on the stream being restored.
    pub fn seek(&mut self, n: u64) {
        self.n = n;
    }

    /// The ECC event (if any) injected on the next line invalidation.
    pub fn draw(&mut self) -> Option<EccFault> {
        if !self.cfg.has_ecc() {
            return None;
        }
        let (u, _) = draw(self.seed, self.n);
        self.n += 1;
        if u < self.cfg.ecc_single_rate {
            Some(EccFault::SingleBit)
        } else if u < self.cfg.ecc_single_rate + self.cfg.ecc_double_rate {
            Some(EccFault::DoubleBit)
        } else {
            None
        }
    }
}

/// Reproducible handler fault schedule; see [`FaultPlan::handlers`].
#[derive(Debug, Clone)]
pub struct HandlerFaults {
    cfg: FaultConfig,
    seed: u64,
    n: u64,
}

impl HandlerFaults {
    /// Number of draws consumed so far. Because draw `n` is a pure function
    /// of `(stream seed, n)`, this single counter is the stream's entire
    /// mutable state — a checkpoint records it and [`HandlerFaults::seek`]
    /// restores it.
    #[must_use]
    pub fn position(&self) -> u64 {
        self.n
    }

    /// Fast-forwards (or rewinds) the stream so the next draw is draw `n`,
    /// as returned by [`HandlerFaults::position`] on the stream being
    /// restored.
    pub fn seek(&mut self, n: u64) {
        self.n = n;
    }

    /// The fault (if any) injected on the next informing trap.
    pub fn draw(&mut self) -> Option<HandlerFault> {
        if !self.cfg.has_handler() {
            return None;
        }
        let (u, _) = draw(self.seed, self.n);
        self.n += 1;
        if u < self.cfg.handler_overrun_rate {
            Some(HandlerFault::Overrun { extra_cycles: self.cfg.handler_overrun_cycles })
        } else if u < self.cfg.handler_overrun_rate + self.cfg.stale_mhar_rate {
            Some(HandlerFault::StaleMhar { reload_cycles: self.cfg.stale_mhar_cycles })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn faulty() -> FaultConfig {
        let mut c = FaultConfig::none(7);
        c.drop_rate = 0.2;
        c.dup_rate = 0.1;
        c.delay_rate = 0.1;
        c.ecc_single_rate = 0.2;
        c.ecc_double_rate = 0.1;
        c.handler_overrun_rate = 0.2;
        c.stale_mhar_rate = 0.1;
        c
    }

    #[test]
    fn handler_stream_seek_replays_exactly() {
        let plan = FaultPlan::new(faulty());
        let mut a = plan.handlers();
        let prefix: Vec<_> = (0..10).map(|_| a.draw()).collect();
        assert!(prefix.iter().any(|f| f.is_some()), "rates high enough to fire");
        // A fresh stream seeked to the recorded position continues the
        // original sequence, and rewinding replays the prefix.
        let mut b = plan.handlers();
        b.seek(a.position());
        let cont_a: Vec<_> = (0..10).map(|_| a.draw()).collect();
        let cont_b: Vec<_> = (0..10).map(|_| b.draw()).collect();
        assert_eq!(cont_a, cont_b);
        b.seek(0);
        let replay: Vec<_> = (0..10).map(|_| b.draw()).collect();
        assert_eq!(replay, prefix);
    }

    #[test]
    fn same_seed_same_schedule() {
        let plan = FaultPlan::new(faulty());
        let a: Vec<_> = {
            let mut s = plan.interconnect();
            (0..256).map(|_| s.draw()).collect()
        };
        let b: Vec<_> = {
            let mut s = plan.interconnect();
            (0..256).map(|_| s.draw()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut c2 = faulty();
        c2.seed = 8;
        let a: Vec<_> = {
            let mut s = FaultPlan::new(faulty()).interconnect();
            (0..256).map(|_| s.draw()).collect()
        };
        let b: Vec<_> = {
            let mut s = FaultPlan::new(c2).interconnect();
            (0..256).map(|_| s.draw()).collect()
        };
        assert_ne!(a, b);
    }

    #[test]
    fn sites_are_independent_streams() {
        // Consuming the interconnect stream must not shift the ECC stream.
        let plan = FaultPlan::new(faulty());
        let ecc_cold: Vec<_> = {
            let mut s = plan.cache_lines();
            (0..64).map(|_| s.draw()).collect()
        };
        let ecc_after: Vec<_> = {
            let mut net = plan.interconnect();
            for _ in 0..1000 {
                net.draw();
            }
            let mut s = plan.cache_lines();
            (0..64).map(|_| s.draw()).collect()
        };
        assert_eq!(ecc_cold, ecc_after);
    }

    #[test]
    fn zero_rates_never_inject() {
        let plan = FaultPlan::none();
        let mut net = plan.interconnect();
        let mut ecc = plan.cache_lines();
        let mut hdl = plan.handlers();
        for _ in 0..1000 {
            assert_eq!(net.draw(), None);
            assert_eq!(ecc.draw(), None);
            assert_eq!(hdl.draw(), None);
        }
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let mut c = FaultConfig::none(3);
        c.drop_rate = 0.25;
        let mut s = FaultPlan::new(c).interconnect();
        let drops = (0..8000).filter(|_| s.draw() == Some(InterconnectFault::Drop)).count();
        assert!((1700..2300).contains(&drops), "drops {drops} out of expectation for p=0.25");
    }

    #[test]
    fn kinds_partition_one_draw() {
        // drop + dup + delay = 1.0 => every message faults, kinds disjoint.
        let mut c = FaultConfig::none(11);
        c.drop_rate = 0.4;
        c.dup_rate = 0.3;
        c.delay_rate = 0.3;
        c.delay_cycles = 10;
        let mut s = FaultPlan::new(c).interconnect();
        let mut seen = [0u32; 3];
        for _ in 0..2000 {
            match s.draw() {
                Some(InterconnectFault::Drop) => seen[0] += 1,
                Some(InterconnectFault::Duplicate) => seen[1] += 1,
                Some(InterconnectFault::Delay(d)) => {
                    assert!((1..=10).contains(&d), "delay {d}");
                    seen[2] += 1;
                }
                None => panic!("rates sum to 1.0; every draw must fault"),
            }
        }
        assert!(seen.iter().all(|&k| k > 300), "all kinds appear: {seen:?}");
    }

    #[test]
    fn handler_faults_carry_configured_penalties() {
        let mut c = FaultConfig::none(5);
        c.handler_overrun_rate = 0.5;
        c.stale_mhar_rate = 0.5;
        c.handler_overrun_cycles = 123;
        c.stale_mhar_cycles = 45;
        let mut s = FaultPlan::new(c).handlers();
        let mut both = [false; 2];
        for _ in 0..256 {
            match s.draw() {
                Some(HandlerFault::Overrun { extra_cycles }) => {
                    assert_eq!(extra_cycles, 123);
                    both[0] = true;
                }
                Some(HandlerFault::StaleMhar { reload_cycles }) => {
                    assert_eq!(reload_cycles, 45);
                    both[1] = true;
                }
                None => panic!("rates sum to 1.0"),
            }
        }
        assert!(both.iter().all(|&b| b));
        assert_eq!(
            HandlerFault::Overrun { extra_cycles: 9 }.penalty_cycles(),
            9,
            "penalty accessor"
        );
    }

    #[test]
    fn record_metrics_exports_rates_in_ppm() {
        let mut m = imo_obs::MetricsRegistry::new();
        let mut c = FaultConfig::none(9);
        c.drop_rate = 0.25;
        c.record_metrics(&mut m);
        assert_eq!(m.counter("faults.seed"), Some(9));
        assert_eq!(m.counter("faults.drop_rate_ppm"), Some(250_000));
        assert_eq!(m.counter("faults.degrade_after"), Some(4));
    }

    #[test]
    fn uniform_config_covers_all_sites() {
        let c = FaultConfig::uniform(1, 0.3);
        assert!(c.has_interconnect() && c.has_ecc() && c.has_handler());
        assert!(!c.is_none());
        assert!(FaultConfig::none(1).is_none());
    }
}
