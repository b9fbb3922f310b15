//! # Deterministic interconnect fault injection
//!
//! A seed-driven fault *plan* for the directory protocol's interconnect: a
//! reproducible schedule of dropped protocol messages, which the coherence
//! simulator survives through request timeouts and retry with backoff.
//!
//! Draw `n` of the stream is a pure function of `(seed, n)`, so two
//! simulations with the same trace and the same plan are bit-identical, and
//! a stream's position is its whole mutable state. A plan with a zero drop
//! rate never touches the RNG at all, which keeps zero-fault runs
//! cycle-identical to a simulator without fault hooks.
//!
//! ## Example
//!
//! ```
//! use imo_faults::{FaultConfig, FaultPlan};
//!
//! let plan = FaultPlan::new(FaultConfig { seed: 42, drop_rate: 0.5 });
//! let mut a = plan.interconnect();
//! let mut b = plan.interconnect();
//! let first: Vec<bool> = (0..8).map(|_| a.draw()).collect();
//! let second: Vec<bool> = (0..8).map(|_| b.draw()).collect();
//! assert_eq!(first, second); // same plan => same schedule
//! assert!(first.iter().any(|&dropped| dropped)); // rate 0.5 actually injects
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use imo_util::rng::{mix64, SmallRng};

/// The message-drop rate and the plan seed. The default drops nothing.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultConfig {
    /// Seed the interconnect stream is split from.
    pub seed: u64,
    /// Probability in `[0, 1]` that a protocol message is dropped, applied
    /// independently per message.
    pub drop_rate: f64,
}

impl FaultConfig {
    /// Dumps the plan's knobs into a shared metrics registry under the
    /// `faults.` prefix, so every observed run's export records exactly what
    /// fault pressure it ran under. The rate (a probability) is recorded in
    /// parts per million to keep the registry integer-valued.
    pub fn record_metrics(&self, m: &mut imo_obs::MetricsRegistry) {
        m.set("faults.seed", self.seed);
        m.set("faults.drop_rate_ppm", (self.drop_rate * 1e6).round() as u64);
    }
}

// Site tag: an arbitrary constant mixed into the plan seed. Fixed for all
// time — changing it invalidates recorded fault schedules.
const SITE_INTERCONNECT: u64 = 0x1996_0001;

/// A deterministic fault schedule: a factory for the interconnect stream.
///
/// The plan itself is immutable; each call to [`FaultPlan::interconnect`]
/// returns a fresh stream positioned at draw 0, so a simulation that owns
/// its stream replays the same schedule every run.
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
        FaultPlan { cfg: FaultConfig::default() }
    }

    /// The configuration this plan was built from.
    #[must_use]
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// The interconnect fault stream (one draw per protocol message).
    #[must_use]
    pub fn interconnect(&self) -> InterconnectFaults {
        InterconnectFaults {
            drop_rate: self.cfg.drop_rate,
            seed: mix64(self.cfg.seed, SITE_INTERCONNECT),
            n: 0,
        }
    }
}

/// Reproducible message-drop schedule; see [`FaultPlan::interconnect`].
#[derive(Debug, Clone)]
pub struct InterconnectFaults {
    drop_rate: f64,
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

    /// Whether the next protocol message is dropped.
    pub fn draw(&mut self) -> bool {
        if self.drop_rate > 0.0 {
            // One uniform sample in `[0, 1)` from a per-draw split RNG, so
            // draw `n` is a pure function of `(stream seed, n)`.
            let mut rng = SmallRng::seed_from_u64(mix64(self.seed, self.n));
            self.n += 1;
            let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            u < self.drop_rate
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy(seed: u64) -> FaultConfig {
        FaultConfig { seed, drop_rate: 0.2 }
    }

    fn schedule(cfg: FaultConfig, n: usize) -> Vec<bool> {
        let mut s = FaultPlan::new(cfg).interconnect();
        (0..n).map(|_| s.draw()).collect()
    }

    #[test]
    fn seek_replays_exactly() {
        let plan = FaultPlan::new(lossy(7));
        let mut a = plan.interconnect();
        let prefix: Vec<_> = (0..10).map(|_| a.draw()).collect();
        assert!(prefix.iter().any(|&d| d), "rate high enough to fire");
        // A fresh stream seeked to the recorded position continues the
        // original sequence, and rewinding replays the prefix.
        let mut b = plan.interconnect();
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
        assert_eq!(schedule(lossy(7), 256), schedule(lossy(7), 256));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(schedule(lossy(7), 256), schedule(lossy(8), 256));
    }

    #[test]
    fn zero_rate_never_injects_or_advances() {
        let mut net = FaultPlan::none().interconnect();
        for _ in 0..1000 {
            assert!(!net.draw());
        }
        assert_eq!(net.position(), 0, "a zero-rate stream consumes no randomness");
    }

    #[test]
    fn rate_is_roughly_honoured() {
        let cfg = FaultConfig { seed: 3, drop_rate: 0.25 };
        let drops = schedule(cfg, 8000).into_iter().filter(|&d| d).count();
        assert!((1700..2300).contains(&drops), "drops {drops} out of expectation for p=0.25");
    }

    #[test]
    fn record_metrics_exports_rate_in_ppm() {
        let mut m = imo_obs::MetricsRegistry::new();
        FaultConfig { seed: 9, drop_rate: 0.25 }.record_metrics(&mut m);
        assert_eq!(m.counter("faults.seed"), Some(9));
        assert_eq!(m.counter("faults.drop_rate_ppm"), Some(250_000));
    }
}
