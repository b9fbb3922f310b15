//! The paper's two simulated machines, one handle over both core models.

use imo_isa::exec::ArchState;
use imo_isa::Program;
use imo_obs::{AttribConfig, Recorder};

use crate::{InOrderConfig, OooConfig, RunLimits, RunResult, SimError, SimSession};

/// One of the paper's two simulated machines, with its configuration.
///
/// Every run goes through [`SimSession`]; the `run*` methods here are its
/// common cases.
///
/// # Example
///
/// ```
/// use imo_cpu::Machine;
/// use imo_isa::{Asm, Reg};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut a = Asm::new();
/// a.li(Reg::int(1), 1);
/// a.halt();
/// let p = a.assemble()?;
/// for m in [Machine::default_ooo(), Machine::default_in_order()] {
///     let r = m.run(&p)?;
///     assert_eq!(r.instructions, 2);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Machine {
    /// The out-of-order MIPS-R10000-like model.
    OutOfOrder(OooConfig),
    /// The in-order Alpha-21164-like model.
    InOrder(InOrderConfig),
}

impl Machine {
    /// The paper's out-of-order configuration.
    pub fn default_ooo() -> Machine {
        Machine::OutOfOrder(OooConfig::paper())
    }

    /// The paper's in-order configuration.
    pub fn default_in_order() -> Machine {
        Machine::InOrder(InOrderConfig::paper())
    }

    /// A short display name ("ooo" / "in-order").
    pub fn name(&self) -> &'static str {
        match self {
            Machine::OutOfOrder(_) => "ooo",
            Machine::InOrder(_) => "in-order",
        }
    }

    /// The miss-attribution geometry matching this machine's L1 D-cache,
    /// ready for [`Recorder::enable_attribution`].
    pub fn attrib_config(&self) -> AttribConfig {
        let l1d = match self {
            Machine::OutOfOrder(cfg) => cfg.hier.l1d,
            Machine::InOrder(cfg) => cfg.hier.l1d,
        };
        AttribConfig::for_l1(l1d.size_bytes, u64::from(l1d.assoc), l1d.line_bytes)
    }

    /// Simulates `program` to completion with default limits.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the underlying model.
    pub fn run(&self, program: &Program) -> Result<RunResult, SimError> {
        self.run_limited(program, RunLimits::default())
    }

    /// Simulates `program` with explicit limits.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the underlying model.
    pub fn run_limited(&self, program: &Program, limits: RunLimits) -> Result<RunResult, SimError> {
        SimSession::new(program, *self).limits(limits).complete().map(|(r, _)| r)
    }

    /// Simulates `program`, returning both the timing result and the final
    /// architectural state (for tools that accumulate results in memory or
    /// registers).
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the underlying model.
    pub fn run_full(&self, program: &Program) -> Result<(RunResult, ArchState), SimError> {
        SimSession::new(program, *self).complete()
    }

    /// Simulates `program` under the observability recorder: typed events
    /// stream into `rec` (gated by its category mask), named counters and
    /// latency histograms accumulate into `rec.metrics`, and every cycle is
    /// attributed into `rec.cpi` (whose total equals `RunResult::cycles`
    /// exactly). The recorder is strictly passive — the timing result is
    /// bit-identical to [`Machine::run`]'s.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the underlying model.
    pub fn run_observed(
        &self,
        program: &Program,
        rec: &mut Recorder,
    ) -> Result<(RunResult, ArchState), SimError> {
        SimSession::new(program, *self).recorder(rec).complete()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imo_isa::{Asm, Reg};

    #[test]
    fn names() {
        assert_eq!(Machine::default_ooo().name(), "ooo");
        assert_eq!(Machine::default_in_order().name(), "in-order");
    }

    #[test]
    fn run_full_exposes_state() {
        let mut a = Asm::new();
        a.li(Reg::int(5), 123);
        a.halt();
        let p = a.assemble().unwrap();
        let (_, state) = Machine::default_in_order().run_full(&p).unwrap();
        assert_eq!(state.int(Reg::int(5)), 123);
    }

    #[test]
    fn both_machines_agree_functionally() {
        let mut a = Asm::new();
        let r1 = Reg::int(1);
        a.li(r1, 10);
        a.mul(r1, r1, r1);
        a.halt();
        let p = a.assemble().unwrap();
        let (_, s1) = Machine::default_ooo().run_full(&p).unwrap();
        let (_, s2) = Machine::default_in_order().run_full(&p).unwrap();
        assert_eq!(s1.int(r1), 100);
        assert_eq!(s2.int(r1), 100);
    }
}
