//! The §4.2 experiment harness behind Figures 2 and 3.
//!
//! For a given workload and machine, run the paper's five configurations —
//! no handler (N), single handler (S) and unique-per-reference handler (U)
//! with 1- and 10-instruction generic bodies — and report execution time
//! normalized to N, broken into busy / cache-stall / other-stall graduation
//! slots.

use imo_cpu::{Machine, RunLimits, RunResult, SimError};
use imo_isa::Program;

use crate::instrument::{instrument, HandlerBody, HandlerKind, InstrumentError, Scheme};

/// One experimental configuration (a bar in Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Variant {
    /// Display label ("N", "1S", "1U", "10S", "10U", …).
    pub label: &'static str,
    /// The instrumentation scheme.
    pub scheme: Scheme,
}

/// The paper's Figure 2/3 variant set: N, then {single, unique} × {1, 10}.
pub fn figure2_variants() -> Vec<Variant> {
    vec![
        Variant { label: "N", scheme: Scheme::None },
        Variant {
            label: "1S",
            scheme: Scheme::Trap {
                handlers: HandlerKind::Single,
                body: HandlerBody::Generic { len: 1 },
            },
        },
        Variant {
            label: "1U",
            scheme: Scheme::Trap {
                handlers: HandlerKind::PerReference,
                body: HandlerBody::Generic { len: 1 },
            },
        },
        Variant {
            label: "10S",
            scheme: Scheme::Trap {
                handlers: HandlerKind::Single,
                body: HandlerBody::Generic { len: 10 },
            },
        },
        Variant {
            label: "10U",
            scheme: Scheme::Trap {
                handlers: HandlerKind::PerReference,
                body: HandlerBody::Generic { len: 10 },
            },
        },
    ]
}

/// Variants for the §4.2.2 100-instruction-handler experiment.
pub fn handler100_variants() -> Vec<Variant> {
    vec![
        Variant { label: "N", scheme: Scheme::None },
        Variant {
            label: "100S",
            scheme: Scheme::Trap {
                handlers: HandlerKind::Single,
                body: HandlerBody::Generic { len: 100 },
            },
        },
    ]
}

/// One bar of a normalized stacked chart: execution time relative to the N
/// run, split into the three slot categories.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormalizedBar {
    /// Variant label.
    pub label: &'static str,
    /// Total height: `cycles / cycles(N)`.
    pub total: f64,
    /// Busy (graduating) portion of the height.
    pub busy: f64,
    /// Cache-stall portion.
    pub cache_stall: f64,
    /// Other-stall portion.
    pub other_stall: f64,
    /// Instruction-count ratio vs N (the §4.2.2 "instruction count for
    /// mdljsp2 and alvinn increases by over 30 % but execution time only 1 %"
    /// observation).
    pub instr_ratio: f64,
}

/// All variants of one workload on one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// Workload name.
    pub workload: String,
    /// Machine name ("ooo" / "in-order").
    pub machine: &'static str,
    /// Raw results per variant, in the order requested.
    pub raw: Vec<(&'static str, RunResult)>,
    /// Normalized stacked bars (first is N at height 1.0).
    pub bars: Vec<NormalizedBar>,
}

/// Errors from [`run_experiment`].
#[derive(Debug)]
pub enum ExperimentError {
    /// Instrumentation failed.
    Instrument(InstrumentError),
    /// Simulation failed.
    Sim(SimError),
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::Instrument(e) => write!(f, "instrumentation failed: {e}"),
            ExperimentError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<InstrumentError> for ExperimentError {
    fn from(e: InstrumentError) -> Self {
        ExperimentError::Instrument(e)
    }
}

impl From<SimError> for ExperimentError {
    fn from(e: SimError) -> Self {
        ExperimentError::Sim(e)
    }
}

/// Runs `variants` of `program` on `machine` and normalizes to the first
/// variant (conventionally N).
///
/// # Errors
///
/// Returns [`ExperimentError`] if instrumentation or any simulation fails.
pub fn run_experiment(
    workload: &str,
    program: &Program,
    machine: &Machine,
    variants: &[Variant],
    limits: RunLimits,
) -> Result<ExperimentResult, ExperimentError> {
    let mut raw = Vec::with_capacity(variants.len());
    for v in variants {
        let inst = instrument(program, &v.scheme)?;
        let result = machine.run_limited(&inst.program, limits)?;
        raw.push((v.label, result));
    }
    Ok(normalize_experiment(workload, machine.name(), raw))
}

/// Normalizes raw per-variant results to the first variant (conventionally N)
/// and assembles the [`ExperimentResult`].
///
/// Split out of [`run_experiment`] so callers that obtain the raw runs some
/// other way — e.g. the bench sweep's memoization layer, which may serve a
/// variant's `RunResult` from cache — produce bit-identical results.
///
/// # Panics
///
/// Panics if `raw` is empty (there is no baseline to normalize to).
#[must_use]
pub fn normalize_experiment(
    workload: &str,
    machine: &'static str,
    raw: Vec<(&'static str, RunResult)>,
) -> ExperimentResult {
    let base = &raw[0].1;
    let base_cycles = base.cycles.max(1) as f64;
    let base_instr = base.instructions.max(1) as f64;
    let bars = raw
        .iter()
        .map(|(label, r)| {
            let total = r.cycles as f64 / base_cycles;
            let (b, c, o) = r.slots.fractions();
            NormalizedBar {
                label,
                total,
                busy: b * total,
                cache_stall: c * total,
                other_stall: o * total,
                instr_ratio: r.instructions as f64 / base_instr,
            }
        })
        .collect();
    ExperimentResult { workload: workload.to_string(), machine, raw, bars }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imo_isa::{Asm, Cond, Reg};

    /// A kernel with a real miss rate: stride through 512 lines repeatedly.
    fn missy_kernel() -> Program {
        let mut a = Asm::new();
        let (i, n, base, v) = (Reg::int(1), Reg::int(2), Reg::int(3), Reg::int(4));
        a.li(i, 0);
        a.li(n, 3000);
        a.li(base, 0x10_0000);
        let top = a.here("top");
        a.load(v, base, 0);
        a.addi(base, base, 4096);
        a.andi(base, base, 0x1f_ffff);
        a.addi(i, i, 1);
        a.branch(Cond::Lt, i, n, top);
        a.halt();
        a.assemble().unwrap()
    }

    #[test]
    fn figure2_variant_set() {
        let v = figure2_variants();
        assert_eq!(v.len(), 5);
        assert_eq!(v[0].label, "N");
        assert_eq!(v[4].label, "10U");
    }

    #[test]
    fn normalization_baseline_is_one() {
        let p = missy_kernel();
        let res = run_experiment(
            "missy",
            &p,
            &Machine::default_ooo(),
            &figure2_variants(),
            RunLimits::default(),
        )
        .unwrap();
        assert_eq!(res.bars[0].label, "N");
        assert!((res.bars[0].total - 1.0).abs() < 1e-12);
        let b = res.bars[0];
        assert!((b.busy + b.cache_stall + b.other_stall - b.total).abs() < 1e-9);
    }

    #[test]
    fn handlers_increase_time_monotonically_with_length() {
        let p = missy_kernel();
        let res = run_experiment(
            "missy",
            &p,
            &Machine::default_in_order(),
            &figure2_variants(),
            RunLimits::default(),
        )
        .unwrap();
        let by_label = |l: &str| res.bars.iter().find(|b| b.label == l).unwrap().total;
        assert!(by_label("1S") >= 1.0);
        assert!(by_label("10S") > by_label("1S"), "longer handler costs more");
        assert!(by_label("10U") >= by_label("10S") * 0.9, "unique is in the same ballpark");
    }

    #[test]
    fn unique_handlers_raise_instruction_count() {
        let p = missy_kernel();
        let res = run_experiment(
            "missy",
            &p,
            &Machine::default_ooo(),
            &figure2_variants(),
            RunLimits::default(),
        )
        .unwrap();
        let u = res.bars.iter().find(|b| b.label == "1U").unwrap();
        let s = res.bars.iter().find(|b| b.label == "1S").unwrap();
        assert!(
            u.instr_ratio > s.instr_ratio,
            "per-ref setmhar adds dynamic instructions: {} vs {}",
            u.instr_ratio,
            s.instr_ratio
        );
    }
}
