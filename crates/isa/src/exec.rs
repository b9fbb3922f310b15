//! Functional (architectural) execution of IRIS programs.
//!
//! The executor defines the ISA's semantics once; both standalone functional
//! runs and the cycle-level processor models in `imo-cpu` step programs
//! through it. Primary-data-cache hit/miss outcomes — which are
//! *architecturally visible* with informing memory operations — are supplied
//! by a [`MissOracle`], so the timing models can plug in their cache
//! hierarchy while unit tests use simple oracles like [`NeverMiss`].

use std::error::Error;
use std::fmt;

use imo_util::json::Json;
use imo_util::snapshot::{self, Snapshot, SnapshotError};

use crate::instr::{Instr, MemKind};
use crate::memimg::DataMemory;
use crate::program::Program;
use crate::reg::{Reg, RegClass};

/// How deep in the hierarchy a reference had to go. Architecturally visible
/// through the outcome condition codes (`bmiss` tests "not [`MissDepth::Hit`]",
/// `bmissmem` tests [`MissDepth::MemMiss`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum MissDepth {
    /// Served by the primary data cache.
    #[default]
    Hit,
    /// Missed in the primary cache, served by the secondary cache.
    L1Miss,
    /// Missed in both caches, served by main memory.
    MemMiss,
}

impl MissDepth {
    /// Whether the reference missed in the primary cache (the event the
    /// informing mechanisms key on).
    pub fn is_l1_miss(self) -> bool {
        self != MissDepth::Hit
    }

    /// Whether the reference went all the way to main memory.
    pub fn is_mem_miss(self) -> bool {
        self == MissDepth::MemMiss
    }
}

/// Supplies data-cache hit/miss outcomes to the executor.
///
/// `probe` is called once per executed load/store, in program order, and must
/// both *report* the outcome and *update* any internal cache state (tags,
/// LRU), because the outcome is architecturally visible through the
/// cache-outcome condition codes and the informing-trap mechanism.
pub trait MissOracle {
    /// Probes the data cache(s) for the aligned word at `addr`.
    fn probe(&mut self, addr: u64, is_store: bool) -> MissDepth;

    /// Handles a non-binding prefetch of `addr`. Default: ignored.
    fn prefetch(&mut self, addr: u64) {
        let _ = addr;
    }
}

/// Oracle for which every reference hits (flat fast memory).
#[derive(Debug, Clone, Copy, Default)]
pub struct NeverMiss;

impl MissOracle for NeverMiss {
    fn probe(&mut self, _addr: u64, _is_store: bool) -> MissDepth {
        MissDepth::Hit
    }
}

/// Oracle for which every reference misses all the way to memory (useful for
/// exercising handlers).
#[derive(Debug, Clone, Copy, Default)]
pub struct AlwaysMiss;

impl MissOracle for AlwaysMiss {
    fn probe(&mut self, _addr: u64, _is_store: bool) -> MissDepth {
        MissDepth::MemMiss
    }
}

/// Errors from functional execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The PC left the text segment (no instruction at this address).
    InvalidPc(u64),
    /// `run` exceeded its step budget before reaching `halt`.
    StepLimit(u64),
    /// [`Executor::step_plain_run`] met an instruction at this address that
    /// is not plain (a memory access, control transfer or halt).
    NotPlain(u64),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::InvalidPc(pc) => write!(f, "no instruction at pc {pc:#x}"),
            ExecError::StepLimit(n) => write!(f, "step limit of {n} reached before halt"),
            ExecError::NotPlain(pc) => write!(f, "instruction at pc {pc:#x} is not plain"),
        }
    }
}

impl Error for ExecError {}

/// How an executed instruction left the control flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlFlow {
    /// Fell through to `pc + 4`.
    Sequential,
    /// A branch/jump redirected to the given target.
    Taken(u64),
    /// A not-taken conditional branch (fell through, but is a control
    /// instruction the predictor sees).
    NotTaken,
    /// An informing memory operation missed and trapped to the handler.
    InformingTrap {
        /// The handler address (contents of the MHAR).
        handler: u64,
    },
    /// The machine halted.
    Halt,
}

/// Description of the data-memory access performed by an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Byte address referenced.
    pub addr: u64,
    /// `true` for stores.
    pub is_store: bool,
    /// `true` if this was a non-binding prefetch.
    pub is_prefetch: bool,
    /// `true` if the reference missed in the primary data cache.
    pub l1_miss: bool,
    /// The memory-operation kind (normal vs informing).
    pub kind: MemKind,
}

/// Everything the timing models need to know about one executed instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepInfo {
    /// Address of the executed instruction.
    pub pc: u64,
    /// The instruction itself.
    pub instr: Instr,
    /// Address of the next instruction on the (architecturally correct) path.
    pub next_pc: u64,
    /// The data access performed, if any.
    pub mem: Option<MemAccess>,
    /// Control-flow outcome.
    pub control: ControlFlow,
}

/// Architectural machine state.
#[derive(Debug, Clone)]
pub struct ArchState {
    int: [u64; 32],
    fp: [f64; 32],
    mem: DataMemory,
    pc: u64,
    mhar: u64,
    mhrr: u64,
    mar: u64,
    last_depth: MissDepth,
    in_handler: bool,
    halted: bool,
}

impl ArchState {
    fn new(pc: u64) -> ArchState {
        ArchState {
            int: [0; 32],
            fp: [0.0; 32],
            mem: DataMemory::new(),
            pc,
            mhar: 0,
            mhrr: 0,
            mar: 0,
            last_depth: MissDepth::Hit,
            in_handler: false,
            halted: false,
        }
    }

    /// Reads an integer or (bit-cast) FP register as raw bits.
    pub fn raw(&self, r: Reg) -> u64 {
        match r.class() {
            RegClass::Int => self.int[r.index() as usize],
            RegClass::Fp => self.fp[r.index() as usize].to_bits(),
        }
    }

    /// Reads an integer register (`r0` reads as zero).
    pub fn int(&self, r: Reg) -> u64 {
        debug_assert_eq!(r.class(), RegClass::Int);
        self.int[r.index() as usize]
    }

    /// Reads a floating-point register.
    pub fn fp(&self, r: Reg) -> f64 {
        debug_assert_eq!(r.class(), RegClass::Fp);
        self.fp[r.index() as usize]
    }

    /// Writes an integer register (writes to `r0` are discarded).
    pub fn set_int(&mut self, r: Reg, v: u64) {
        debug_assert_eq!(r.class(), RegClass::Int);
        if !r.is_zero() {
            self.int[r.index() as usize] = v;
        }
    }

    /// Writes a floating-point register.
    pub fn set_fp(&mut self, r: Reg, v: f64) {
        debug_assert_eq!(r.class(), RegClass::Fp);
        self.fp[r.index() as usize] = v;
    }

    /// The program counter.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// The Miss Handler Address Register.
    pub fn mhar(&self) -> u64 {
        self.mhar
    }

    /// The Miss Handler Return Register.
    pub fn mhrr(&self) -> u64 {
        self.mhrr
    }

    /// The Miss Address Register (extension; see crate docs).
    pub fn mar(&self) -> u64 {
        self.mar
    }

    /// The primary cache-outcome condition code (last data reference missed
    /// in L1?).
    pub fn miss_cc(&self) -> bool {
        self.last_depth.is_l1_miss()
    }

    /// The full outcome depth of the last data reference (the §2.1
    /// multi-level condition-code extension).
    pub fn last_depth(&self) -> MissDepth {
        self.last_depth
    }

    /// Whether execution is currently inside a miss handler (between a trap
    /// or taken `bmiss` and the matching `jmhrr`). Nested informing traps are
    /// suppressed while set.
    pub fn in_handler(&self) -> bool {
        self.in_handler
    }

    /// Whether the machine has executed `halt`.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// The data memory.
    pub fn memory(&self) -> &DataMemory {
        &self.mem
    }

    /// Mutable access to the data memory (for test setup).
    pub fn memory_mut(&mut self) -> &mut DataMemory {
        &mut self.mem
    }
}

impl Snapshot for ArchState {
    const KIND: &'static str = "isa.arch_state";
    const VERSION: u32 = 2;

    fn encode(&self) -> Json {
        let fp_bits: Vec<u64> = self.fp.iter().map(|v| v.to_bits()).collect();
        Json::obj([
            ("int", snapshot::u64s_json(&self.int)),
            ("fp", snapshot::u64s_json(&fp_bits)),
            ("pc", snapshot::u64_json(self.pc)),
            ("mhar", snapshot::u64_json(self.mhar)),
            ("mhrr", snapshot::u64_json(self.mhrr)),
            ("mar", snapshot::u64_json(self.mar)),
            ("last_depth", snapshot::u64_json(self.last_depth as u64)),
            ("in_handler", Json::Bool(self.in_handler)),
            ("halted", Json::Bool(self.halted)),
            ("mem", self.mem.encode()),
        ])
    }

    fn decode(data: &Json) -> Result<Self, SnapshotError> {
        let int_v = snapshot::get_u64s(data, "int")?;
        let fp_v = snapshot::get_u64s(data, "fp")?;
        let int: [u64; 32] = int_v.try_into().map_err(|_| SnapshotError::Bad("int"))?;
        let fp_bits: [u64; 32] = fp_v.try_into().map_err(|_| SnapshotError::Bad("fp"))?;
        let mut fp = [0.0f64; 32];
        for (dst, bits) in fp.iter_mut().zip(fp_bits) {
            *dst = f64::from_bits(bits);
        }
        let last_depth = match snapshot::get_u64(data, "last_depth")? {
            0 => MissDepth::Hit,
            1 => MissDepth::L1Miss,
            2 => MissDepth::MemMiss,
            _ => return Err(SnapshotError::Bad("last_depth")),
        };
        Ok(ArchState {
            int,
            fp,
            mem: DataMemory::decode(snapshot::field(data, "mem")?)?,
            pc: snapshot::get_u64(data, "pc")?,
            mhar: snapshot::get_u64(data, "mhar")?,
            mhrr: snapshot::get_u64(data, "mhrr")?,
            mar: snapshot::get_u64(data, "mar")?,
            last_depth,
            in_handler: snapshot::get_bool(data, "in_handler")?,
            halted: snapshot::get_bool(data, "halted")?,
        })
    }
}

/// Steps a [`Program`] through the ISA's architectural semantics.
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct Executor<'p> {
    program: &'p Program,
    state: ArchState,
    instret: u64,
}

impl<'p> Executor<'p> {
    /// Creates an executor positioned at the program's entry point, with the
    /// program's initial data image loaded.
    pub fn new(program: &'p Program) -> Executor<'p> {
        let mut state = ArchState::new(program.entry());
        for &(addr, value) in program.data() {
            state.mem.write(addr, value);
        }
        Executor { program, state, instret: 0 }
    }

    /// Re-attaches a previously snapshotted architectural state to its
    /// program, restoring the retired-instruction count. Unlike
    /// [`Executor::new`] this does **not** reload the program's initial data
    /// image — `state.memory()` already holds the live contents.
    pub fn restore(program: &'p Program, state: ArchState, instret: u64) -> Executor<'p> {
        Executor { program, state, instret }
    }

    /// The architectural state.
    pub fn state(&self) -> &ArchState {
        &self.state
    }

    /// Mutable architectural state (for test setup).
    pub fn state_mut(&mut self) -> &mut ArchState {
        &mut self.state
    }

    /// Number of instructions retired so far.
    pub fn instret(&self) -> u64 {
        self.instret
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::InvalidPc`] if the PC does not name an
    /// instruction. Stepping a halted machine returns a `Halt` step at the
    /// current PC without executing anything.
    pub fn step(&mut self, oracle: &mut dyn MissOracle) -> Result<StepInfo, ExecError> {
        let pc = self.state.pc;
        if self.state.halted {
            return Ok(StepInfo {
                pc,
                instr: Instr::Halt,
                next_pc: pc,
                mem: None,
                control: ControlFlow::Halt,
            });
        }
        let instr = self.program.fetch(pc).ok_or(ExecError::InvalidPc(pc))?;
        let s = &mut self.state;
        let mut next_pc = pc.wrapping_add(4);
        let mut control = ControlFlow::Sequential;
        let mut mem = None;

        use Instr::*;
        match instr {
            Add { rd, rs, rt } => s.set_int(rd, s.int(rs).wrapping_add(s.int(rt))),
            Sub { rd, rs, rt } => s.set_int(rd, s.int(rs).wrapping_sub(s.int(rt))),
            And { rd, rs, rt } => s.set_int(rd, s.int(rs) & s.int(rt)),
            Or { rd, rs, rt } => s.set_int(rd, s.int(rs) | s.int(rt)),
            Xor { rd, rs, rt } => s.set_int(rd, s.int(rs) ^ s.int(rt)),
            Sll { rd, rs, sh } => s.set_int(rd, s.int(rs) << (sh & 63)),
            Srl { rd, rs, sh } => s.set_int(rd, s.int(rs) >> (sh & 63)),
            Slt { rd, rs, rt } => s.set_int(rd, ((s.int(rs) as i64) < (s.int(rt) as i64)) as u64),
            Addi { rd, rs, imm } => s.set_int(rd, s.int(rs).wrapping_add(imm as u64)),
            Andi { rd, rs, imm } => s.set_int(rd, s.int(rs) & imm),
            Li { rd, imm } => s.set_int(rd, imm as u64),
            Mul { rd, rs, rt } => {
                s.set_int(rd, (s.int(rs) as i64).wrapping_mul(s.int(rt) as i64) as u64)
            }
            Div { rd, rs, rt } => {
                let d = s.int(rt) as i64;
                let v = if d == 0 { 0 } else { (s.int(rs) as i64).wrapping_div(d) };
                s.set_int(rd, v as u64);
            }
            Fadd { fd, fs, ft } => s.set_fp(fd, s.fp(fs) + s.fp(ft)),
            Fsub { fd, fs, ft } => s.set_fp(fd, s.fp(fs) - s.fp(ft)),
            Fmul { fd, fs, ft } => s.set_fp(fd, s.fp(fs) * s.fp(ft)),
            Fdiv { fd, fs, ft } => s.set_fp(fd, s.fp(fs) / s.fp(ft)),
            Fsqrt { fd, fs } => s.set_fp(fd, s.fp(fs).sqrt()),
            Fmov { fd, fs } => s.set_fp(fd, s.fp(fs)),
            Fli { fd, imm } => s.set_fp(fd, imm),
            Cvtif { fd, rs } => s.set_fp(fd, s.int(rs) as i64 as f64),
            Cvtfi { rd, fs } => {
                let v = s.fp(fs);
                let v = if v.is_nan() { 0 } else { v as i64 };
                s.set_int(rd, v as u64);
            }
            Fcmplt { rd, fs, ft } => s.set_int(rd, (s.fp(fs) < s.fp(ft)) as u64),

            Load { rd, base, offset, kind } => {
                let addr = s.int(base).wrapping_add(offset as u64);
                let depth = oracle.probe(addr, false);
                let miss = depth.is_l1_miss();
                s.last_depth = depth;
                if miss {
                    s.mar = addr;
                }
                let word = s.mem.read(addr);
                match rd.class() {
                    RegClass::Int => s.set_int(rd, word),
                    RegClass::Fp => s.set_fp(rd, f64::from_bits(word)),
                }
                mem = Some(MemAccess {
                    addr,
                    is_store: false,
                    is_prefetch: false,
                    l1_miss: miss,
                    kind,
                });
                if miss && kind == MemKind::Informing && s.mhar != 0 && !s.in_handler {
                    s.mhrr = pc.wrapping_add(4);
                    s.in_handler = true;
                    next_pc = s.mhar;
                    control = ControlFlow::InformingTrap { handler: s.mhar };
                }
            }
            Store { rs, base, offset, kind } => {
                let addr = s.int(base).wrapping_add(offset as u64);
                let depth = oracle.probe(addr, true);
                let miss = depth.is_l1_miss();
                s.last_depth = depth;
                if miss {
                    s.mar = addr;
                }
                let word = s.raw(rs);
                s.mem.write(addr, word);
                mem = Some(MemAccess {
                    addr,
                    is_store: true,
                    is_prefetch: false,
                    l1_miss: miss,
                    kind,
                });
                if miss && kind == MemKind::Informing && s.mhar != 0 && !s.in_handler {
                    s.mhrr = pc.wrapping_add(4);
                    s.in_handler = true;
                    next_pc = s.mhar;
                    control = ControlFlow::InformingTrap { handler: s.mhar };
                }
            }
            Prefetch { base, offset } => {
                let addr = s.int(base).wrapping_add(offset as u64);
                oracle.prefetch(addr);
                mem = Some(MemAccess {
                    addr,
                    is_store: false,
                    is_prefetch: true,
                    l1_miss: false,
                    kind: MemKind::Normal,
                });
            }

            Branch { cond, rs, rt, target } => {
                if cond.eval(s.int(rs), s.int(rt)) {
                    next_pc = target;
                    control = ControlFlow::Taken(target);
                } else {
                    control = ControlFlow::NotTaken;
                }
            }
            Jump { target } => {
                next_pc = target;
                control = ControlFlow::Taken(target);
            }
            Jal { target } => {
                s.set_int(Reg::LINK, pc.wrapping_add(4));
                next_pc = target;
                control = ControlFlow::Taken(target);
            }
            Jr { rs } => {
                next_pc = s.int(rs);
                control = ControlFlow::Taken(next_pc);
            }

            BranchOnMiss { target } => {
                if s.last_depth.is_l1_miss() && !s.in_handler {
                    s.mhrr = pc.wrapping_add(4);
                    s.in_handler = true;
                    next_pc = target;
                    control = ControlFlow::Taken(target);
                } else {
                    control = ControlFlow::NotTaken;
                }
            }
            BranchOnMemMiss { target } => {
                if s.last_depth.is_mem_miss() && !s.in_handler {
                    s.mhrr = pc.wrapping_add(4);
                    s.in_handler = true;
                    next_pc = target;
                    control = ControlFlow::Taken(target);
                } else {
                    control = ControlFlow::NotTaken;
                }
            }
            SetMhar { target } => s.mhar = target,
            SetMharReg { rs } => s.mhar = s.int(rs),
            SetMhrrReg { rs } => s.mhrr = s.int(rs),
            ReadMhrr { rd } => s.set_int(rd, s.mhrr),
            ReadMar { rd } => s.set_int(rd, s.mar),
            JumpMhrr => {
                s.in_handler = false;
                next_pc = s.mhrr;
                control = ControlFlow::Taken(next_pc);
            }

            Nop => {}
            Halt => {
                s.halted = true;
                next_pc = pc;
                control = ControlFlow::Halt;
            }
        }

        self.state.pc = next_pc;
        self.instret += 1;
        Ok(StepInfo { pc, instr, next_pc, mem, control })
    }

    /// The program this executor steps.
    #[inline]
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Executes `n` consecutive instructions the caller knows to be *plain*
    /// (no memory access, no control transfer, no trap, no halt — e.g.
    /// checked against [`crate::BlockCache::plain_run_len`]). Equivalent to
    /// `n` calls to [`Executor::step`] with [`NeverMiss`], but skips the
    /// per-instruction fetch arithmetic, [`StepInfo`] materialization and
    /// control dispatch that plain instructions never need.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::InvalidPc`] if the range leaves the text
    /// segment, and [`ExecError::NotPlain`] at the first instruction in the
    /// range that is not plain (a broken caller invariant); the plain
    /// prefix before it stays executed.
    pub fn step_plain_run(&mut self, n: u32) -> Result<(), ExecError> {
        let pc = self.state.pc;
        let off = pc.wrapping_sub(crate::program::TEXT_BASE);
        let idx = (off >> 2) as usize;
        let end = idx + n as usize;
        if off & 3 != 0 || end > self.program.instrs().len() {
            return Err(ExecError::InvalidPc(pc));
        }
        let program = self.program;
        use Instr::*;
        for (i, instr) in program.instrs()[idx..end].iter().enumerate() {
            let s = &mut self.state;
            match *instr {
                Add { rd, rs, rt } => s.set_int(rd, s.int(rs).wrapping_add(s.int(rt))),
                Sub { rd, rs, rt } => s.set_int(rd, s.int(rs).wrapping_sub(s.int(rt))),
                And { rd, rs, rt } => s.set_int(rd, s.int(rs) & s.int(rt)),
                Or { rd, rs, rt } => s.set_int(rd, s.int(rs) | s.int(rt)),
                Xor { rd, rs, rt } => s.set_int(rd, s.int(rs) ^ s.int(rt)),
                Sll { rd, rs, sh } => s.set_int(rd, s.int(rs) << (sh & 63)),
                Srl { rd, rs, sh } => s.set_int(rd, s.int(rs) >> (sh & 63)),
                Slt { rd, rs, rt } => {
                    s.set_int(rd, ((s.int(rs) as i64) < (s.int(rt) as i64)) as u64);
                }
                Addi { rd, rs, imm } => s.set_int(rd, s.int(rs).wrapping_add(imm as u64)),
                Andi { rd, rs, imm } => s.set_int(rd, s.int(rs) & imm),
                Li { rd, imm } => s.set_int(rd, imm as u64),
                Mul { rd, rs, rt } => {
                    s.set_int(rd, (s.int(rs) as i64).wrapping_mul(s.int(rt) as i64) as u64);
                }
                Div { rd, rs, rt } => {
                    let d = s.int(rt) as i64;
                    let v = if d == 0 { 0 } else { (s.int(rs) as i64).wrapping_div(d) };
                    s.set_int(rd, v as u64);
                }
                Fadd { fd, fs, ft } => s.set_fp(fd, s.fp(fs) + s.fp(ft)),
                Fsub { fd, fs, ft } => s.set_fp(fd, s.fp(fs) - s.fp(ft)),
                Fmul { fd, fs, ft } => s.set_fp(fd, s.fp(fs) * s.fp(ft)),
                Fdiv { fd, fs, ft } => s.set_fp(fd, s.fp(fs) / s.fp(ft)),
                Fsqrt { fd, fs } => s.set_fp(fd, s.fp(fs).sqrt()),
                Fmov { fd, fs } => s.set_fp(fd, s.fp(fs)),
                Fli { fd, imm } => s.set_fp(fd, imm),
                Cvtif { fd, rs } => s.set_fp(fd, s.int(rs) as i64 as f64),
                Cvtfi { rd, fs } => {
                    let v = s.fp(fs);
                    let v = if v.is_nan() { 0 } else { v as i64 };
                    s.set_int(rd, v as u64);
                }
                Fcmplt { rd, fs, ft } => s.set_int(rd, (s.fp(fs) < s.fp(ft)) as u64),
                SetMhar { target } => s.mhar = target,
                SetMharReg { rs } => s.mhar = s.int(rs),
                SetMhrrReg { rs } => s.mhrr = s.int(rs),
                ReadMhrr { rd } => s.set_int(rd, s.mhrr),
                ReadMar { rd } => s.set_int(rd, s.mar),
                Nop => {}
                _ => {
                    // The caller's run-length invariant is broken: commit the
                    // plain prefix and stop here.
                    s.pc = pc + 4 * i as u64;
                    self.instret += i as u64;
                    return Err(ExecError::NotPlain(s.pc));
                }
            }
        }
        self.state.pc = pc + 4 * u64::from(n);
        self.instret += u64::from(n);
        Ok(())
    }

    /// Consumes the executor, yielding the final architectural state.
    pub fn into_state(self) -> ArchState {
        self.state
    }

    /// Runs until `halt` or until `max_steps` instructions have executed.
    ///
    /// Returns the number of instructions executed.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::StepLimit`] if the budget is exhausted before
    /// halting, or [`ExecError::InvalidPc`] if execution leaves the text
    /// segment.
    pub fn run(&mut self, oracle: &mut dyn MissOracle, max_steps: u64) -> Result<u64, ExecError> {
        let mut n = 0;
        while !self.state.halted {
            if n >= max_steps {
                return Err(ExecError::StepLimit(max_steps));
            }
            self.step(oracle)?;
            n += 1;
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::instr::Cond;

    fn r(i: u8) -> Reg {
        Reg::int(i)
    }

    #[test]
    fn arithmetic_loop_sums() {
        // sum 1..=10
        let mut a = Asm::new();
        let (sum, i, n) = (r(1), r(2), r(3));
        a.li(sum, 0);
        a.li(i, 1);
        a.li(n, 10);
        let top = a.here("top");
        a.add(sum, sum, i);
        a.addi(i, i, 1);
        a.branch(Cond::Le, i, n, top);
        a.halt();
        let p = a.assemble().unwrap();
        let mut e = Executor::new(&p);
        e.run(&mut NeverMiss, 1000).unwrap();
        assert_eq!(e.state().int(sum), 55);
    }

    #[test]
    fn loads_and_stores_round_trip() {
        let mut a = Asm::new();
        let (base, v) = (r(1), r(2));
        a.li(base, 0x2000);
        a.li(v, 77);
        a.store(v, base, 16);
        a.load(r(3), base, 16);
        a.halt();
        let p = a.assemble().unwrap();
        let mut e = Executor::new(&p);
        e.run(&mut NeverMiss, 100).unwrap();
        assert_eq!(e.state().int(r(3)), 77);
    }

    #[test]
    fn fp_pipeline() {
        let mut a = Asm::new();
        let (f1, f2, f3) = (Reg::fp(1), Reg::fp(2), Reg::fp(3));
        a.fli(f1, 9.0);
        a.fsqrt(f2, f1);
        a.fli(f3, 0.5);
        a.fmul(f1, f2, f3);
        a.halt();
        let p = a.assemble().unwrap();
        let mut e = Executor::new(&p);
        e.run(&mut NeverMiss, 100).unwrap();
        assert_eq!(e.state().fp(f1), 1.5);
    }

    #[test]
    fn informing_trap_runs_handler() {
        // Handler increments r10; main does one informing load that misses.
        let mut a = Asm::new();
        let handler = a.label("handler");
        a.set_mhar(handler);
        a.li(r(1), 0x4000);
        a.load_inf(r(2), r(1), 0);
        a.halt();
        a.bind(handler).unwrap();
        a.addi(r(10), r(10), 1);
        a.jump_mhrr();
        let p = a.assemble().unwrap();

        let mut e = Executor::new(&p);
        e.run(&mut AlwaysMiss, 100).unwrap();
        assert_eq!(e.state().int(r(10)), 1, "handler ran once");
        assert!(!e.state().in_handler());

        let mut e = Executor::new(&p);
        e.run(&mut NeverMiss, 100).unwrap();
        assert_eq!(e.state().int(r(10)), 0, "no trap on hits");
    }

    #[test]
    fn mhar_zero_disables_trap() {
        let mut a = Asm::new();
        a.li(r(1), 0x4000);
        a.load_inf(r(2), r(1), 0);
        a.halt();
        let p = a.assemble().unwrap();
        let mut e = Executor::new(&p);
        e.run(&mut AlwaysMiss, 100).unwrap();
        assert!(e.state().halted());
        assert!(e.state().miss_cc(), "condition code still records the miss");
    }

    #[test]
    fn normal_loads_never_trap() {
        let mut a = Asm::new();
        let handler = a.label("h");
        a.set_mhar(handler);
        a.li(r(1), 0x4000);
        a.load(r(2), r(1), 0);
        a.halt();
        a.bind(handler).unwrap();
        a.addi(r(10), r(10), 1);
        a.jump_mhrr();
        let p = a.assemble().unwrap();
        let mut e = Executor::new(&p);
        e.run(&mut AlwaysMiss, 100).unwrap();
        assert_eq!(e.state().int(r(10)), 0);
    }

    #[test]
    fn branch_on_miss_condition_code() {
        let mut a = Asm::new();
        let handler = a.label("h");
        a.li(r(1), 0x4000);
        a.load(r(2), r(1), 0);
        a.branch_on_miss(handler);
        a.halt();
        a.bind(handler).unwrap();
        a.addi(r(10), r(10), 1);
        a.jump_mhrr();
        let p = a.assemble().unwrap();

        let mut e = Executor::new(&p);
        e.run(&mut AlwaysMiss, 100).unwrap();
        assert_eq!(e.state().int(r(10)), 1);

        let mut e = Executor::new(&p);
        e.run(&mut NeverMiss, 100).unwrap();
        assert_eq!(e.state().int(r(10)), 0);
    }

    #[test]
    fn handler_reads_mhrr_and_mar() {
        let mut a = Asm::new();
        let handler = a.label("h");
        a.set_mhar(handler);
        a.li(r(1), 0x4000);
        a.load_inf(r(2), r(1), 8); // pc = TEXT_BASE + 8
        a.halt();
        a.bind(handler).unwrap();
        a.read_mhrr(r(11));
        a.read_mar(r(12));
        a.jump_mhrr();
        let p = a.assemble().unwrap();
        let mut e = Executor::new(&p);
        e.run(&mut AlwaysMiss, 100).unwrap();
        assert_eq!(e.state().int(r(11)), crate::program::TEXT_BASE + 12);
        assert_eq!(e.state().int(r(12)), 0x4008);
    }

    #[test]
    fn no_nested_traps_inside_handler() {
        // Handler itself performs an informing load that misses; it must not
        // re-trap (which would clobber the MHRR and loop forever).
        let mut a = Asm::new();
        let handler = a.label("h");
        a.set_mhar(handler);
        a.li(r(1), 0x4000);
        a.load_inf(r(2), r(1), 0);
        a.halt();
        a.bind(handler).unwrap();
        a.addi(r(10), r(10), 1);
        a.load_inf(r(3), r(1), 64);
        a.jump_mhrr();
        let p = a.assemble().unwrap();
        let mut e = Executor::new(&p);
        e.run(&mut AlwaysMiss, 100).unwrap();
        assert_eq!(e.state().int(r(10)), 1);
        assert!(e.state().halted());
    }

    #[test]
    fn step_info_reports_memory_access() {
        let mut a = Asm::new();
        a.li(r(1), 0x8000);
        a.store(r(1), r(1), 0);
        a.halt();
        let p = a.assemble().unwrap();
        let mut e = Executor::new(&p);
        e.step(&mut NeverMiss).unwrap();
        let info = e.step(&mut NeverMiss).unwrap();
        let m = info.mem.expect("store accesses memory");
        assert_eq!(m.addr, 0x8000);
        assert!(m.is_store);
        assert!(!m.l1_miss);
    }

    #[test]
    fn step_after_halt_is_idempotent() {
        let mut a = Asm::new();
        a.halt();
        let p = a.assemble().unwrap();
        let mut e = Executor::new(&p);
        e.step(&mut NeverMiss).unwrap();
        let info = e.step(&mut NeverMiss).unwrap();
        assert_eq!(info.control, ControlFlow::Halt);
        assert_eq!(e.state().pc(), crate::program::TEXT_BASE);
    }

    #[test]
    fn invalid_pc_is_reported() {
        let mut a = Asm::new();
        a.nop(); // falls off the end
        let p = a.assemble().unwrap();
        let mut e = Executor::new(&p);
        e.step(&mut NeverMiss).unwrap();
        assert!(matches!(e.step(&mut NeverMiss), Err(ExecError::InvalidPc(_))));
    }

    #[test]
    fn run_respects_step_limit() {
        let mut a = Asm::new();
        let top = a.here("top");
        a.jump(top);
        let p = a.assemble().unwrap();
        let mut e = Executor::new(&p);
        assert_eq!(e.run(&mut NeverMiss, 10), Err(ExecError::StepLimit(10)));
    }

    #[test]
    fn data_image_preloaded() {
        let mut a = Asm::new();
        a.word(0x3000, 123);
        a.li(r(1), 0x3000);
        a.load(r(2), r(1), 0);
        a.halt();
        let p = a.assemble().unwrap();
        let mut e = Executor::new(&p);
        e.run(&mut NeverMiss, 100).unwrap();
        assert_eq!(e.state().int(r(2)), 123);
    }

    #[test]
    fn jal_jr_call_return() {
        let mut a = Asm::new();
        let func = a.label("func");
        a.jal(func);
        a.halt();
        a.bind(func).unwrap();
        a.li(r(5), 99);
        a.jr(Reg::LINK);
        let p = a.assemble().unwrap();
        let mut e = Executor::new(&p);
        e.run(&mut NeverMiss, 100).unwrap();
        assert_eq!(e.state().int(r(5)), 99);
        assert!(e.state().halted());
    }

    #[test]
    fn handler_can_redirect_its_return() {
        // The multithreading primitive: the handler overwrites the MHRR so
        // JumpMhrr resumes somewhere else (here: straight to `done`).
        let mut a = Asm::new();
        let handler = a.label("h");
        let done = a.label("done");
        a.set_mhar(handler);
        a.li(r(1), 0x4000);
        a.load_inf(r(2), r(1), 0);
        a.addi(r(9), r(9), 1) /* skipped when redirected */;
        a.bind(done).unwrap();
        a.halt();
        a.bind(handler).unwrap();
        a.li(r(3), (crate::program::TEXT_BASE + 16) as i64); // addr of `done`'s halt
        a.set_mhrr_reg(r(3));
        a.jump_mhrr();
        let p = a.assemble().unwrap();
        let mut e = Executor::new(&p);
        e.run(&mut AlwaysMiss, 100).unwrap();
        assert_eq!(e.state().int(r(9)), 0, "redirected return skipped the addi");
        assert!(e.state().halted());
    }

    #[test]
    fn snapshot_mid_run_resumes_identically() {
        // Run half of a trap-heavy program, snapshot, restore through the
        // wire format, and finish both copies: final states must agree.
        let mut a = Asm::new();
        let handler = a.label("h");
        a.set_mhar(handler);
        a.li(r(1), 0x4000);
        let top = a.here("top");
        a.load_inf(r(2), r(1), 0);
        a.addi(r(1), r(1), 64);
        a.addi(r(4), r(4), 1);
        a.branch(Cond::Lt, r(4), r(5), top);
        a.halt();
        a.bind(handler).unwrap();
        a.addi(r(10), r(10), 1);
        a.jump_mhrr();
        let mut a2 = Asm::new();
        a2.li(r(5), 6);
        let p = a.assemble().unwrap();
        drop(a2);

        let mut reference = Executor::new(&p);
        reference.state_mut().set_int(r(5), 6);
        reference.run(&mut AlwaysMiss, 1000).unwrap();

        let mut first = Executor::new(&p);
        first.state_mut().set_int(r(5), 6);
        for _ in 0..9 {
            first.step(&mut AlwaysMiss).unwrap();
        }
        let wire = first.state().to_wire().pretty();
        let instret = first.instret();
        let restored =
            ArchState::from_wire(&imo_util::json::parse(&wire).unwrap()).expect("decodes");
        let mut second = Executor::restore(&p, restored, instret);
        assert_eq!(second.instret(), instret);
        second.run(&mut AlwaysMiss, 1000).unwrap();
        assert_eq!(second.instret(), reference.instret());
        let (a_st, b_st) = (reference.into_state(), second.into_state());
        assert_eq!(a_st.encode(), b_st.encode(), "resumed state bit-identical");
    }

    #[test]
    fn step_plain_run_stops_at_a_control_transfer() {
        let mut a = Asm::new();
        let skip = a.label("skip");
        a.li(r(1), 1);
        a.li(r(2), 2);
        a.branch(Cond::Lt, r(1), r(2), skip); // taken
        a.li(r(3), 3);
        a.li(r(4), 4);
        a.bind(skip).unwrap();
        a.li(r(5), 5);
        a.halt();
        let p = a.assemble().unwrap();
        let mut e = Executor::new(&p);
        let branch_pc = p.entry() + 8;
        assert_eq!(e.step_plain_run(4), Err(ExecError::NotPlain(branch_pc)));
        assert_eq!(e.instret(), 2, "the plain prefix stays executed");
        assert_eq!(e.state().pc(), branch_pc);
        assert_eq!(e.state().int(r(2)), 2);
    }

    #[test]
    fn div_by_zero_yields_zero() {
        let mut a = Asm::new();
        a.li(r(1), 10);
        a.li(r(2), 0);
        a.div(r(3), r(1), r(2));
        a.halt();
        let p = a.assemble().unwrap();
        let mut e = Executor::new(&p);
        e.run(&mut NeverMiss, 100).unwrap();
        assert_eq!(e.state().int(r(3)), 0);
    }
}
