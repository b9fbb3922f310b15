//! Pre-decoded basic blocks over a program's text segment.
//!
//! [`BlockCache::build`] partitions the text segment once, at program load,
//! into straight-line blocks ended by control transfers, trap-capable
//! informing memory operations, and `halt`. Alongside the block table it
//! pre-decodes one [`InstrMeta`] per instruction — flat register slots,
//! functional-unit class, latency, and a flag byte — so the timing cores'
//! hot issue loops can drive scheduling from dense table lookups instead of
//! re-matching the `Instr` enum every cycle.
//!
//! The cache is a pure acceleration structure: it carries no architectural
//! state, is never snapshotted, and everything in it is derivable from the
//! `Program` it was built from.

use crate::instr::{FuClass, Instr};
use crate::program::{Program, TEXT_BASE};

/// Sentinel register slot meaning "no register" (`r0` destinations are also
/// folded here, matching [`Instr::dest`]).
pub const NO_REG: u8 = 0xFF;

/// Blocks are capped at this many instructions so per-block bitmasks fit in
/// one `u64` word.
pub const MAX_BLOCK_LEN: usize = 64;

/// Pre-decoded per-instruction metadata (8 bytes).
///
/// Register fields are flat [`crate::Reg::logical`] slots (0–31 integer,
/// 32–63 FP) with [`NO_REG`] for "none"; sources appear in
/// [`Instr::sources`] order (for stores: base, then the stored value).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrMeta {
    /// First source register slot, or [`NO_REG`].
    pub src1: u8,
    /// Second source register slot, or [`NO_REG`].
    pub src2: u8,
    /// Destination register slot, or [`NO_REG`].
    pub dest: u8,
    /// Functional-unit class: 0 = Int, 1 = Fp, 2 = Branch, 3 = Mem.
    pub fu: u8,
    /// Memory/exit shape: one of the `KIND_*` constants.
    pub kind: u8,
    /// Flag bits (`ENDS_BLOCK`, `MEM`, …).
    pub flags: u8,
    /// Execution latency in cycles on the machine the cache was built for
    /// (the largest Table-1 latency, integer divide, is 76, so `u8` fits).
    pub lat: u8,
}

impl InstrMeta {
    /// The instruction terminates a straight-line block (control transfer,
    /// trap-capable informing memory operation, or halt).
    pub const ENDS_BLOCK: u8 = 1 << 0;
    /// Load, store or prefetch (occupies the memory pipe).
    pub const MEM: u8 = 1 << 1;
    /// Load or store (sets the cache-outcome condition code).
    pub const DATA_REF: u8 = 1 << 2;
    /// Informing load or store (may trap on a primary miss).
    pub const INFORMING: u8 = 1 << 3;
    /// A conditional [`Instr::Branch`] (the predictor sees it).
    pub const COND_BRANCH: u8 = 1 << 4;
    /// [`Instr::BranchOnMiss`] — issue must additionally wait for the
    /// previous memory operation's outcome cycle.
    pub const BMISS: u8 = 1 << 5;
    /// [`Instr::Halt`].
    pub const HALT: u8 = 1 << 6;
    /// [`Instr::BranchOnMemMiss`] — like [`InstrMeta::BMISS`], but on the
    /// previous data reference's secondary-cache outcome.
    pub const BMISS_MEM: u8 = 1 << 7;

    /// `kind` value for non-memory instructions.
    pub const KIND_OTHER: u8 = 0;
    /// `kind` value for loads.
    pub const KIND_LOAD: u8 = 1;
    /// `kind` value for stores.
    pub const KIND_STORE: u8 = 2;
    /// `kind` value for prefetches.
    pub const KIND_PREFETCH: u8 = 3;
    /// `kind` value for halt.
    pub const KIND_HALT: u8 = 4;

    fn of(instr: &Instr, lat: u8) -> InstrMeta {
        let mut srcs = instr.sources();
        let src1 = srcs.next().map_or(NO_REG, |r| r.logical() as u8);
        let src2 = srcs.next().map_or(NO_REG, |r| r.logical() as u8);
        let dest = instr.dest().map_or(NO_REG, |r| r.logical() as u8);
        let fu = match instr.fu_class() {
            FuClass::Int => 0,
            FuClass::Fp => 1,
            FuClass::Branch => 2,
            FuClass::Mem => 3,
        };
        let kind = match instr {
            Instr::Load { .. } => InstrMeta::KIND_LOAD,
            Instr::Store { .. } => InstrMeta::KIND_STORE,
            Instr::Prefetch { .. } => InstrMeta::KIND_PREFETCH,
            Instr::Halt => InstrMeta::KIND_HALT,
            _ => InstrMeta::KIND_OTHER,
        };
        let mut flags = 0;
        if instr.is_control() || instr.is_informing() || matches!(instr, Instr::Halt) {
            flags |= InstrMeta::ENDS_BLOCK;
        }
        if instr.is_mem() {
            flags |= InstrMeta::MEM;
        }
        if instr.is_data_ref() {
            flags |= InstrMeta::DATA_REF;
        }
        if instr.is_informing() {
            flags |= InstrMeta::INFORMING;
        }
        if matches!(instr, Instr::Branch { .. }) {
            flags |= InstrMeta::COND_BRANCH;
        }
        if matches!(instr, Instr::BranchOnMiss { .. }) {
            flags |= InstrMeta::BMISS;
        }
        if matches!(instr, Instr::Halt) {
            flags |= InstrMeta::HALT;
        }
        if matches!(instr, Instr::BranchOnMemMiss { .. }) {
            flags |= InstrMeta::BMISS_MEM;
        }
        InstrMeta { src1, src2, dest, fu, kind, flags, lat }
    }

    /// Whether the instruction is "plain": no memory access, no control
    /// transfer, no trap — the shape the batch fetch path streams through
    /// [`crate::exec::Executor::step_plain_run`] without consulting an
    /// oracle.
    #[inline]
    pub fn is_plain(&self) -> bool {
        self.flags & (InstrMeta::MEM | InstrMeta::ENDS_BLOCK) == 0
    }
}

/// One straight-line block: a run of instructions with no control entry or
/// exit except at its boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// Index of the first instruction (units of one instruction).
    pub start: u32,
    /// Number of instructions (1..=[`MAX_BLOCK_LEN`]).
    pub len: u32,
    /// Bitmask over flat register slots read anywhere in the block.
    pub reads: u64,
    /// Bitmask over flat register slots written anywhere in the block.
    pub writes: u64,
    /// Bit *i* set ⇔ the block's *i*-th instruction is a memory operation.
    pub mem_slots: u64,
    /// Number of memory operations in the block.
    pub mem_ops: u32,
}

impl Block {
    /// Text address of the block's first instruction.
    #[inline]
    pub fn addr(&self) -> u64 {
        Program::addr_of(self.start as usize)
    }

    /// Index one past the block's last instruction.
    #[inline]
    pub fn end(&self) -> u32 {
        self.start + self.len
    }
}

/// The pre-decoded block table for one program, built once at load.
#[derive(Debug, Clone, Default)]
pub struct BlockCache {
    meta: Vec<InstrMeta>,
    block_of: Vec<u32>,
    blocks: Vec<Block>,
    /// `plain_len[i]` = number of consecutive plain instructions starting at
    /// `i` (0 when instruction `i` is not plain itself). Lets the batch
    /// fetch path size a run with one lookup instead of an O(k) meta scan.
    plain_len: Vec<u32>,
    /// `dest_bit[i]` = `1 << meta[i].dest`, or 0 for no destination — the
    /// taint-mask update over a plain run reduces to an or-fold over this
    /// table.
    dest_bit: Vec<u64>,
}

impl BlockCache {
    /// Decodes `program` into per-instruction metadata and basic blocks.
    ///
    /// `latency` supplies the per-instruction execution latency (the timing
    /// cores pass their machine's Table-1 latency function, keeping that
    /// table single-sourced in the CPU configuration).
    pub fn build(program: &Program, latency: impl Fn(&Instr) -> u64) -> BlockCache {
        let instrs = program.instrs();
        let mut meta = Vec::with_capacity(instrs.len());
        for i in instrs {
            meta.push(InstrMeta::of(i, latency(i).min(u8::MAX as u64) as u8));
        }
        let mut blocks = Vec::new();
        let mut block_of = vec![0u32; instrs.len()];
        let mut start = 0usize;
        for idx in 0..instrs.len() {
            let len = idx + 1 - start;
            let closes = meta[idx].flags & InstrMeta::ENDS_BLOCK != 0
                || len == MAX_BLOCK_LEN
                || idx + 1 == instrs.len();
            if !closes {
                continue;
            }
            let (mut reads, mut writes, mut mem_slots, mut mem_ops) = (0u64, 0u64, 0u64, 0u32);
            for (j, m) in meta[start..=idx].iter().enumerate() {
                for s in [m.src1, m.src2] {
                    if s != NO_REG {
                        reads |= 1 << s;
                    }
                }
                if m.dest != NO_REG {
                    writes |= 1 << m.dest;
                }
                if m.flags & InstrMeta::MEM != 0 {
                    mem_slots |= 1 << j;
                    mem_ops += 1;
                }
            }
            let b = blocks.len() as u32;
            for slot in &mut block_of[start..=idx] {
                *slot = b;
            }
            blocks.push(Block {
                start: start as u32,
                len: len as u32,
                reads,
                writes,
                mem_slots,
                mem_ops,
            });
            start = idx + 1;
        }
        let mut plain_len = vec![0u32; meta.len()];
        for i in (0..meta.len()).rev() {
            if meta[i].is_plain() {
                plain_len[i] = 1 + plain_len.get(i + 1).copied().unwrap_or(0);
            }
        }
        let dest_bit =
            meta.iter().map(|m| if m.dest == NO_REG { 0 } else { 1u64 << m.dest }).collect();
        BlockCache { meta, block_of, blocks, plain_len, dest_bit }
    }

    /// Instruction index of `addr`, or `None` outside the text segment (same
    /// address arithmetic as [`Program::fetch`]).
    #[inline]
    pub fn index_of(&self, addr: u64) -> Option<usize> {
        let off = addr.wrapping_sub(TEXT_BASE);
        if off & 3 != 0 {
            return None;
        }
        let idx = (off >> 2) as usize;
        (idx < self.meta.len()).then_some(idx)
    }

    /// Pre-decoded metadata by instruction index.
    #[inline]
    pub fn meta_idx(&self, idx: usize) -> &InstrMeta {
        &self.meta[idx]
    }

    /// All per-instruction metadata in text order.
    #[inline]
    pub fn meta(&self) -> &[InstrMeta] {
        &self.meta
    }

    /// Length of the plain run starting at instruction index `idx` (0 when
    /// that instruction is not plain).
    #[inline]
    pub fn plain_run_len(&self, idx: usize) -> u32 {
        self.plain_len[idx]
    }

    /// Destination-register bits (`1 << dest`, or 0 for none) for the
    /// instructions `idx..idx + k` in text order.
    #[inline]
    pub fn dest_bits(&self, idx: usize, k: usize) -> &[u64] {
        &self.dest_bit[idx..idx + k]
    }

    /// Index of the block containing instruction index `idx`.
    #[inline]
    pub fn block_index(&self, idx: usize) -> u32 {
        self.block_of[idx]
    }

    /// The block containing the instruction at `addr`.
    #[inline]
    pub fn block_at(&self, addr: u64) -> Option<&Block> {
        self.index_of(addr).map(|i| &self.blocks[self.block_of[i] as usize])
    }

    /// All blocks in text order.
    #[inline]
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Number of decoded instructions.
    #[inline]
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// Whether the program had no instructions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::instr::Cond;
    use crate::reg::Reg;

    fn r(i: u8) -> Reg {
        Reg::int(i)
    }

    fn flat_lat(_: &Instr) -> u64 {
        1
    }

    #[test]
    fn blocks_end_at_control_informing_and_halt() {
        let mut a = Asm::new();
        a.li(r(1), 1); // block 0: li, add, branch
        a.add(r(2), r(1), r(1));
        let top = a.here("top");
        a.branch(Cond::Eq, r(1), r(2), top);
        a.li(r(3), 3); // block 1: li, ld.inf (informing ends it)
        a.load_inf(r(4), r(3), 0);
        a.load(r(5), r(3), 8); // block 2: plain load, halt
        a.halt();
        let p = a.assemble().unwrap();
        let c = BlockCache::build(&p, flat_lat);
        assert_eq!(c.len(), p.len());
        let lens: Vec<u32> = c.blocks().iter().map(|b| b.len).collect();
        assert_eq!(lens, [3, 2, 2]);
        // Normal loads do not end blocks; informing ones do.
        let ld_inf = c.meta_idx(4);
        assert_ne!(ld_inf.flags & InstrMeta::ENDS_BLOCK, 0);
        assert_ne!(ld_inf.flags & InstrMeta::INFORMING, 0);
        let ld = c.meta_idx(5);
        assert_eq!(ld.flags & InstrMeta::ENDS_BLOCK, 0);
        assert_eq!(ld.kind, InstrMeta::KIND_LOAD);
    }

    #[test]
    fn meta_matches_instr_accessors() {
        let mut a = Asm::new();
        a.store(r(5), r(6), 8);
        a.add(Reg::ZERO, r(1), r(2)); // dest r0 → NO_REG
        a.fadd(Reg::fp(1), Reg::fp(2), Reg::fp(3));
        a.halt();
        let p = a.assemble().unwrap();
        let c = BlockCache::build(&p, |i| match i.fu_class() {
            FuClass::Fp => 4,
            _ => 1,
        });
        let st = c.meta_idx(0);
        assert_eq!((st.src1, st.src2), (6, 5), "store sources are (base, rs)");
        assert_eq!(st.dest, NO_REG);
        assert_eq!(st.kind, InstrMeta::KIND_STORE);
        assert_ne!(st.flags & InstrMeta::DATA_REF, 0);
        let add = c.meta_idx(1);
        assert_eq!(add.dest, NO_REG);
        assert!(add.is_plain());
        let fadd = c.meta_idx(2);
        assert_eq!(fadd.fu, 1);
        assert_eq!(fadd.lat, 4);
        assert_eq!(fadd.dest, 32 + 1, "fp slots start at 32");
        let halt = c.meta_idx(3);
        assert_ne!(halt.flags & InstrMeta::HALT, 0);
        assert_eq!(halt.kind, InstrMeta::KIND_HALT);
    }

    #[test]
    fn miss_branches_carry_distinct_flags() {
        let mut a = Asm::new();
        let h = a.label("h");
        a.branch_on_miss(h);
        a.branch_on_mem_miss(h);
        a.bind(h).unwrap();
        a.halt();
        let p = a.assemble().unwrap();
        let c = BlockCache::build(&p, flat_lat);
        let flags = |i| c.meta_idx(i).flags & (InstrMeta::BMISS | InstrMeta::BMISS_MEM);
        assert_eq!(flags(0), InstrMeta::BMISS);
        assert_eq!(flags(1), InstrMeta::BMISS_MEM);
        assert_eq!(flags(2), 0);
    }

    #[test]
    fn block_masks_cover_members() {
        let mut a = Asm::new();
        a.li(r(1), 7);
        a.add(r(2), r(1), r(1));
        a.load(r(3), r(2), 0);
        a.halt();
        let p = a.assemble().unwrap();
        let c = BlockCache::build(&p, flat_lat);
        assert_eq!(c.blocks().len(), 1);
        let b = c.blocks()[0];
        assert_eq!(b.len, 4);
        assert_eq!(b.reads, (1 << 1) | (1 << 2));
        assert_eq!(b.writes, (1 << 1) | (1 << 2) | (1 << 3));
        assert_eq!(b.mem_slots, 1 << 2);
        assert_eq!(b.mem_ops, 1);
        assert_eq!(b.addr(), TEXT_BASE);
    }

    #[test]
    fn lookup_mirrors_program_fetch() {
        let mut a = Asm::new();
        a.nop();
        a.halt();
        let p = a.assemble().unwrap();
        let c = BlockCache::build(&p, flat_lat);
        assert_eq!(c.index_of(TEXT_BASE), Some(0));
        assert_eq!(c.index_of(TEXT_BASE + 4), Some(1));
        assert!(c.index_of(TEXT_BASE + 8).is_none(), "past end");
        assert!(c.index_of(TEXT_BASE + 2).is_none(), "unaligned");
        assert!(c.index_of(0).is_none(), "below base");
        assert!(c.block_at(TEXT_BASE).is_some());
    }

    #[test]
    fn long_straight_runs_split_at_the_mask_cap() {
        let mut a = Asm::new();
        for _ in 0..(MAX_BLOCK_LEN + 10) {
            a.nop();
        }
        a.halt();
        let p = a.assemble().unwrap();
        let c = BlockCache::build(&p, flat_lat);
        let lens: Vec<u32> = c.blocks().iter().map(|b| b.len).collect();
        assert_eq!(lens, [MAX_BLOCK_LEN as u32, 11]);
        assert_eq!(c.block_index(0), 0);
        assert_eq!(c.block_index(MAX_BLOCK_LEN), 1);
    }
}
