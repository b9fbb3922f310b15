//! The typed event vocabulary shared by every simulation layer.
//!
//! An [`Event`] is a `(cycle, kind)` pair. Kinds are grouped into
//! [`Category`] bits so a [`crate::Recorder`] can enable exactly the streams
//! a tool needs; the category of a kind is fixed ([`EventKind::category`]),
//! which is what makes per-category enable masks cheap: one AND plus one
//! branch on the recording path.

use std::fmt;

/// Which level of the hierarchy served a data reference.
///
/// A deliberately self-contained mirror of `imo_mem::HitLevel` so this crate
/// stays below `imo-mem` in the dependency graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// Primary-cache hit.
    L1,
    /// Primary miss served by the secondary cache.
    L2,
    /// Secondary miss served by main memory.
    Memory,
}

impl ServedBy {
    /// Short stable label used in exports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ServedBy::L1 => "l1_hit",
            ServedBy::L2 => "l1_miss",
            ServedBy::Memory => "l2_miss",
        }
    }
}

/// An event category — one bit of a [`CategoryMask`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Instruction lifecycle: fetch, issue, graduate.
    Pipeline,
    /// Data/instruction cache outcomes.
    Cache,
    /// MSHR allocation and miss merging.
    Mshr,
    /// Informing-trap entry and return.
    Trap,
    /// Coherence protocol traffic (accesses, requests, drops, retries,
    /// invalidations).
    Coherence,
}

impl Category {
    /// Every category, in mask-bit order.
    pub const ALL: [Category; 5] =
        [Category::Pipeline, Category::Cache, Category::Mshr, Category::Trap, Category::Coherence];

    /// This category's bit in a [`CategoryMask`].
    #[must_use]
    pub fn bit(self) -> u32 {
        1 << (self as u32)
    }

    /// Stable lower-case name (also accepted by [`Category::parse`]).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Category::Pipeline => "pipeline",
            Category::Cache => "cache",
            Category::Mshr => "mshr",
            Category::Trap => "trap",
            Category::Coherence => "coherence",
        }
    }

    /// Parses a category name as printed by [`Category::name`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Category> {
        Category::ALL.into_iter().find(|c| c.name() == s)
    }
}

/// A set of enabled [`Category`] bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CategoryMask(u32);

impl CategoryMask {
    /// No categories enabled: the recorder drops everything.
    pub const NONE: CategoryMask = CategoryMask(0);
    /// Every category enabled.
    pub const ALL: CategoryMask = CategoryMask((1 << 5) - 1);

    /// A mask of exactly the given categories.
    #[must_use]
    pub fn of(cats: &[Category]) -> CategoryMask {
        CategoryMask(cats.iter().fold(0, |m, c| m | c.bit()))
    }

    /// Whether `cat` is enabled.
    #[must_use]
    #[inline]
    pub fn contains(self, cat: Category) -> bool {
        self.0 & cat.bit() != 0
    }

    /// Whether the mask is empty (no recording at all).
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Parses a comma-separated category list; `all` and `none` are
    /// accepted as shorthands. Unknown names yield `None`.
    #[must_use]
    pub fn parse(s: &str) -> Option<CategoryMask> {
        match s {
            "all" => Some(CategoryMask::ALL),
            "none" | "" => Some(CategoryMask::NONE),
            _ => {
                let mut mask = CategoryMask::NONE;
                for part in s.split(',') {
                    mask.0 |= Category::parse(part.trim())?.bit();
                }
                Some(mask)
            }
        }
    }
}

impl fmt::Display for CategoryMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("none");
        }
        let mut first = true;
        for c in Category::ALL {
            if self.contains(c) {
                if !first {
                    f.write_str(",")?;
                }
                f.write_str(c.name())?;
                first = false;
            }
        }
        Ok(())
    }
}

/// What happened. Every variant belongs to exactly one [`Category`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An instruction entered the machine (fetched and functionally
    /// executed on the architectural path).
    Fetch {
        /// Dynamic sequence number.
        seq: u64,
        /// Instruction address.
        pc: u64,
    },
    /// An instruction was issued to a functional unit.
    Issue {
        /// Dynamic sequence number.
        seq: u64,
    },
    /// An instruction graduated (committed in order).
    Graduate {
        /// Dynamic sequence number.
        seq: u64,
    },
    /// A data reference probed the hierarchy.
    DataAccess {
        /// Level that served it.
        served: ServedBy,
        /// Address of the memory instruction that issued the reference.
        pc: u64,
        /// Effective (byte) address of the reference.
        addr: u64,
        /// Line-aligned address.
        line: u64,
        /// Whether the reference was a store.
        store: bool,
        /// Whether this was a software-prefetch probe (not a demand
        /// reference; excluded from demand-miss reconciliation).
        prefetch: bool,
        /// Whether the base register of the address was itself produced by
        /// a load (pointer-chase provenance).
        ptr_base: bool,
    },
    /// An instruction-fetch line missed the primary I-cache.
    InstMiss {
        /// Fetch address.
        pc: u64,
    },
    /// An MSHR was allocated for an outstanding miss.
    MshrAllocate {
        /// Line-aligned miss address.
        line: u64,
    },
    /// A miss merged into an already-outstanding fill of the same line.
    MshrMerge {
        /// Line-aligned miss address.
        line: u64,
    },
    /// An informing memory operation missed and redirected fetch into its
    /// handler (includes taken `bmiss` branches).
    TrapEnter {
        /// Sequence number of the trapping operation.
        seq: u64,
        /// Address of the trapping operation.
        pc: u64,
    },
    /// A miss handler returned (`jmhrr` graduated).
    TrapReturn {
        /// Sequence number of the returning jump.
        seq: u64,
    },
    /// A directory protocol request was sent.
    CohRequest {
        /// Requesting processor.
        proc: u32,
        /// Line the request is for.
        line: u64,
    },
    /// A protocol message was dropped by the interconnect.
    CohDrop {
        /// Requesting processor.
        proc: u32,
        /// Line the request was for.
        line: u64,
    },
    /// A dropped request was re-sent after backoff.
    CohRetry {
        /// Requesting processor.
        proc: u32,
        /// Line the request is for.
        line: u64,
        /// Backoff cycles waited before this re-send.
        backoff: u64,
    },
    /// A per-processor data reference probed a private cache in the
    /// coherence simulator (local time; one event per driven op).
    CohAccess {
        /// Referencing processor.
        proc: u32,
        /// Effective (byte) address of the reference.
        addr: u64,
        /// Line-aligned address.
        line: u64,
        /// Whether the reference was a write.
        store: bool,
        /// Level of the private hierarchy that served it.
        served: ServedBy,
    },
    /// A line invalidation was delivered to a remote cache.
    CohInvalidate {
        /// Processor whose cached copy was recalled.
        proc: u32,
        /// Invalidated line.
        line: u64,
    },
}

impl EventKind {
    /// The category this kind records under.
    #[must_use]
    #[inline]
    pub fn category(self) -> Category {
        match self {
            EventKind::Fetch { .. } | EventKind::Issue { .. } | EventKind::Graduate { .. } => {
                Category::Pipeline
            }
            EventKind::DataAccess { .. } | EventKind::InstMiss { .. } => Category::Cache,
            EventKind::MshrAllocate { .. } | EventKind::MshrMerge { .. } => Category::Mshr,
            EventKind::TrapEnter { .. } | EventKind::TrapReturn { .. } => Category::Trap,
            EventKind::CohRequest { .. }
            | EventKind::CohDrop { .. }
            | EventKind::CohRetry { .. }
            | EventKind::CohAccess { .. }
            | EventKind::CohInvalidate { .. } => Category::Coherence,
        }
    }

    /// Short stable name used by the exporters.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Fetch { .. } => "fetch",
            EventKind::Issue { .. } => "issue",
            EventKind::Graduate { .. } => "graduate",
            EventKind::DataAccess { served, .. } => served.label(),
            EventKind::InstMiss { .. } => "inst_miss",
            EventKind::MshrAllocate { .. } => "mshr_alloc",
            EventKind::MshrMerge { .. } => "mshr_merge",
            EventKind::TrapEnter { .. } => "trap_enter",
            EventKind::TrapReturn { .. } => "trap_return",
            EventKind::CohRequest { .. } => "coh_request",
            EventKind::CohDrop { .. } => "coh_drop",
            EventKind::CohRetry { .. } => "coh_retry",
            EventKind::CohAccess { .. } => "coh_access",
            EventKind::CohInvalidate { .. } => "coh_invalidate",
        }
    }

    /// The export track (Chrome trace `tid`) this kind renders on: category
    /// lanes for uniprocessor events, one lane per processor (offset past
    /// the category lanes) for coherence traffic.
    #[must_use]
    pub fn track(self) -> u32 {
        const PROC_LANE_BASE: u32 = 16;
        match self {
            EventKind::CohRequest { proc, .. }
            | EventKind::CohDrop { proc, .. }
            | EventKind::CohRetry { proc, .. }
            | EventKind::CohAccess { proc, .. }
            | EventKind::CohInvalidate { proc, .. } => PROC_LANE_BASE + proc,
            other => other.category() as u32,
        }
    }
}

/// One recorded observation: something happened at a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Simulation cycle (local processor time for coherence events).
    pub cycle: u64,
    /// What happened.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_category_has_a_distinct_bit() {
        let mut seen = 0u32;
        for c in Category::ALL {
            assert_eq!(seen & c.bit(), 0, "{c:?} bit collides");
            seen |= c.bit();
        }
        assert_eq!(CategoryMask::ALL.0, seen);
    }

    #[test]
    fn mask_parse_round_trips() {
        let m = CategoryMask::of(&[Category::Cache, Category::Trap]);
        assert_eq!(CategoryMask::parse(&m.to_string()), Some(m));
        assert_eq!(CategoryMask::parse("all"), Some(CategoryMask::ALL));
        assert_eq!(CategoryMask::parse("none"), Some(CategoryMask::NONE));
        assert_eq!(CategoryMask::parse("bogus"), None);
        assert_eq!(CategoryMask::ALL.to_string(), "pipeline,cache,mshr,trap,coherence");
    }

    #[test]
    fn kinds_map_to_their_categories() {
        assert_eq!(EventKind::Fetch { seq: 0, pc: 0 }.category(), Category::Pipeline);
        assert_eq!(
            EventKind::DataAccess {
                served: ServedBy::L2,
                pc: 0,
                addr: 0,
                line: 0,
                store: false,
                prefetch: false,
                ptr_base: false,
            }
            .category(),
            Category::Cache
        );
        assert_eq!(
            EventKind::CohAccess { proc: 1, addr: 0, line: 0, store: true, served: ServedBy::L1 }
                .category(),
            Category::Coherence
        );
        assert_eq!(EventKind::MshrMerge { line: 0 }.category(), Category::Mshr);
        assert_eq!(EventKind::TrapEnter { seq: 0, pc: 0 }.category(), Category::Trap);
        assert_eq!(EventKind::CohDrop { proc: 3, line: 0 }.category(), Category::Coherence);
    }

    #[test]
    fn coherence_events_get_per_proc_tracks() {
        assert_eq!(EventKind::CohRequest { proc: 5, line: 0 }.track(), 21);
        assert_eq!(EventKind::Fetch { seq: 0, pc: 0 }.track(), 0);
        assert_eq!(EventKind::MshrAllocate { line: 0 }.track(), Category::Mshr as u32);
    }
}
