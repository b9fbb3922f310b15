//! Streaming "why did this miss" attribution over the event stream.
//!
//! An [`Attribution`] analyzer folds [`EventKind::DataAccess`] /
//! [`EventKind::CohAccess`] / [`EventKind::CohInvalidate`] events — fed to
//! it by the [`crate::Recorder`] *before* the category mask and ring
//! buffer, so masking and eviction can never skew it — into:
//!
//! - a per-PC hot-miss table with reuse-distance histograms and an
//!   access-pattern taxonomy ([`crate::pattern`]),
//! - an exact four-way miss classification (compulsory / coherence /
//!   capacity / conflict) computed from an online reuse-distance sketch
//!   (a Fenwick tree over a circular window of recent accesses) plus
//!   per-set pressure tracking,
//! - a versioned [`MissProfile`] emitted as ordered JSON, an aligned text
//!   [`imo_util::Table`], and a Perfetto-loadable Chrome-trace twin.
//!
//! **Reconciliation invariant:** every demand miss event is classified into
//! exactly one class, so the class totals sum *exactly* to the cache's own
//! demand-miss counters. Prefetch probes touch the sketch (they change
//! which lines are warm) but are never classified and never counted as
//! demand traffic. The analyzer is strictly passive: it never feeds back
//! into simulation state.
//!
//! Classification rules, applied in order to each demand miss:
//!
//! 1. first-ever access to the line → **compulsory**;
//! 2. the line was invalidated by the coherence protocol since this
//!    stream last touched it → **coherence**;
//! 3. reuse distance (distinct lines touched since the last access) is at
//!    least the L1 capacity in lines, or the last access aged out of the
//!    sketch window → **capacity**;
//! 4. otherwise (the line was recently reused but still missed — it lost
//!    its set to competing lines) → **conflict**.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use imo_util::{Json, Table};

use crate::event::{EventKind, ServedBy};
use crate::pattern::{Pattern, PatternDetector};

/// Version stamp carried by every [`MissProfile`] JSON document.
pub const PROFILE_VERSION: u64 = 1;

/// Default reuse-sketch window (accesses) when a config does not derive one
/// from cache geometry.
pub const DEFAULT_WINDOW: usize = 1 << 15;

/// Reuse-distance histogram bucket count: `{0, 1, 2-3, 4-7, …, >=2^15}`.
pub const DIST_BUCKETS: usize = 17;

/// Why a demand reference missed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissClass {
    /// First-ever access to the line (cold miss).
    Compulsory,
    /// The line was invalidated by the coherence protocol since the last
    /// access from this stream.
    Coherence,
    /// The reuse distance exceeded the cache capacity in lines (or aged
    /// out of the sketch window entirely).
    Capacity,
    /// Reused recently yet missed: evicted by set conflict.
    Conflict,
}

impl MissClass {
    /// All classes, in profile order.
    pub const ALL: [MissClass; 4] =
        [MissClass::Compulsory, MissClass::Coherence, MissClass::Capacity, MissClass::Conflict];

    /// Stable lower-case name used in JSON profiles and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MissClass::Compulsory => "compulsory",
            MissClass::Coherence => "coherence",
            MissClass::Capacity => "capacity",
            MissClass::Conflict => "conflict",
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

/// Analyzer geometry and reporting knobs, derived from the L1 D-cache the
/// stream being attributed actually probes.
#[derive(Debug, Clone)]
pub struct AttribConfig {
    /// L1 capacity in lines — the capacity/conflict threshold.
    pub l1_lines: u64,
    /// L1 set count for set-pressure tracking.
    pub l1_sets: u64,
    /// Line size in bytes (maps addresses to sets).
    pub line_bytes: u64,
    /// Reuse-sketch window in accesses; older last-touches age out and
    /// classify as capacity.
    pub window: usize,
    /// How many hot PCs the emitted profile retains.
    pub top_pcs: usize,
}

impl AttribConfig {
    /// Derives a config from L1 D-cache geometry: the sketch window is
    /// sized at 16× the capacity in lines (clamped to `[1024, 65536]`) so
    /// capacity misses are measurable without unbounded state.
    #[must_use]
    pub fn for_l1(size_bytes: u64, assoc: u64, line_bytes: u64) -> AttribConfig {
        let line_bytes = line_bytes.max(1);
        let assoc = assoc.max(1);
        let l1_lines = (size_bytes / line_bytes).max(1);
        let window =
            usize::try_from(l1_lines.saturating_mul(16)).unwrap_or(usize::MAX).clamp(1024, 1 << 16);
        AttribConfig {
            l1_lines,
            l1_sets: (l1_lines / assoc).max(1),
            line_bytes,
            window: window.next_power_of_two(),
            top_pcs: 32,
        }
    }
}

impl Default for AttribConfig {
    fn default() -> AttribConfig {
        AttribConfig {
            l1_lines: 256,
            l1_sets: 256,
            line_bytes: 32,
            window: DEFAULT_WINDOW,
            top_pcs: 32,
        }
    }
}

/// Reuse information for one access, reported by the sketch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reuse {
    /// First-ever access to this line.
    First,
    /// Distinct lines touched since the previous access to this line.
    Within(u64),
    /// The previous access fell out of the sketch window.
    AgedOut,
}

/// Point-update / prefix-sum tree over the circular window slots.
#[derive(Debug, Clone)]
struct Fenwick {
    tree: Vec<i64>,
}

impl Fenwick {
    fn new(n: usize) -> Fenwick {
        Fenwick { tree: vec![0; n + 1] }
    }

    fn add(&mut self, mut i: usize, v: i64) {
        i += 1;
        while i < self.tree.len() {
            self.tree[i] += v;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of slots `[0, i)`.
    fn prefix(&self, mut i: usize) -> i64 {
        let mut s = 0;
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    }

    /// Sum of slots `[a, b)`.
    fn range(&self, a: usize, b: usize) -> i64 {
        if b <= a {
            0
        } else {
            self.prefix(b) - self.prefix(a)
        }
    }
}

/// Hashes line addresses with the splitmix64 finalizer. It carries no
/// per-process seed, so a table built by the same access sequence has the
/// same layout on every run, and it costs a few multiplies where the
/// default SipHash would dominate the once-per-access line lookup.
#[derive(Debug, Clone, Copy, Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

#[derive(Debug, Clone, Copy)]
struct LineInfo {
    /// Global access index of the last touch (valid only when `seen`).
    last_t: u64,
    /// Whether the line has ever been touched by this stream.
    seen: bool,
    /// Whether the coherence protocol invalidated it since the last touch.
    invalidated: bool,
}

/// Online reuse-distance sketch: exact distinct-lines-since-last-access
/// within a circular window of the most recent `window` accesses, O(log
/// window) per access, bounded marker state.
#[derive(Debug, Clone)]
struct ReuseSketch {
    window: usize,
    /// Global access counter.
    t: u64,
    /// One potential marker per window slot: marks the *most recent*
    /// position of some line.
    fen: Fenwick,
    slot_line: Vec<Option<u64>>,
    /// Per-line state; looked up, never iterated.
    lines: HashMap<u64, LineInfo, BuildHasherDefault<LineHasher>>,
}

impl ReuseSketch {
    fn new(window: usize) -> ReuseSketch {
        let window = window.max(2);
        ReuseSketch {
            window,
            t: 0,
            fen: Fenwick::new(window),
            slot_line: vec![None; window],
            lines: HashMap::default(),
        }
    }

    /// Marks a coherence invalidation of `line`.
    fn invalidate(&mut self, line: u64) {
        let info = self.lines.entry(line).or_insert(LineInfo {
            last_t: 0,
            seen: false,
            invalidated: false,
        });
        info.invalidated = true;
    }

    /// Counts markers for positions strictly between `lt` and `t` on the
    /// circular slot array (range length is < window by construction).
    fn marks_between(&self, lt: u64, t: u64) -> u64 {
        let len = (t - lt - 1) as usize;
        if len == 0 {
            return 0;
        }
        let a = ((lt + 1) % self.window as u64) as usize;
        let count = if a + len <= self.window {
            self.fen.range(a, a + len)
        } else {
            self.fen.range(a, self.window) + self.fen.range(0, a + len - self.window)
        };
        count as u64
    }

    /// Advances the stream by one access to `line`; returns the reuse
    /// classification for this access and whether the line had been
    /// invalidated since its previous touch (flag is consumed).
    fn touch(&mut self, line: u64) -> (Reuse, bool) {
        let t = self.t;
        let w = self.window as u64;
        let slot = (t % w) as usize;
        // Retire the marker whose slot this access reuses (the line last
        // touched exactly `window` accesses ago).
        if self.slot_line[slot].take().is_some() {
            self.fen.add(slot, -1);
        }
        let info = self.lines.entry(line).or_insert(LineInfo {
            last_t: 0,
            seen: false,
            invalidated: false,
        });
        let prev = *info;
        *info = LineInfo { last_t: t, seen: true, invalidated: false };
        let reuse = if !prev.seen {
            Reuse::First
        } else if t - prev.last_t > w {
            Reuse::AgedOut
        } else {
            Reuse::Within(self.marks_between(prev.last_t, t))
        };
        // Move this line's marker to the current slot.
        if prev.seen && t - prev.last_t < w {
            let old = (prev.last_t % w) as usize;
            if self.slot_line[old] == Some(line) {
                self.slot_line[old] = None;
                self.fen.add(old, -1);
            }
        }
        self.slot_line[slot] = Some(line);
        self.fen.add(slot, 1);
        self.t += 1;
        (reuse, prev.invalidated)
    }
}

fn classify(reuse: Reuse, invalidated: bool, l1_lines: u64) -> MissClass {
    match reuse {
        Reuse::First => MissClass::Compulsory,
        _ if invalidated => MissClass::Coherence,
        Reuse::AgedOut => MissClass::Capacity,
        Reuse::Within(d) if d >= l1_lines => MissClass::Capacity,
        Reuse::Within(_) => MissClass::Conflict,
    }
}

/// Power-of-two reuse-distance histogram: buckets `0, 1, 2-3, 4-7, …`.
#[derive(Debug, Clone)]
struct DistHist {
    buckets: [u64; DIST_BUCKETS],
}

impl DistHist {
    fn new() -> DistHist {
        DistHist { buckets: [0; DIST_BUCKETS] }
    }

    fn record(&mut self, d: u64) {
        let b = if d == 0 { 0 } else { (64 - d.leading_zeros()) as usize };
        self.buckets[b.min(DIST_BUCKETS - 1)] += 1;
    }
}

/// One attribution stream: a reuse sketch plus class/set accounting. The
/// CPU hierarchy is one stream; each coherence processor is another.
#[derive(Debug, Clone)]
struct Stream {
    sketch: ReuseSketch,
    classes: [u64; 4],
    demand_refs: u64,
    demand_misses: u64,
    /// Demand references that missed both levels (served by memory).
    mem_served: u64,
    set_refs: Vec<u64>,
    set_misses: Vec<u64>,
}

impl Stream {
    fn new(cfg: &AttribConfig) -> Stream {
        let sets = usize::try_from(cfg.l1_sets).unwrap_or(1).max(1);
        Stream {
            sketch: ReuseSketch::new(cfg.window),
            classes: [0; 4],
            demand_refs: 0,
            demand_misses: 0,
            mem_served: 0,
            set_refs: vec![0; sets],
            set_misses: vec![0; sets],
        }
    }

    fn set_of(&self, line: u64, cfg: &AttribConfig) -> usize {
        ((line / cfg.line_bytes) % cfg.l1_sets.max(1)) as usize
    }

    /// Feeds one demand reference; returns the miss class when it missed.
    fn demand(
        &mut self,
        line: u64,
        served: ServedBy,
        cfg: &AttribConfig,
    ) -> (Option<MissClass>, Reuse) {
        self.demand_refs += 1;
        let set = self.set_of(line, cfg);
        self.set_refs[set] += 1;
        let (reuse, invalidated) = self.sketch.touch(line);
        if served == ServedBy::L1 {
            return (None, reuse);
        }
        self.demand_misses += 1;
        self.set_misses[set] += 1;
        if served == ServedBy::Memory {
            self.mem_served += 1;
        }
        let class = classify(reuse, invalidated, cfg.l1_lines);
        self.classes[class.idx()] += 1;
        (Some(class), reuse)
    }

    fn classified_total(&self) -> u64 {
        self.classes.iter().sum()
    }
}

/// Per-PC accounting feeding the hot-miss table.
#[derive(Debug, Clone)]
struct PcStats {
    refs: u64,
    misses: u64,
    stores: u64,
    classes: [u64; 4],
    l2_served: u64,
    mem_served: u64,
    dist: DistHist,
    pattern: PatternDetector,
}

impl PcStats {
    fn new() -> PcStats {
        PcStats {
            refs: 0,
            misses: 0,
            stores: 0,
            classes: [0; 4],
            l2_served: 0,
            mem_served: 0,
            dist: DistHist::new(),
            pattern: PatternDetector::new(),
        }
    }
}

/// The streaming analyzer. Owned by a [`crate::Recorder`] and fed every
/// event before masking, or driven directly via [`Attribution::on_event`].
#[derive(Debug, Clone)]
pub struct Attribution {
    cfg: AttribConfig,
    cpu: Stream,
    pcs: BTreeMap<u64, PcStats>,
    coh: BTreeMap<u32, Stream>,
    prefetch_probes: u64,
}

impl Attribution {
    /// A fresh analyzer for the given geometry.
    #[must_use]
    pub fn new(cfg: AttribConfig) -> Attribution {
        let cpu = Stream::new(&cfg);
        Attribution { cfg, cpu, pcs: BTreeMap::new(), coh: BTreeMap::new(), prefetch_probes: 0 }
    }

    /// The analyzer's geometry.
    #[must_use]
    pub fn config(&self) -> &AttribConfig {
        &self.cfg
    }

    /// Folds one event. Non-memory events are ignored in O(1).
    #[inline]
    pub fn on_event(&mut self, kind: &EventKind) {
        match *kind {
            EventKind::DataAccess { served, pc, addr, line, store, prefetch, ptr_base } => {
                if prefetch {
                    // Prefetches warm the sketch (they change which lines
                    // are resident) but are not demand traffic: never
                    // classified, never reconciled.
                    self.prefetch_probes += 1;
                    self.cpu.sketch.touch(line);
                    return;
                }
                let (class, reuse) = self.cpu.demand(line, served, &self.cfg);
                let pc_stats = self.pcs.entry(pc).or_insert_with(PcStats::new);
                pc_stats.refs += 1;
                if store {
                    pc_stats.stores += 1;
                }
                pc_stats.pattern.observe(addr, ptr_base);
                if let Some(class) = class {
                    pc_stats.misses += 1;
                    pc_stats.classes[class.idx()] += 1;
                    match served {
                        ServedBy::L2 => pc_stats.l2_served += 1,
                        ServedBy::Memory => pc_stats.mem_served += 1,
                        ServedBy::L1 => {}
                    }
                    if let Reuse::Within(d) = reuse {
                        pc_stats.dist.record(d);
                    }
                }
            }
            EventKind::CohAccess { proc, line, served, .. } => {
                let cfg = &self.cfg;
                let stream = self.coh.entry(proc).or_insert_with(|| Stream::new(cfg));
                stream.demand(line, served, cfg);
            }
            EventKind::CohInvalidate { proc, line } => {
                let cfg = &self.cfg;
                let stream = self.coh.entry(proc).or_insert_with(|| Stream::new(cfg));
                stream.sketch.invalidate(line);
            }
            _ => {}
        }
    }

    /// Demand references seen on the CPU stream.
    #[must_use]
    pub fn cpu_demand_refs(&self) -> u64 {
        self.cpu.demand_refs
    }

    /// Demand misses seen (and classified) on the CPU stream.
    #[must_use]
    pub fn cpu_demand_misses(&self) -> u64 {
        self.cpu.demand_misses
    }

    /// Demand references served by memory (missed both levels).
    #[must_use]
    pub fn cpu_l2_misses(&self) -> u64 {
        self.cpu.mem_served
    }

    /// CPU per-class totals in [`MissClass::ALL`] order.
    #[must_use]
    pub fn cpu_classes(&self) -> [u64; 4] {
        self.cpu.classes
    }

    /// Sum of the CPU per-class totals — must equal
    /// [`Attribution::cpu_demand_misses`] (and the cache's own counter).
    #[must_use]
    pub fn cpu_classified_total(&self) -> u64 {
        self.cpu.classified_total()
    }

    /// Prefetch probes seen (excluded from demand accounting).
    #[must_use]
    pub fn prefetch_probes(&self) -> u64 {
        self.prefetch_probes
    }

    /// Total L1 misses across all coherence processor streams.
    #[must_use]
    pub fn coh_l1_misses(&self) -> u64 {
        self.coh.values().map(|s| s.demand_misses).sum()
    }

    /// Total L2 misses (memory-served) across all coherence streams.
    #[must_use]
    pub fn coh_l2_misses(&self) -> u64 {
        self.coh.values().map(|s| s.mem_served).sum()
    }

    /// Sum of per-class totals across all coherence streams.
    #[must_use]
    pub fn coh_classified_total(&self) -> u64 {
        self.coh.values().map(Stream::classified_total).sum()
    }

    /// Aggregate per-class totals across all coherence streams.
    #[must_use]
    pub fn coh_classes(&self) -> [u64; 4] {
        let mut out = [0u64; 4];
        for s in self.coh.values() {
            for (o, c) in out.iter_mut().zip(s.classes.iter()) {
                *o += c;
            }
        }
        out
    }

    /// Exact reconciliation against the simulator's own counters: every
    /// demand miss classified exactly once.
    #[must_use]
    pub fn reconciles_cpu(&self, l1d_misses: u64, l2_misses: u64) -> bool {
        self.cpu.demand_misses == l1d_misses
            && self.cpu.classified_total() == l1d_misses
            && self.cpu.mem_served == l2_misses
    }

    /// Exact reconciliation against the coherence simulator's counters.
    #[must_use]
    pub fn reconciles_coh(&self, l1_misses: u64, l2_misses: u64) -> bool {
        self.coh_l1_misses() == l1_misses
            && self.coh_classified_total() == l1_misses
            && self.coh_l2_misses() == l2_misses
    }

    /// Builds the versioned profile snapshot, hot PCs ranked by misses
    /// (then PC for determinism) and truncated to `cfg.top_pcs`.
    #[must_use]
    pub fn profile(&self, label: &str) -> MissProfile {
        let mut pcs: Vec<PcProfile> = self
            .pcs
            .iter()
            .map(|(&pc, s)| PcProfile {
                pc,
                refs: s.refs,
                misses: s.misses,
                stores: s.stores,
                classes: s.classes,
                l2_served: s.l2_served,
                mem_served: s.mem_served,
                pattern: s.pattern.classify(),
                dist: s.dist.buckets.to_vec(),
            })
            .collect();
        pcs.sort_by(|a, b| b.misses.cmp(&a.misses).then(a.pc.cmp(&b.pc)));
        pcs.truncate(self.cfg.top_pcs);

        let mut hot_sets: Vec<(u64, u64, u64)> = self
            .cpu
            .set_misses
            .iter()
            .enumerate()
            .filter(|(_, &m)| m > 0)
            .map(|(i, &m)| (i as u64, self.cpu.set_refs[i], m))
            .collect();
        hot_sets.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        hot_sets.truncate(8);

        MissProfile {
            version: PROFILE_VERSION,
            label: label.to_string(),
            l1_lines: self.cfg.l1_lines,
            window: self.cfg.window as u64,
            demand_refs: self.cpu.demand_refs,
            demand_misses: self.cpu.demand_misses,
            mem_served: self.cpu.mem_served,
            prefetch_probes: self.prefetch_probes,
            classes: self.cpu.classes,
            pcs,
            hot_sets,
            coh: self
                .coh
                .iter()
                .map(|(&proc, s)| CohProfile {
                    proc,
                    demand_refs: s.demand_refs,
                    demand_misses: s.demand_misses,
                    mem_served: s.mem_served,
                    classes: s.classes,
                })
                .collect(),
        }
    }
}

/// One hot PC's row in a [`MissProfile`].
#[derive(Debug, Clone)]
pub struct PcProfile {
    /// Static instruction address.
    pub pc: u64,
    /// Demand references issued by this PC.
    pub refs: u64,
    /// Demand misses.
    pub misses: u64,
    /// Store references.
    pub stores: u64,
    /// Per-class miss totals in [`MissClass::ALL`] order.
    pub classes: [u64; 4],
    /// Misses served by the L2.
    pub l2_served: u64,
    /// Misses served by memory.
    pub mem_served: u64,
    /// Classified access pattern.
    pub pattern: Pattern,
    /// Reuse-distance histogram buckets (`0, 1, 2-3, 4-7, …`).
    pub dist: Vec<u64>,
}

/// One coherence processor's classification row.
#[derive(Debug, Clone)]
pub struct CohProfile {
    /// Processor index.
    pub proc: u32,
    /// Demand references driven through this processor's private caches.
    pub demand_refs: u64,
    /// Private-L1 misses.
    pub demand_misses: u64,
    /// References that also missed the private L2.
    pub mem_served: u64,
    /// Per-class miss totals in [`MissClass::ALL`] order.
    pub classes: [u64; 4],
}

/// A versioned point-in-time attribution snapshot with three export twins:
/// ordered JSON, an aligned text table, and a Perfetto-loadable trace.
#[derive(Debug, Clone)]
pub struct MissProfile {
    /// Schema version ([`PROFILE_VERSION`]).
    pub version: u64,
    /// Free-form source label (machine / workload / scheme).
    pub label: String,
    /// L1 capacity (lines) the classification used.
    pub l1_lines: u64,
    /// Reuse-sketch window (accesses).
    pub window: u64,
    /// CPU-stream demand references.
    pub demand_refs: u64,
    /// CPU-stream demand misses (== sum of `classes`).
    pub demand_misses: u64,
    /// CPU-stream references served by memory.
    pub mem_served: u64,
    /// Prefetch probes observed (never classified).
    pub prefetch_probes: u64,
    /// CPU per-class totals in [`MissClass::ALL`] order.
    pub classes: [u64; 4],
    /// Hot PCs, ranked by misses descending then PC ascending.
    pub pcs: Vec<PcProfile>,
    /// Hottest cache sets as `(set, refs, misses)`, ranked by misses.
    pub hot_sets: Vec<(u64, u64, u64)>,
    /// Per-processor coherence rows (empty for uniprocessor runs).
    pub coh: Vec<CohProfile>,
}

fn n(v: u64) -> Json {
    Json::Num(v as f64)
}

fn classes_json(classes: &[u64; 4]) -> Json {
    Json::obj(MissClass::ALL.iter().map(|c| (c.name(), n(classes[c.idx()]))))
}

impl MissProfile {
    /// The ordered JSON document (stable key order, deterministic).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("version", n(self.version)),
            ("label", Json::Str(self.label.clone())),
            ("l1_lines", n(self.l1_lines)),
            ("window", n(self.window)),
            ("demand_refs", n(self.demand_refs)),
            ("demand_misses", n(self.demand_misses)),
            ("mem_served", n(self.mem_served)),
            ("prefetch_probes", n(self.prefetch_probes)),
            ("classes", classes_json(&self.classes)),
            (
                "pcs",
                Json::arr(self.pcs.iter().map(|p| {
                    Json::obj([
                        ("pc", Json::Str(format!("{:#x}", p.pc))),
                        ("refs", n(p.refs)),
                        ("misses", n(p.misses)),
                        ("stores", n(p.stores)),
                        ("classes", classes_json(&p.classes)),
                        ("l2_served", n(p.l2_served)),
                        ("mem_served", n(p.mem_served)),
                        ("pattern", Json::Str(p.pattern.tag().to_string())),
                        (
                            "stride",
                            match p.pattern.stride() {
                                Some(s) => Json::Num(s as f64),
                                None => Json::Null,
                            },
                        ),
                        ("reuse_hist", Json::arr(p.dist.iter().map(|&b| n(b)))),
                    ])
                })),
            ),
            (
                "hot_sets",
                Json::arr(self.hot_sets.iter().map(|&(set, refs, misses)| {
                    Json::obj([("set", n(set)), ("refs", n(refs)), ("misses", n(misses))])
                })),
            ),
            (
                "coherence",
                Json::arr(self.coh.iter().map(|c| {
                    Json::obj([
                        ("proc", n(u64::from(c.proc))),
                        ("demand_refs", n(c.demand_refs)),
                        ("demand_misses", n(c.demand_misses)),
                        ("mem_served", n(c.mem_served)),
                        ("classes", classes_json(&c.classes)),
                    ])
                })),
            ),
        ])
    }

    /// The aligned hot-miss text table.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut t = Table::new([
            "pc",
            "refs",
            "misses",
            "miss%",
            "compulsory",
            "coherence",
            "capacity",
            "conflict",
            "pattern",
        ]);
        for p in &self.pcs {
            let pct = if p.refs == 0 { 0.0 } else { 100.0 * p.misses as f64 / p.refs as f64 };
            t.row([
                format!("{:#x}", p.pc),
                p.refs.to_string(),
                p.misses.to_string(),
                format!("{pct:.1}"),
                p.classes[0].to_string(),
                p.classes[1].to_string(),
                p.classes[2].to_string(),
                p.classes[3].to_string(),
                p.pattern.to_string(),
            ]);
        }
        t
    }

    /// The Perfetto / `chrome://tracing` export twin: one counter sample
    /// per miss class plus one instant event per hot PC on a dedicated
    /// "miss attribution" track. Same profile ⇒ byte-identical output.
    #[must_use]
    pub fn chrome_trace(&self) -> String {
        const TRACK: u64 = 40;
        let mut events = vec![Json::obj([
            ("name", Json::Str("thread_name".to_string())),
            ("ph", Json::Str("M".to_string())),
            ("pid", n(1)),
            ("tid", n(TRACK)),
            ("args", Json::obj([("name", Json::Str(format!("miss attribution: {}", self.label)))])),
        ])];
        events.push(Json::obj([
            ("name", Json::Str("miss classes".to_string())),
            ("ph", Json::Str("C".to_string())),
            ("ts", n(0)),
            ("pid", n(1)),
            ("tid", n(TRACK)),
            ("args", classes_json(&self.classes)),
        ]));
        for (rank, p) in self.pcs.iter().enumerate() {
            events.push(Json::obj([
                ("name", Json::Str(format!("{:#x} {}", p.pc, p.pattern))),
                ("ph", Json::Str("i".to_string())),
                ("s", Json::Str("t".to_string())),
                ("ts", n(rank as u64 + 1)),
                ("pid", n(1)),
                ("tid", n(TRACK)),
                (
                    "args",
                    Json::obj([
                        ("refs", n(p.refs)),
                        ("misses", n(p.misses)),
                        ("classes", classes_json(&p.classes)),
                    ]),
                ),
            ]));
        }
        Json::obj([("traceEvents", Json::arr(events))]).compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(l1_lines: u64, window: usize) -> AttribConfig {
        AttribConfig { l1_lines, l1_sets: l1_lines, line_bytes: 32, window, top_pcs: 8 }
    }

    fn access(pc: u64, addr: u64, served: ServedBy) -> EventKind {
        EventKind::DataAccess {
            served,
            pc,
            addr,
            line: addr & !31,
            store: false,
            prefetch: false,
            ptr_base: false,
        }
    }

    #[test]
    fn first_touch_is_compulsory() {
        let mut a = Attribution::new(cfg(4, 16));
        a.on_event(&access(0x100, 0x1000, ServedBy::Memory));
        assert_eq!(a.cpu_classes(), [1, 0, 0, 0]);
        assert!(a.reconciles_cpu(1, 1));
    }

    #[test]
    fn short_reuse_miss_is_conflict_long_reuse_is_capacity() {
        let mut a = Attribution::new(cfg(2, 64));
        // Touch A, then one distinct line, then A again (distance 1 < 2).
        a.on_event(&access(1, 0x1000, ServedBy::Memory));
        a.on_event(&access(1, 0x2000, ServedBy::Memory));
        a.on_event(&access(1, 0x1000, ServedBy::L2)); // conflict
        assert_eq!(a.cpu_classes(), [2, 0, 0, 1]);
        // Now B with 3 distinct lines in between (distance 3 >= 2).
        a.on_event(&access(1, 0x3000, ServedBy::Memory));
        a.on_event(&access(1, 0x4000, ServedBy::Memory));
        a.on_event(&access(1, 0x5000, ServedBy::Memory));
        a.on_event(&access(1, 0x2000, ServedBy::L2)); // capacity
        assert_eq!(a.cpu_classes(), [5, 0, 1, 1]);
        assert!(a.reconciles_cpu(7, 5));
    }

    #[test]
    fn aged_out_reuse_is_capacity() {
        let mut a = Attribution::new(cfg(64, 4));
        a.on_event(&access(1, 0x1000, ServedBy::Memory));
        // 5 > window accesses to other lines age the entry out.
        for i in 0..5u64 {
            a.on_event(&access(1, 0x2000 + i * 32, ServedBy::Memory));
        }
        a.on_event(&access(1, 0x1000, ServedBy::L2));
        assert_eq!(a.cpu_classes()[2], 1, "aged-out reuse must classify capacity");
        assert!(a.reconciles_cpu(7, 6));
    }

    #[test]
    fn hits_are_not_classified() {
        let mut a = Attribution::new(cfg(4, 16));
        a.on_event(&access(1, 0x1000, ServedBy::Memory));
        a.on_event(&access(1, 0x1000, ServedBy::L1));
        a.on_event(&access(1, 0x1000, ServedBy::L1));
        assert_eq!(a.cpu_demand_refs(), 3);
        assert_eq!(a.cpu_demand_misses(), 1);
        assert_eq!(a.cpu_classified_total(), 1);
    }

    #[test]
    fn prefetch_probes_never_classify_but_warm_the_sketch() {
        let mut a = Attribution::new(cfg(4, 16));
        a.on_event(&EventKind::DataAccess {
            served: ServedBy::Memory,
            pc: 0x10,
            addr: 0x1000,
            line: 0x1000,
            store: false,
            prefetch: true,
            ptr_base: false,
        });
        assert_eq!(a.prefetch_probes(), 1);
        assert_eq!(a.cpu_demand_refs(), 0);
        assert_eq!(a.cpu_classified_total(), 0);
        // The demand access after the prefetch is NOT compulsory: the
        // sketch saw the line.
        a.on_event(&access(0x10, 0x1000, ServedBy::L2));
        assert_eq!(a.cpu_classes(), [0, 0, 0, 1]);
    }

    #[test]
    fn invalidation_reclassifies_next_miss_as_coherence() {
        let mut a = Attribution::new(cfg(4, 16));
        a.on_event(&EventKind::CohAccess {
            proc: 2,
            addr: 0x1000,
            line: 0x1000,
            store: false,
            served: ServedBy::L2,
        });
        a.on_event(&EventKind::CohInvalidate { proc: 2, line: 0x1000 });
        a.on_event(&EventKind::CohAccess {
            proc: 2,
            addr: 0x1000,
            line: 0x1000,
            store: false,
            served: ServedBy::L2,
        });
        assert_eq!(a.coh_classes(), [1, 1, 0, 0]);
        assert!(a.reconciles_coh(2, 0));
        // A later miss with no new invalidation is not coherence.
        a.on_event(&EventKind::CohAccess {
            proc: 2,
            addr: 0x1000,
            line: 0x1000,
            store: false,
            served: ServedBy::L2,
        });
        assert_eq!(a.coh_classes(), [1, 1, 0, 1]);
    }

    #[test]
    fn sketch_distance_is_exact_distinct_count() {
        let mut s = ReuseSketch::new(8);
        s.touch(10);
        s.touch(20);
        s.touch(20);
        s.touch(30);
        // Distinct lines since line 10: {20, 30} = 2, not 3 touches.
        let (reuse, _) = s.touch(10);
        assert_eq!(reuse, Reuse::Within(2));
    }

    #[test]
    fn sketch_window_wraps_without_corruption() {
        let mut s = ReuseSketch::new(4);
        for round in 0..10u64 {
            for line in 0..3u64 {
                let (reuse, _) = s.touch(line * 64);
                if round > 0 {
                    assert_eq!(reuse, Reuse::Within(2), "round {round} line {line}");
                }
            }
        }
    }

    #[test]
    fn profile_exports_are_deterministic_and_versioned() {
        let mut a = Attribution::new(cfg(4, 16));
        for i in 0..8u64 {
            a.on_event(&access(0x40, 0x1000 + i * 32, ServedBy::Memory));
        }
        a.on_event(&access(0x48, 0x9000, ServedBy::L2));
        let p1 = a.profile("test");
        let p2 = a.profile("test");
        assert_eq!(p1.to_json().compact(), p2.to_json().compact());
        assert_eq!(p1.chrome_trace(), p2.chrome_trace());
        assert_eq!(p1.version, PROFILE_VERSION);
        assert_eq!(p1.demand_misses, p1.classes.iter().sum::<u64>());
        // Ranked by misses: PC 0x40 (8 misses) first.
        assert_eq!(p1.pcs[0].pc, 0x40);
        assert_eq!(p1.pcs[0].pattern, Pattern::FixedStride(32));
        assert!(p1.table().render().contains("0x40"));
        assert!(p1.chrome_trace().contains("miss attribution"));
    }

    #[test]
    fn fenwick_range_sums() {
        let mut f = Fenwick::new(8);
        f.add(0, 1);
        f.add(3, 2);
        f.add(7, 5);
        assert_eq!(f.prefix(8), 8);
        assert_eq!(f.range(1, 4), 2);
        assert_eq!(f.range(4, 8), 5);
        assert_eq!(f.range(5, 5), 0);
    }
}
