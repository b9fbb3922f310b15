//! Set-associative cache state model.

use crate::config::CacheConfig;
use imo_util::json::Json;
use imo_util::snapshot::{self, Snapshot, SnapshotError};

/// Outcome of a cache probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// The line was present.
    Hit,
    /// The line was absent and has been installed; if a valid line was
    /// displaced, its line address and dirtiness are reported.
    Miss {
        /// Displaced victim, if the chosen way held a valid line.
        evicted: Option<Eviction>,
    },
}

/// A line displaced by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Line-aligned address of the victim.
    pub line: u64,
    /// Whether the victim was dirty (needs a writeback).
    pub dirty: bool,
}

/// Aggregate cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total probes (reads + writes).
    pub accesses: u64,
    /// Probes that missed.
    pub misses: u64,
    /// Dirty lines displaced (writebacks generated).
    pub writebacks: u64,
    /// Lines removed by explicit invalidation.
    pub invalidations: u64,
}

impl CacheStats {
    /// Miss ratio (0 when no accesses were made).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    valid: bool,
    tag: u64,
    dirty: bool,
    /// Monotonic counter value at last touch; smallest = LRU.
    lru: u64,
}

/// A set-associative, write-allocate, write-back cache with true-LRU
/// replacement. Models tags and replacement state only (data lives in the
/// functional executor's memory).
///
/// # Example
///
/// ```
/// use imo_mem::{Cache, CacheConfig, Probe};
///
/// let mut c = Cache::new(CacheConfig::new(1024, 2, 32));
/// assert!(matches!(c.access(0x40, false), Probe::Miss { .. }));
/// assert_eq!(c.access(0x40, false), Probe::Hit);
/// assert_eq!(c.stats().misses, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Cached geometry: `log2(line_bytes)`, `num_sets - 1`, and
    /// `log2(line_bytes * num_sets)`. Tag/set extraction runs on every
    /// simulated memory reference and instruction-line probe, so it must be
    /// shifts and masks, not the three 64-bit divisions the naive
    /// `addr / line_bytes / num_sets` form costs.
    line_shift: u32,
    set_mask: u64,
    tag_shift: u32,
    sets: Vec<Way>,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not power-of-two (guaranteed for configs
    /// built via [`CacheConfig::new`], which validates exactly that).
    pub fn new(config: CacheConfig) -> Cache {
        let num_sets = config.num_sets();
        assert!(
            config.line_bytes.is_power_of_two() && num_sets.is_power_of_two(),
            "cache geometry must be power-of-two"
        );
        let line_shift = config.line_bytes.trailing_zeros();
        let ways = (num_sets * config.assoc as u64) as usize;
        Cache {
            config,
            line_shift,
            set_mask: num_sets - 1,
            tag_shift: line_shift + num_sets.trailing_zeros(),
            sets: vec![Way::default(); ways],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Aggregate statistics since construction (or the last [`Cache::reset_stats`]).
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Clears the statistics counters (tag state is preserved).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    #[inline]
    fn set_range(&self, addr: u64) -> std::ops::Range<usize> {
        let set = ((addr >> self.line_shift) & self.set_mask) as usize;
        let a = self.config.assoc as usize;
        set * a..(set + 1) * a
    }

    #[inline]
    fn tag_of(&self, addr: u64) -> u64 {
        addr >> self.tag_shift
    }

    /// Probes the cache for `addr`, installing the line on a miss
    /// (write-allocate) and updating LRU state. `is_write` marks the line
    /// dirty.
    #[inline]
    pub fn access(&mut self, addr: u64, is_write: bool) -> Probe {
        self.clock += 1;
        self.stats.accesses += 1;
        let tag = self.tag_of(addr);
        let start = self.set_range(addr).start;
        let assoc = self.config.assoc as usize;
        let clock = self.clock;

        // Hit?
        let set = &mut self.sets[start..start + assoc];
        for w in set.iter_mut() {
            if w.valid && w.tag == tag {
                w.lru = clock;
                if is_write {
                    w.dirty = true;
                }
                return Probe::Hit;
            }
        }

        // Miss: choose invalid way, else LRU way.
        self.stats.misses += 1;
        let victim_idx = match set.iter().position(|w| !w.valid) {
            Some(i) => start + i,
            None => {
                let (i, _) = set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, w)| w.lru)
                    .expect("associativity is positive");
                start + i
            }
        };
        let set_idx = (addr >> self.line_shift) & self.set_mask;
        let w = &mut self.sets[victim_idx];
        let evicted = if w.valid {
            let victim_line = ((w.tag * (self.set_mask + 1)) + set_idx) << self.line_shift;
            let e = Eviction { line: victim_line, dirty: w.dirty };
            if w.dirty {
                self.stats.writebacks += 1;
            }
            Some(e)
        } else {
            None
        };
        w.valid = true;
        w.tag = tag;
        w.dirty = is_write;
        w.lru = clock;
        Probe::Miss { evicted }
    }

    /// Whether the line containing `addr` is currently present (does not
    /// perturb LRU state or statistics).
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        let tag = self.tag_of(addr);
        self.sets[self.set_range(addr)].iter().any(|w| w.valid && w.tag == tag)
    }

    /// Invalidates the line containing `addr` if present; returns whether a
    /// line was removed and whether it was dirty.
    pub fn invalidate(&mut self, addr: u64) -> Option<bool> {
        let tag = self.tag_of(addr);
        let range = self.set_range(addr);
        for w in &mut self.sets[range] {
            if w.valid && w.tag == tag {
                w.valid = false;
                let dirty = w.dirty;
                w.dirty = false;
                self.stats.invalidations += 1;
                return Some(dirty);
            }
        }
        None
    }

    /// Invalidates every line (e.g. at a simulated context switch).
    pub fn flush(&mut self) {
        for w in &mut self.sets {
            w.valid = false;
            w.dirty = false;
        }
    }

    /// Number of currently valid lines.
    pub fn valid_lines(&self) -> usize {
        self.sets.iter().filter(|w| w.valid).count()
    }
}

/// Packs an iterator of booleans into `u64` words, bit `i % 64` of word
/// `i / 64` (checkpoint encoding of per-way flag columns).
pub(crate) fn pack_bits(bits: impl Iterator<Item = bool>) -> Vec<u64> {
    let mut words = Vec::new();
    for (i, b) in bits.enumerate() {
        if i % 64 == 0 {
            words.push(0u64);
        }
        if b {
            *words.last_mut().expect("word was just pushed") |= 1u64 << (i % 64);
        }
    }
    words
}

/// Reads bit `i` of a [`pack_bits`] word vector.
pub(crate) fn bit_at(words: &[u64], i: usize) -> bool {
    (words[i / 64] >> (i % 64)) & 1 == 1
}

fn stats_json(s: &CacheStats) -> Json {
    Json::obj([
        ("accesses", snapshot::u64_json(s.accesses)),
        ("misses", snapshot::u64_json(s.misses)),
        ("writebacks", snapshot::u64_json(s.writebacks)),
        ("invalidations", snapshot::u64_json(s.invalidations)),
    ])
}

fn decode_stats(data: &Json) -> Result<CacheStats, SnapshotError> {
    Ok(CacheStats {
        accesses: snapshot::get_u64(data, "accesses")?,
        misses: snapshot::get_u64(data, "misses")?,
        writebacks: snapshot::get_u64(data, "writebacks")?,
        invalidations: snapshot::get_u64(data, "invalidations")?,
    })
}

impl Snapshot for Cache {
    const KIND: &'static str = "mem.cache";
    const VERSION: u32 = 2;

    /// Way state is emitted as four parallel columns (packed valid/dirty
    /// bits, hex-concatenated tags and LRU stamps) so the encoding stays
    /// compact for the 2 MB secondary cache.
    fn encode(&self) -> Json {
        let valid = pack_bits(self.sets.iter().map(|w| w.valid));
        let dirty = pack_bits(self.sets.iter().map(|w| w.dirty));
        let tags: Vec<u64> = self.sets.iter().map(|w| w.tag).collect();
        let lru: Vec<u64> = self.sets.iter().map(|w| w.lru).collect();
        Json::obj([
            ("size_bytes", snapshot::u64_json(self.config.size_bytes)),
            ("assoc", snapshot::u64_json(self.config.assoc as u64)),
            ("line_bytes", snapshot::u64_json(self.config.line_bytes)),
            ("clock", snapshot::u64_json(self.clock)),
            ("valid", snapshot::u64s_json(&valid)),
            ("dirty", snapshot::u64s_json(&dirty)),
            ("tags", snapshot::u64s_json(&tags)),
            ("lru", snapshot::u64s_json(&lru)),
            ("stats", stats_json(&self.stats)),
        ])
    }

    fn decode(data: &Json) -> Result<Self, SnapshotError> {
        let size_bytes = snapshot::get_u64(data, "size_bytes")?;
        let assoc = snapshot::get_u32(data, "assoc")?;
        let line_bytes = snapshot::get_u64(data, "line_bytes")?;
        // Re-validate the geometry before CacheConfig::new so a malformed
        // checkpoint reports a typed error instead of panicking.
        if !size_bytes.is_power_of_two()
            || !line_bytes.is_power_of_two()
            || assoc == 0
            || size_bytes % (assoc as u64 * line_bytes) != 0
        {
            return Err(SnapshotError::Bad("geometry"));
        }
        let tags = snapshot::get_u64s(data, "tags")?;
        // Bound the allocation by what the wire actually carries.
        if tags.len() as u64 != size_bytes / line_bytes {
            return Err(SnapshotError::Bad("tags"));
        }
        let lru = snapshot::get_u64s(data, "lru")?;
        let valid = snapshot::get_u64s(data, "valid")?;
        let dirty = snapshot::get_u64s(data, "dirty")?;
        let words = tags.len().div_ceil(64);
        if lru.len() != tags.len() || valid.len() != words || dirty.len() != words {
            return Err(SnapshotError::Bad("way columns"));
        }
        let mut cache = Cache::new(CacheConfig::new(size_bytes, assoc, line_bytes));
        for (i, w) in cache.sets.iter_mut().enumerate() {
            *w = Way {
                valid: bit_at(&valid, i),
                tag: tags[i],
                dirty: bit_at(&dirty, i),
                lru: lru[i],
            };
        }
        cache.clock = snapshot::get_u64(data, "clock")?;
        cache.stats = decode_stats(snapshot::field(data, "stats")?)?;
        Ok(cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets, 2 ways, 32B lines = 256B
        Cache::new(CacheConfig::new(256, 2, 32))
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(matches!(c.access(0, false), Probe::Miss { evicted: None }));
        assert_eq!(c.access(0, false), Probe::Hit);
        assert_eq!(c.access(31, false), Probe::Hit, "same line");
        assert!(matches!(c.access(32, false), Probe::Miss { .. }), "next line");
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Set 0 holds lines at stride 4*32 = 128.
        c.access(0, false); // A
        c.access(128, false); // B
        c.access(0, false); // touch A -> B is LRU
        let p = c.access(256, false); // C evicts B
        match p {
            Probe::Miss { evicted: Some(e) } => assert_eq!(e.line, 128),
            other => panic!("expected eviction of B, got {other:?}"),
        }
        assert!(c.contains(0));
        assert!(!c.contains(128));
        assert!(c.contains(256));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small();
        c.access(0, true);
        c.access(128, false);
        let p = c.access(256, false); // evicts dirty line 0 (LRU)
        match p {
            Probe::Miss { evicted: Some(e) } => {
                assert_eq!(e.line, 0);
                assert!(e.dirty);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small();
        c.access(0, false);
        c.access(0, true);
        c.access(128, false);
        match c.access(256, false) {
            Probe::Miss { evicted: Some(e) } => assert!(e.dirty),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small();
        c.access(0, true);
        assert_eq!(c.invalidate(0), Some(true));
        assert!(!c.contains(0));
        assert_eq!(c.invalidate(0), None);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = Cache::new(CacheConfig::new(128, 1, 32)); // 4 sets
        c.access(0, false);
        c.access(128, false); // same set, evicts
        assert!(!c.contains(0));
        assert!(c.contains(128));
    }

    #[test]
    fn flush_empties() {
        let mut c = small();
        c.access(0, false);
        c.access(32, false);
        assert_eq!(c.valid_lines(), 2);
        c.flush();
        assert_eq!(c.valid_lines(), 0);
    }

    #[test]
    fn miss_rate() {
        let mut c = small();
        c.access(0, false);
        c.access(0, false);
        assert_eq!(c.stats().miss_rate(), 0.5);
    }

    #[test]
    fn snapshot_round_trip_preserves_tags_lru_and_stats() {
        let mut c = small();
        c.access(0, true);
        c.access(128, false);
        c.access(0, false); // refresh A so B is LRU
        c.invalidate(32);
        let wire = c.to_wire().pretty();
        let back = Cache::from_wire(&imo_util::json::parse(&wire).unwrap()).expect("decodes");
        assert_eq!(back.to_wire(), c.to_wire(), "re-encoding is byte-stable");
        assert_eq!(back.stats(), c.stats());
        assert_eq!(back.valid_lines(), c.valid_lines());
        // LRU state survives: the next conflict miss must still evict B.
        let mut back = back;
        match back.access(256, false) {
            Probe::Miss { evicted: Some(e) } => assert_eq!(e.line, 128, "B is still LRU"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn snapshot_rejects_malformed_geometry() {
        let mut wire = small().to_wire();
        if let imo_util::json::Json::Obj(fields) = &mut wire {
            for (k, v) in fields.iter_mut() {
                if k == "data" {
                    if let imo_util::json::Json::Obj(inner) = v {
                        for (ik, iv) in inner.iter_mut() {
                            if ik == "assoc" {
                                *iv = imo_util::json::Json::from("0");
                            }
                        }
                    }
                }
            }
        }
        assert!(matches!(Cache::from_wire(&wire), Err(SnapshotError::Bad("geometry"))));
    }

    #[test]
    fn contains_does_not_touch_lru() {
        let mut c = small();
        c.access(0, false); // A
        c.access(128, false); // B (A is LRU)
        let _ = c.contains(0); // must not refresh A
        match c.access(256, false) {
            Probe::Miss { evicted: Some(e) } => assert_eq!(e.line, 0, "A still LRU"),
            other => panic!("unexpected {other:?}"),
        }
    }
}
