//! Directory-based invalidation protocol over per-line protection state.
//!
//! Each potentially-shared line has, at every node, a user-level protection
//! state — INVALID, READONLY or READWRITE, exactly the three states of the
//! paper's per-cache-line protection table — and a directory entry at its
//! home node tracking the global state and sharer set. The protocol is a
//! standard MSI invalidation protocol expressed over those protection
//! states.

use std::collections::HashMap;

use imo_util::json::Json;
use imo_util::snapshot::{self, SnapshotError};

use crate::config::MachineParams;

/// Per-node protection state of one line (§4.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, PartialOrd, Ord)]
pub enum LineState {
    /// No access; reads and writes need protocol action.
    #[default]
    Invalid,
    /// Reads allowed; writes need protocol action.
    ReadOnly,
    /// Full access.
    ReadWrite,
}

/// What a protocol action had to do, for latency accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActionOutcome {
    /// Network hops on the critical path (0 when the home is the requester
    /// and no third party was involved).
    pub hops: u64,
    /// Nodes whose copy was invalidated (their caches must evict the line).
    pub invalidated: Vec16,
    /// Nodes whose copy was downgraded to READONLY.
    pub downgraded: Option<usize>,
}

/// A tiny inline set of node ids (≤ 64 procs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Vec16 {
    bits: u64,
}

impl Vec16 {
    /// Empty set.
    pub fn new() -> Vec16 {
        Vec16::default()
    }

    /// Inserts a node id.
    pub fn insert(&mut self, p: usize) {
        self.bits |= 1 << p;
    }

    /// Removes a node id.
    pub fn remove(&mut self, p: usize) {
        self.bits &= !(1 << p);
    }

    /// Membership test.
    pub fn contains(&self, p: usize) -> bool {
        self.bits & (1 << p) != 0
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Number of members.
    pub fn len(&self) -> u32 {
        self.bits.count_ones()
    }

    /// Iterates over member ids.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..64).filter(|&p| self.contains(p))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DirState {
    Uncached,
    Shared,
    Exclusive(usize),
}

#[derive(Debug, Clone)]
struct DirEntry {
    state: DirState,
    sharers: Vec16,
}

/// The directory plus every node's protection table.
#[derive(Debug, Clone)]
pub struct Directory {
    params: MachineParams,
    entries: HashMap<u64, DirEntry>,
    /// protection[proc] maps line -> state (absent = Invalid).
    protection: Vec<HashMap<u64, LineState>>,
    /// Per-proc, per-page count of READONLY lines (for the ECC scheme's
    /// page-grain write protection).
    readonly_per_page: Vec<HashMap<u64, u32>>,
}

impl Directory {
    /// Creates an empty directory for `params.procs` nodes.
    pub fn new(params: MachineParams) -> Directory {
        Directory {
            entries: HashMap::new(),
            protection: vec![HashMap::new(); params.procs],
            readonly_per_page: vec![HashMap::new(); params.procs],
            params,
        }
    }

    /// The protection state of `line` at node `p`.
    pub fn protection(&self, p: usize, line: u64) -> LineState {
        self.protection[p].get(&line).copied().unwrap_or_default()
    }

    /// Whether the page containing `line` has any READONLY line at node `p`.
    pub fn page_has_readonly(&self, p: usize, line: u64) -> bool {
        let page = self.params.page_of(line);
        self.readonly_per_page[p].get(&page).copied().unwrap_or(0) > 0
    }

    fn set_protection(&mut self, p: usize, line: u64, new: LineState) {
        let old = self.protection(p, line);
        if old == new {
            return;
        }
        let page = self.params.page_of(line);
        if old == LineState::ReadOnly {
            let c = self.readonly_per_page[p].entry(page).or_insert(0);
            *c = c.saturating_sub(1);
        }
        if new == LineState::ReadOnly {
            *self.readonly_per_page[p].entry(page).or_insert(0) += 1;
        }
        if new == LineState::Invalid {
            self.protection[p].remove(&line);
        } else {
            self.protection[p].insert(line, new);
        }
    }

    /// Performs the protocol action for an access by `p` to `line` whose
    /// current protection is insufficient. Returns what happened; the caller
    /// charges latency and evicts invalidated copies from victim caches.
    pub fn act(&mut self, p: usize, line: u64, is_write: bool) -> ActionOutcome {
        let home = self.params.home_of(line);
        let entry = self
            .entries
            .entry(line)
            .or_insert(DirEntry { state: DirState::Uncached, sharers: Vec16::new() });
        let mut invalidated = Vec16::new();
        let mut downgraded = None;
        let mut third_party = false;

        if is_write {
            match entry.state {
                DirState::Uncached => {}
                DirState::Shared => {
                    for q in entry.sharers.iter().collect::<Vec<_>>() {
                        if q != p {
                            invalidated.insert(q);
                        }
                    }
                    third_party = !invalidated.is_empty();
                }
                DirState::Exclusive(q) => {
                    if q != p {
                        invalidated.insert(q);
                        third_party = true;
                    }
                }
            }
            entry.state = DirState::Exclusive(p);
            entry.sharers = Vec16::new();
            entry.sharers.insert(p);
        } else {
            match entry.state {
                DirState::Uncached => {
                    // First reader gets an exclusive READWRITE copy (the
                    // common read-before-write optimisation).
                    entry.state = DirState::Exclusive(p);
                    entry.sharers.insert(p);
                }
                DirState::Shared => {
                    entry.sharers.insert(p);
                }
                DirState::Exclusive(q) if q == p => {
                    // Re-read of an owned line (protection was lost locally,
                    // e.g. after first-touch): no remote work.
                }
                DirState::Exclusive(q) => {
                    downgraded = Some(q);
                    entry.state = DirState::Shared;
                    entry.sharers.insert(p);
                    third_party = true;
                }
            }
        }

        // Apply protection changes: writers and sole owners get READWRITE,
        // everyone else READONLY.
        let exclusive_owner = matches!(entry.state, DirState::Exclusive(q) if q == p);
        let my_new =
            if is_write || exclusive_owner { LineState::ReadWrite } else { LineState::ReadOnly };
        self.set_protection(p, line, my_new);
        for q in invalidated.iter().collect::<Vec<_>>() {
            self.set_protection(q, line, LineState::Invalid);
        }
        if let Some(q) = downgraded {
            self.set_protection(q, line, LineState::ReadOnly);
        }

        // Critical-path hops: request to home + reply (0 if home is local),
        // plus one more hop if a third party had to be reached.
        let hops = if p == home { 0 } else { 2 } + if third_party { 1 } else { 0 };
        ActionOutcome { hops, invalidated, downgraded }
    }

    /// Encodes the directory, every node's protection table and the per-page
    /// READONLY counts as parallel hex arrays (entries sorted by line, zero
    /// counts dropped), so the same protocol state always renders
    /// byte-identical wire text. Part of the coherence run checkpoint
    /// (`coh.checkpoint`); the envelope lives there, not here.
    pub(crate) fn snap_body(&self) -> Json {
        let mut lines: Vec<u64> = self.entries.keys().copied().collect();
        lines.sort_unstable();
        let mut dstates = Vec::with_capacity(lines.len());
        let mut owners = Vec::with_capacity(lines.len());
        let mut sharers = Vec::with_capacity(lines.len());
        for &line in &lines {
            let e = &self.entries[&line];
            let (s, o) = match e.state {
                DirState::Uncached => (0, 0),
                DirState::Shared => (1, 0),
                DirState::Exclusive(q) => (2, q as u64),
            };
            dstates.push(s);
            owners.push(o);
            sharers.push(e.sharers.bits);
        }
        let prot = self
            .protection
            .iter()
            .map(|m| {
                let mut ls: Vec<u64> = m.keys().copied().collect();
                ls.sort_unstable();
                let states: Vec<u64> = ls
                    .iter()
                    .map(|l| match m[l] {
                        LineState::Invalid => 0,
                        LineState::ReadOnly => 1,
                        LineState::ReadWrite => 2,
                    })
                    .collect();
                Json::obj([
                    ("lines", snapshot::u64s_json(&ls)),
                    ("states", snapshot::u64s_json(&states)),
                ])
            })
            .collect::<Vec<_>>();
        let ro = self
            .readonly_per_page
            .iter()
            .map(|m| {
                let mut pages: Vec<u64> =
                    m.iter().filter(|&(_, &c)| c > 0).map(|(&p, _)| p).collect();
                pages.sort_unstable();
                let counts: Vec<u64> = pages.iter().map(|p| u64::from(m[p])).collect();
                Json::obj([
                    ("pages", snapshot::u64s_json(&pages)),
                    ("counts", snapshot::u64s_json(&counts)),
                ])
            })
            .collect::<Vec<_>>();
        Json::obj([
            ("lines", snapshot::u64s_json(&lines)),
            ("dstates", snapshot::u64s_json(&dstates)),
            ("owners", snapshot::u64s_json(&owners)),
            ("sharers", snapshot::u64s_json(&sharers)),
            ("prot", Json::Arr(prot)),
            ("ro_pages", Json::Arr(ro)),
        ])
    }

    /// Restores a directory encoded by [`Directory::snap_body`] for
    /// `params.procs` nodes.
    pub(crate) fn snap_restore(
        params: MachineParams,
        data: &Json,
    ) -> Result<Directory, SnapshotError> {
        let lines = snapshot::get_u64s(data, "lines")?;
        let dstates = snapshot::get_u64s(data, "dstates")?;
        let owners = snapshot::get_u64s(data, "owners")?;
        let sharers = snapshot::get_u64s(data, "sharers")?;
        if dstates.len() != lines.len()
            || owners.len() != lines.len()
            || sharers.len() != lines.len()
        {
            return Err(SnapshotError::Bad("dstates"));
        }
        let mut dir = Directory::new(params);
        for i in 0..lines.len() {
            let state = match dstates[i] {
                0 => DirState::Uncached,
                1 => DirState::Shared,
                2 => DirState::Exclusive(
                    usize::try_from(owners[i]).map_err(|_| SnapshotError::Bad("owners"))?,
                ),
                _ => return Err(SnapshotError::Bad("dstates")),
            };
            dir.entries.insert(lines[i], DirEntry { state, sharers: Vec16 { bits: sharers[i] } });
        }
        let prot = snapshot::field(data, "prot")?.as_arr().ok_or(SnapshotError::Bad("prot"))?;
        let ro =
            snapshot::field(data, "ro_pages")?.as_arr().ok_or(SnapshotError::Bad("ro_pages"))?;
        if prot.len() != params.procs || ro.len() != params.procs {
            return Err(SnapshotError::Bad("prot"));
        }
        for (p, j) in prot.iter().enumerate() {
            let ls = snapshot::get_u64s(j, "lines")?;
            let states = snapshot::get_u64s(j, "states")?;
            if states.len() != ls.len() {
                return Err(SnapshotError::Bad("states"));
            }
            for (l, s) in ls.iter().zip(&states) {
                let st = match s {
                    1 => LineState::ReadOnly,
                    2 => LineState::ReadWrite,
                    _ => return Err(SnapshotError::Bad("states")),
                };
                dir.protection[p].insert(*l, st);
            }
        }
        for (p, j) in ro.iter().enumerate() {
            let pages = snapshot::get_u64s(j, "pages")?;
            let counts = snapshot::get_u64s(j, "counts")?;
            if counts.len() != pages.len() {
                return Err(SnapshotError::Bad("counts"));
            }
            for (pg, c) in pages.iter().zip(&counts) {
                let c = u32::try_from(*c).map_err(|_| SnapshotError::Bad("counts"))?;
                if c == 0 {
                    return Err(SnapshotError::Bad("counts"));
                }
                dir.readonly_per_page[p].insert(*pg, c);
            }
        }
        Ok(dir)
    }

    /// A one-line human-readable description of `line`'s directory state and
    /// every node's protection — used in deadlock / retry-exhaustion
    /// diagnostics.
    pub fn describe(&self, line: u64) -> String {
        use std::fmt::Write as _;
        match self.entries.get(&line) {
            None => format!("line {line:#x}: uncached (no directory entry)"),
            Some(e) => {
                let mut s = format!("line {line:#x}: {:?}, sharers {{", e.state);
                let mut first = true;
                for q in e.sharers.iter() {
                    if !first {
                        s.push(',');
                    }
                    let _ = write!(s, "{q}");
                    first = false;
                }
                s.push_str("}, protection [");
                first = true;
                for q in 0..self.params.procs {
                    let st = self.protection(q, line);
                    if st != LineState::Invalid {
                        if !first {
                            s.push(' ');
                        }
                        let _ = write!(s, "p{q}={st:?}");
                        first = false;
                    }
                }
                s.push(']');
                s
            }
        }
    }

    /// Checks the protocol's safety invariants over every line the directory
    /// has ever seen:
    ///
    /// * **single writer** — at most one node holds READWRITE protection, and
    ///   only while the directory is in the exclusive state for that node;
    /// * **no lost exclusive lines** — an exclusive owner always still holds
    ///   READWRITE protection (the grant was not silently dropped);
    /// * **sharer consistency** — every node with any protection is a member
    ///   of the sharer set, and shared-state copies are READONLY.
    ///
    /// Returns a description of the first violation, if any. Used by the
    /// fault-injection suites to prove that message-drop schedules never
    /// corrupt protocol state.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (&line, e) in &self.entries {
            let held: Vec<(usize, LineState)> = (0..self.params.procs)
                .map(|q| (q, self.protection(q, line)))
                .filter(|&(_, s)| s != LineState::Invalid)
                .collect();
            let writers: Vec<usize> =
                held.iter().filter(|&&(_, s)| s == LineState::ReadWrite).map(|&(q, _)| q).collect();
            if writers.len() > 1 {
                return Err(format!("multiple writers {writers:?}; {}", self.describe(line)));
            }
            for &(q, _) in &held {
                if !e.sharers.contains(q) {
                    return Err(format!(
                        "p{q} holds protection but is no sharer; {}",
                        self.describe(line)
                    ));
                }
            }
            match e.state {
                DirState::Uncached => {
                    if !held.is_empty() {
                        return Err(format!("uncached line is held; {}", self.describe(line)));
                    }
                }
                DirState::Exclusive(owner) => {
                    if self.protection(owner, line) != LineState::ReadWrite {
                        return Err(format!(
                            "exclusive line lost by its owner p{owner}; {}",
                            self.describe(line)
                        ));
                    }
                    if held.len() != 1 {
                        return Err(format!(
                            "exclusive line held by {} nodes; {}",
                            held.len(),
                            self.describe(line)
                        ));
                    }
                }
                DirState::Shared => {
                    if !writers.is_empty() {
                        return Err(format!(
                            "writer p{} on a shared line; {}",
                            writers[0],
                            self.describe(line)
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir() -> Directory {
        let mut p = MachineParams::table2();
        p.procs = 4;
        Directory::new(p)
    }

    #[test]
    fn first_read_grants_exclusive_readwrite() {
        let mut d = dir();
        let out = d.act(1, 0x8000_0000, false);
        assert_eq!(d.protection(1, 0x8000_0000), LineState::ReadWrite);
        assert!(out.invalidated.is_empty());
        assert_eq!(out.hops, 2, "home of line 0 is proc 0, requester is 1");
    }

    #[test]
    fn local_home_costs_no_hops() {
        let mut d = dir();
        let line = 32; // home = proc 1
        let out = d.act(1, line, false);
        assert_eq!(out.hops, 0);
    }

    #[test]
    fn second_reader_downgrades_the_owner() {
        let mut d = dir();
        let line = 0x8000_0000;
        d.act(1, line, false); // exclusive at 1
        let out = d.act(2, line, false);
        assert_eq!(out.downgraded, Some(1));
        assert_eq!(d.protection(1, line), LineState::ReadOnly);
        assert_eq!(d.protection(2, line), LineState::ReadOnly);
        assert_eq!(out.hops, 3, "request + reply + downgrade hop");
    }

    #[test]
    fn writer_invalidates_all_sharers() {
        let mut d = dir();
        let line = 0x8000_0000;
        d.act(1, line, false);
        d.act(2, line, false);
        d.act(3, line, false);
        let out = d.act(0, line, true);
        assert!(out.invalidated.contains(1));
        assert!(out.invalidated.contains(2));
        assert!(out.invalidated.contains(3));
        assert_eq!(d.protection(0, line), LineState::ReadWrite);
        assert_eq!(d.protection(1, line), LineState::Invalid);
        assert_eq!(out.hops, 1, "home is proc 0 (local) + sharer hop");
    }

    #[test]
    fn writer_upgrade_from_shared_keeps_own_copy() {
        let mut d = dir();
        let line = 0x8000_0000;
        d.act(1, line, false);
        d.act(2, line, false); // 1 and 2 share
        let out = d.act(1, line, true);
        assert!(out.invalidated.contains(2));
        assert!(!out.invalidated.contains(1));
        assert_eq!(d.protection(1, line), LineState::ReadWrite);
    }

    #[test]
    fn readonly_page_tracking() {
        let mut d = dir();
        let line_a = 0x8000_0000;
        let line_b = 0x8000_0020; // same 4 KB page
        assert!(!d.page_has_readonly(2, line_a));
        d.act(1, line_a, false);
        d.act(2, line_a, false); // both downgraded to READONLY
        assert!(d.page_has_readonly(2, line_b), "page-level property");
        // Writing upgrades proc 2 and invalidates proc 1.
        d.act(2, line_a, true);
        assert!(!d.page_has_readonly(2, line_b));
        assert!(!d.page_has_readonly(1, line_b));
    }

    #[test]
    fn invariants_hold_through_a_protocol_exercise() {
        let mut d = dir();
        let line = 0x8000_0000;
        for (p, w) in [(1, false), (2, false), (0, true), (3, false), (3, true), (1, false)] {
            d.act(p, line, w);
            d.check_invariants().expect("invariants after every action");
        }
    }

    #[test]
    fn describe_names_owner_and_sharers() {
        let mut d = dir();
        let line = 0x8000_0000;
        d.act(1, line, true);
        let s = d.describe(line);
        assert!(s.contains("Exclusive(1)"), "{s}");
        assert!(s.contains("p1=ReadWrite"), "{s}");
        assert!(d.describe(0xdead_0000).contains("uncached"));
    }

    #[test]
    fn vec16_basics() {
        let mut v = Vec16::new();
        assert!(v.is_empty());
        v.insert(3);
        v.insert(9);
        assert_eq!(v.len(), 2);
        assert!(v.contains(3));
        v.remove(3);
        assert!(!v.contains(3));
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![9]);
    }
}
