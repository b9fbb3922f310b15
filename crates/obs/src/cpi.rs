//! CPI-stack cycle attribution.
//!
//! Every simulator classifies each elapsed cycle into exactly one
//! [`CpiCategory`], accumulating a [`CpiStack`] whose total reconciles
//! *exactly* with the run's cycle count — the invariant `tests/observability.rs`
//! asserts for every tier-1 workload. This reproduces the paper's Figure 2/4
//! overhead decomposition from attribution instead of bespoke counters:
//! `base` is the busy/graduating component, `l1_miss`/`l2_miss` are the
//! memory-stall sections, and `handler` is the informing-trap overhead the
//! paper's figures isolate.

use imo_util::json::Json;

/// Where one cycle of a run went. Exactly one category per cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpiCategory {
    /// Useful work: at least one instruction graduated this cycle (CPU), or
    /// local compute (`think` cost) in the coherence model.
    Base,
    /// No graduation and the head of the window was not blocked on memory:
    /// dependence stalls, fetch bubbles, structural hazards.
    IssueStall,
    /// The oldest instruction was blocked on a primary-cache miss served by
    /// the secondary cache.
    L1Miss,
    /// The oldest instruction was blocked on a miss that went to main
    /// memory.
    L2Miss,
    /// Fetch was redirected into (or blocked on) an informing-trap miss
    /// handler.
    Handler,
    /// Waiting on the coherence protocol: network hops, directory state
    /// changes, retry backoff and timeouts.
    CoherenceWait,
}

impl CpiCategory {
    /// Every category, in display order.
    pub const ALL: [CpiCategory; 6] = [
        CpiCategory::Base,
        CpiCategory::IssueStall,
        CpiCategory::L1Miss,
        CpiCategory::L2Miss,
        CpiCategory::Handler,
        CpiCategory::CoherenceWait,
    ];

    /// Stable snake_case name used in exports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CpiCategory::Base => "base",
            CpiCategory::IssueStall => "issue_stall",
            CpiCategory::L1Miss => "l1_miss",
            CpiCategory::L2Miss => "l2_miss",
            CpiCategory::Handler => "handler",
            CpiCategory::CoherenceWait => "coherence_wait",
        }
    }
}

/// Attributed cycles per [`CpiCategory`]. The sum over categories equals
/// total run cycles exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpiStack {
    /// Cycles in which useful work retired.
    pub base: u64,
    /// Non-memory stall cycles.
    pub issue_stall: u64,
    /// Cycles stalled on L1 misses served by L2.
    pub l1_miss: u64,
    /// Cycles stalled on misses served by main memory.
    pub l2_miss: u64,
    /// Informing-trap handler overhead cycles.
    pub handler: u64,
    /// Coherence-protocol wait cycles (multiprocessor model only).
    pub coherence_wait: u64,
}

impl CpiStack {
    /// Attributes `cycles` cycles to `cat`.
    pub fn add(&mut self, cat: CpiCategory, cycles: u64) {
        match cat {
            CpiCategory::Base => self.base += cycles,
            CpiCategory::IssueStall => self.issue_stall += cycles,
            CpiCategory::L1Miss => self.l1_miss += cycles,
            CpiCategory::L2Miss => self.l2_miss += cycles,
            CpiCategory::Handler => self.handler += cycles,
            CpiCategory::CoherenceWait => self.coherence_wait += cycles,
        }
    }

    /// The attributed cycles for `cat`.
    #[must_use]
    pub fn get(&self, cat: CpiCategory) -> u64 {
        match cat {
            CpiCategory::Base => self.base,
            CpiCategory::IssueStall => self.issue_stall,
            CpiCategory::L1Miss => self.l1_miss,
            CpiCategory::L2Miss => self.l2_miss,
            CpiCategory::Handler => self.handler,
            CpiCategory::CoherenceWait => self.coherence_wait,
        }
    }

    /// Total attributed cycles — must equal the run's cycle count.
    #[must_use]
    pub fn total(&self) -> u64 {
        CpiCategory::ALL.iter().map(|&c| self.get(c)).sum()
    }

    /// Memory-stall cycles (L1 + L2 sections), the paper's cache-stall band.
    #[must_use]
    pub fn memory_stall(&self) -> u64 {
        self.l1_miss + self.l2_miss
    }

    /// Adds another stack into this one, category-wise.
    pub fn merge(&mut self, other: &CpiStack) {
        for c in CpiCategory::ALL {
            self.add(c, other.get(c));
        }
    }

    /// The stack as an ordered JSON object plus a `total` field.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = CpiCategory::ALL
            .iter()
            .map(|&c| (c.name().to_string(), Json::from(self.get(c))))
            .collect();
        pairs.push(("total".to_string(), Json::from(self.total())));
        Json::Obj(pairs)
    }

    /// A flamegraph-style text rendering: one proportional bar per
    /// category, widest first, with cycle counts and percentages. Returns
    /// an empty string for a zero-cycle stack.
    #[must_use]
    pub fn render(&self) -> String {
        let total = self.total();
        if total == 0 {
            return String::new();
        }
        const WIDTH: usize = 40;
        let mut rows: Vec<(CpiCategory, u64)> =
            CpiCategory::ALL.iter().map(|&c| (c, self.get(c))).filter(|&(_, v)| v > 0).collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| (a.0 as u32).cmp(&(b.0 as u32))));
        let mut out = String::new();
        for (cat, v) in rows {
            let frac = v as f64 / total as f64;
            let bar = (frac * WIDTH as f64).round().max(1.0) as usize;
            out.push_str(&format!(
                "{:<14} {:>12}  {:>6.2}%  {}\n",
                cat.name(),
                v,
                frac * 100.0,
                "#".repeat(bar.min(WIDTH)),
            ));
        }
        out.push_str(&format!("{:<14} {:>12}  100.00%\n", "total", total));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_total_reconcile() {
        let mut s = CpiStack::default();
        s.add(CpiCategory::Base, 10);
        s.add(CpiCategory::L1Miss, 5);
        s.add(CpiCategory::Handler, 2);
        s.add(CpiCategory::Base, 3);
        assert_eq!(s.get(CpiCategory::Base), 13);
        assert_eq!(s.total(), 20);
        assert_eq!(s.memory_stall(), 5);
    }

    #[test]
    fn merge_is_categorywise_sum() {
        let mut a = CpiStack { base: 1, issue_stall: 2, ..CpiStack::default() };
        let b = CpiStack { base: 10, coherence_wait: 4, ..CpiStack::default() };
        a.merge(&b);
        assert_eq!(a.base, 11);
        assert_eq!(a.issue_stall, 2);
        assert_eq!(a.coherence_wait, 4);
        assert_eq!(a.total(), 17);
    }

    #[test]
    fn json_total_matches() {
        let s = CpiStack { base: 7, l2_miss: 3, ..CpiStack::default() };
        let j = s.to_json();
        assert_eq!(j.get("total").unwrap().as_f64(), Some(10.0));
        assert_eq!(j.get("base").unwrap().as_f64(), Some(7.0));
        assert_eq!(j.get("coherence_wait").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn render_sorts_widest_first_and_totals() {
        let s = CpiStack { base: 10, l1_miss: 30, ..CpiStack::default() };
        let r = s.render();
        let lines: Vec<&str> = r.lines().collect();
        assert!(lines[0].starts_with("l1_miss"));
        assert!(lines[1].starts_with("base"));
        assert!(lines[2].starts_with("total"));
        assert!(lines[2].contains("40"));
        assert_eq!(CpiStack::default().render(), "");
    }
}
