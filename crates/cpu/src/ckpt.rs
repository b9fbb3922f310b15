//! Shared checkpoint codec helpers for the two core models.
//!
//! The cores' `run` loops checkpoint by encoding every loop local at a cycle
//! boundary (see [`crate::SimSession`]). The pieces shared between the two
//! models — fetched-instruction records, wakeup queues, slot and CPI-stack
//! accumulators — are encoded here under the `imo_util::snapshot` wire
//! discipline so both bodies render identically-shaped, byte-stable JSON.

use imo_isa::Program;
use imo_mem::{HitLevel, ProbeResult};
use imo_obs::CpiStack;
use imo_util::json::Json;
use imo_util::snapshot::{self, SnapshotError};

use crate::frontend::{Fetched, Resolve};
use crate::result::SlotBreakdown;
use crate::sched::WakeupQueue;

/// Encodes an in-flight instruction handle. The wire carries only dynamic
/// state and the text index; the instruction is read from the program text.
pub(crate) fn fetched_json(f: &Fetched) -> Json {
    let probe = f.probe();
    let level = probe.map(|p| match p.level {
        HitLevel::L1 => 0,
        HitLevel::L2 => 1,
        HitLevel::Memory => 2,
    });
    Json::obj([
        ("seq", snapshot::u64_json(f.seq)),
        ("idx", snapshot::u64_json(u64::from(f.idx))),
        ("fetch_cycle", snapshot::u64_json(f.fetch_cycle)),
        ("probe_level", snapshot::opt_u64_json(level)),
        ("probe_line", snapshot::opt_u64_json(probe.map(|p| p.line))),
        ("probe_store", Json::Bool(probe.is_some_and(|p| p.is_store))),
        ("informing_trap", Json::Bool(f.informing_trap)),
        (
            "resolve",
            snapshot::u64_json(match f.resolve {
                Resolve::None => 0,
                Resolve::AtExecute => 1,
                Resolve::AtGraduate => 2,
            }),
        ),
    ])
}

/// Decodes a [`fetched_json`] record against the program being resumed. The
/// text index must name an instruction of the program, and the record must
/// carry a probe exactly when that instruction touches the data cache.
pub(crate) fn decode_fetched(program: &Program, j: &Json) -> Result<Fetched, SnapshotError> {
    let idx = u32::try_from(snapshot::get_u64(j, "idx")?).map_err(|_| SnapshotError::Bad("idx"))?;
    let instr = program.instrs().get(idx as usize).ok_or(SnapshotError::Bad("idx"))?;
    let probe =
        match (snapshot::get_opt_u64(j, "probe_level")?, snapshot::get_opt_u64(j, "probe_line")?) {
            (Some(lvl), Some(line)) => Some(ProbeResult {
                level: match lvl {
                    0 => HitLevel::L1,
                    1 => HitLevel::L2,
                    2 => HitLevel::Memory,
                    _ => return Err(SnapshotError::Bad("probe_level")),
                },
                line,
                is_store: snapshot::get_bool(j, "probe_store")?,
            }),
            (None, None) => None,
            _ => return Err(SnapshotError::Bad("probe_level")),
        };
    if probe.is_some() != instr.is_mem() {
        return Err(SnapshotError::Bad("probe_level"));
    }
    let resolve = match snapshot::get_u64(j, "resolve")? {
        0 => Resolve::None,
        1 => Resolve::AtExecute,
        2 => Resolve::AtGraduate,
        _ => return Err(SnapshotError::Bad("resolve")),
    };
    Ok(Fetched::new(
        snapshot::get_u64(j, "seq")?,
        idx,
        snapshot::get_u64(j, "fetch_cycle")?,
        probe,
        snapshot::get_bool(j, "informing_trap")?,
        resolve,
    ))
}

/// Encodes a wakeup queue as three parallel `(due, key, item)` columns in
/// pop order plus the key counter; `item` maps the payload to a `u64`.
pub(crate) fn wakeup_json<T: Clone>(q: &WakeupQueue<T>, item: impl Fn(&T) -> u64) -> Json {
    let entries = q.entries();
    let due: Vec<u64> = entries.iter().map(|e| e.0).collect();
    let key: Vec<u64> = entries.iter().map(|e| e.1).collect();
    let items: Vec<u64> = entries.iter().map(|e| item(&e.2)).collect();
    Json::obj([
        ("next_key", snapshot::u64_json(q.next_key())),
        ("due", snapshot::u64s_json(&due)),
        ("key", snapshot::u64s_json(&key)),
        ("item", snapshot::u64s_json(&items)),
    ])
}

/// Decodes a [`wakeup_json`] queue; `item` rebuilds (and validates) each
/// payload from its `u64` encoding. `name` labels decode errors.
pub(crate) fn decode_wakeup<T>(
    j: &Json,
    name: &'static str,
    item: impl Fn(u64) -> Result<T, SnapshotError>,
) -> Result<WakeupQueue<T>, SnapshotError> {
    let next_key = snapshot::get_u64(j, "next_key")?;
    let due = snapshot::get_u64s(j, "due")?;
    let keys = snapshot::get_u64s(j, "key")?;
    let items = snapshot::get_u64s(j, "item")?;
    if keys.len() != due.len() || items.len() != due.len() {
        return Err(SnapshotError::Bad(name));
    }
    let mut entries = Vec::with_capacity(due.len());
    for ((d, k), it) in due.into_iter().zip(keys).zip(items) {
        entries.push((d, k, item(it)?));
    }
    Ok(WakeupQueue::restore(next_key, entries))
}

/// Encodes the graduation-slot accumulator.
pub(crate) fn slots_json(s: SlotBreakdown) -> Json {
    Json::obj([
        ("busy", snapshot::u64_json(s.busy)),
        ("cache_stall", snapshot::u64_json(s.cache_stall)),
        ("other_stall", snapshot::u64_json(s.other_stall)),
    ])
}

/// Decodes a [`slots_json`] accumulator.
pub(crate) fn decode_slots(j: &Json) -> Result<SlotBreakdown, SnapshotError> {
    Ok(SlotBreakdown {
        busy: snapshot::get_u64(j, "busy")?,
        cache_stall: snapshot::get_u64(j, "cache_stall")?,
        other_stall: snapshot::get_u64(j, "other_stall")?,
    })
}

/// Encodes the CPI-stack accumulator.
pub(crate) fn cpi_json(c: &CpiStack) -> Json {
    Json::obj([
        ("base", snapshot::u64_json(c.base)),
        ("issue_stall", snapshot::u64_json(c.issue_stall)),
        ("l1_miss", snapshot::u64_json(c.l1_miss)),
        ("l2_miss", snapshot::u64_json(c.l2_miss)),
        ("handler", snapshot::u64_json(c.handler)),
        ("coherence_wait", snapshot::u64_json(c.coherence_wait)),
    ])
}

/// Decodes a [`cpi_json`] accumulator.
pub(crate) fn decode_cpi(j: &Json) -> Result<CpiStack, SnapshotError> {
    Ok(CpiStack {
        base: snapshot::get_u64(j, "base")?,
        issue_stall: snapshot::get_u64(j, "issue_stall")?,
        l1_miss: snapshot::get_u64(j, "l1_miss")?,
        l2_miss: snapshot::get_u64(j, "l2_miss")?,
        handler: snapshot::get_u64(j, "handler")?,
        coherence_wait: snapshot::get_u64(j, "coherence_wait")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use imo_isa::{Asm, Reg};

    #[test]
    fn fetched_round_trip_is_exact() {
        let mut a = Asm::new();
        a.li(Reg::int(1), 0x4000);
        a.load(Reg::int(2), Reg::int(1), 0);
        a.halt();
        let p = a.assemble().unwrap();
        let probe = ProbeResult { level: HitLevel::Memory, line: 0x4000, is_store: false };
        let f = Fetched::new(7, 1, 42, Some(probe), true, Resolve::AtGraduate);
        let back = decode_fetched(&p, &fetched_json(&f)).unwrap();
        assert_eq!(back, f);
        assert_eq!(back.pc(), Program::addr_of(1));
        assert_eq!(back.probe(), Some(probe));
    }

    #[test]
    fn fetched_decode_rejects_index_outside_text_and_probe_mismatches() {
        let mut a = Asm::new();
        a.li(Reg::int(1), 0x4000);
        a.halt();
        let p = a.assemble().unwrap();
        let past_end = Fetched::new(0, 2, 0, None, false, Resolve::None);
        assert_eq!(
            decode_fetched(&p, &fetched_json(&past_end)).err(),
            Some(SnapshotError::Bad("idx"))
        );
        let probe = ProbeResult { level: HitLevel::L1, line: 0x4000, is_store: false };
        let probed_li = Fetched::new(0, 0, 0, Some(probe), false, Resolve::None);
        assert_eq!(
            decode_fetched(&p, &fetched_json(&probed_li)).err(),
            Some(SnapshotError::Bad("probe_level"))
        );
    }

    #[test]
    fn wakeup_codec_round_trip() {
        let mut q: WakeupQueue<u64> = WakeupQueue::new();
        q.push(9, 100);
        q.push(3, 200);
        q.push_keyed(3, 77, 300);
        let j = wakeup_json(&q, |&v| v);
        let mut r = decode_wakeup(&j, "q", Ok).unwrap();
        assert_eq!(r.pop_due(10), q.pop_due(10));
        assert_eq!(r.pop_due(10), q.pop_due(10));
        assert_eq!(r.pop_due(10), q.pop_due(10));
        assert_eq!(r.next_key(), q.next_key());
    }

    #[test]
    fn slots_and_cpi_round_trip() {
        let s = SlotBreakdown { busy: 1, cache_stall: 2, other_stall: 3 };
        assert_eq!(decode_slots(&slots_json(s)).unwrap(), s);
        let c = CpiStack {
            base: 1,
            issue_stall: 2,
            l1_miss: 3,
            l2_miss: 4,
            handler: 5,
            coherence_wait: 6,
        };
        assert_eq!(decode_cpi(&cpi_json(&c)).unwrap(), c);
    }
}
