//! Robustness proof for the content-addressed on-disk sweep store
//! (DESIGN.md §14): a store entry can be torn, truncated, bit-flipped,
//! version-skewed, raced by concurrent writers, or deleted outright, and
//! [`Store::get`] must still return either the exact original payload or
//! `None` — never a different payload, never a panic. `None` falls back to
//! a deterministic recompute, so no corruption can alter a gated counter.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

use imo_bench::codec::{decode_result, result_json};
use informing_memops::util::json::Json;
use informing_memops::util::rng::SmallRng;
use informing_memops::util::snapshot;
use informing_memops::util::store::{Store, StoreMode, SCHEMA_VERSION};

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

/// A fresh private store directory under the system temp dir, removed on
/// drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let p = std::env::temp_dir()
            .join(format!("imo-store-identity-{}-{seq}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        TempDir(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// A real simulator result payload, exactly as the sweep store persists it:
/// `ora` at test scale through the store's `RunResult` codec.
fn real_run_payload() -> Json {
    use imo_core::instrument::{instrument, Scheme};
    use imo_core::Machine;
    use imo_cpu::RunLimits;
    use imo_workloads::{by_name, Scale};
    let spec = by_name("ora").expect("workload exists");
    let program = (spec.build)(Scale::Test);
    let inst = instrument(&program, &Scheme::None).expect("instruments");
    let machine = Machine::default_ooo();
    let result = machine.run_limited(&inst.program, RunLimits::default()).expect("runs");
    result_json(&result)
}

#[test]
fn real_result_payload_round_trips_bit_exactly() {
    let dir = TempDir::new("roundtrip");
    let store = Store::open(&dir.0, StoreMode::ReadWrite, 0x1996);
    let payload = real_run_payload();
    assert!(store.put("cpu-run/ora/test", &payload));
    let served = store.get("cpu-run/ora/test").expect("hit");
    assert_eq!(served, payload);
    // The decoded RunResult is bit-identical too (hex/bit-pattern codec).
    let a = decode_result(&payload).expect("decodes");
    let b = decode_result(&served).expect("decodes");
    assert_eq!(a, b);
}

#[test]
fn truncations_at_every_length_never_serve_a_wrong_payload() {
    let dir = TempDir::new("truncate");
    let store = Store::open(&dir.0, StoreMode::ReadWrite, 1);
    let payload = real_run_payload();
    let key = "cell/truncate";
    assert!(store.put(key, &payload));
    let text = fs::read_to_string(store.entry_path(key)).expect("entry exists");
    // Every strict prefix is a torn write the atomic rename is supposed to
    // prevent; even if one appeared, it must read as the exact original
    // payload (a prefix that only lost trailing whitespace still verifies)
    // or a miss — never a different value, never a panic.
    for len in 0..text.len() {
        fs::write(store.entry_path(key), &text[..len]).expect("truncate");
        if let Some(v) = store.get(key) {
            assert_eq!(v, payload, "prefix of {len} bytes served a different payload");
        }
        // A miss deleted the torn file; either way restore for the next
        // length.
        assert!(store.put(key, &payload));
    }
    assert_eq!(store.get(key), Some(payload));
}

#[test]
fn wrong_version_envelope_is_rejected_and_repaired() {
    let dir = TempDir::new("version");
    let store = Store::open(&dir.0, StoreMode::ReadWrite, 2);
    let payload = Json::obj([("v", snapshot::u64_json(7))]);
    assert!(store.put("k", &payload));
    let path = store.entry_path("k");
    let text = fs::read_to_string(&path).expect("entry exists");
    let skewed = text.replace(&format!("\"version\": {SCHEMA_VERSION}"), "\"version\": 99");
    assert_ne!(skewed, text, "version field present to skew");
    fs::write(&path, skewed).expect("rewrite");
    assert_eq!(store.get("k"), None);
    assert!(!path.exists(), "read-write store deletes the skewed entry");
    assert!(store.put("k", &payload), "repair path writes again");
    assert_eq!(store.get("k"), Some(payload));
}

#[test]
fn concurrent_writers_racing_one_key_never_tear() {
    let dir = TempDir::new("race");
    let base = real_run_payload();
    // Two distinct but individually valid payloads racing the same key —
    // readers must only ever observe one of them, whole.
    let p1 = Arc::new(base.clone());
    let p2 = Arc::new(Json::obj([("alt", base)]));
    let key = "cell/raced";
    let writers: Vec<_> = [Arc::clone(&p1), Arc::clone(&p2)]
        .into_iter()
        .map(|payload| {
            let dir = dir.0.clone();
            std::thread::spawn(move || {
                // Each writer is its own Store handle, like two processes.
                let store = Store::open(&dir, StoreMode::ReadWrite, 3);
                for _ in 0..200 {
                    assert!(store.put(key, &payload));
                }
            })
        })
        .collect();
    // The reader makes at least 400 reads and keeps going until it has
    // seen a value or both writers are done, so a reader that races ahead
    // of the writers' first put cannot finish empty-handed.
    let writers_done = Arc::new(AtomicBool::new(false));
    let reader = {
        let dir = dir.0.clone();
        let (p1, p2) = (Arc::clone(&p1), Arc::clone(&p2));
        let writers_done = Arc::clone(&writers_done);
        std::thread::spawn(move || {
            let store = Store::open(&dir, StoreMode::ReadOnly, 3);
            let mut observed = 0u32;
            let mut reads = 0u32;
            loop {
                let done = writers_done.load(Ordering::SeqCst);
                if let Some(v) = store.get(key) {
                    assert!(v == *p1 || v == *p2, "reader saw a payload nobody wrote");
                    observed += 1;
                }
                reads += 1;
                if reads >= 400 && (observed > 0 || done) {
                    return observed;
                }
            }
        })
    };
    for w in writers {
        w.join().expect("writer thread");
    }
    writers_done.store(true, Ordering::SeqCst);
    let observed = reader.join().expect("reader thread");
    assert!(observed > 0, "reader never saw a value despite 400 writes");
    let final_value = Store::open(&dir.0, StoreMode::ReadOnly, 3).get(key).expect("final value");
    assert!(final_value == *p1 || final_value == *p2);
}

#[test]
fn seeded_corruption_sweep_returns_original_or_nothing() {
    let dir = TempDir::new("sweep");
    let store = Store::open(&dir.0, StoreMode::ReadWrite, 4);
    let payloads: Vec<(String, Json)> = (0..24u64)
        .map(|i| {
            let key = format!("cell/corrupt-{i}");
            let payload = Json::obj([
                ("cycles", snapshot::u64_json(0x1996 + i)),
                ("miss_bits", snapshot::u64_json(i.wrapping_mul(0x9e37_79b9))),
                ("label", Json::from(format!("cell-{i}").as_str())),
            ]);
            (key, payload)
        })
        .collect();

    let mut rng = SmallRng::seed_from_u64(0x1996_0809);
    for (key, payload) in &payloads {
        assert!(store.put(key, payload));
        let path = store.entry_path(key);
        let original = fs::read(&path).expect("entry bytes");
        for round in 0..16 {
            // A fresh copy each round, then one seeded mutation.
            let mut bytes = original.clone();
            match rng.next_u64() % 4 {
                0 => bytes.truncate((rng.next_u64() as usize) % bytes.len().max(1)),
                1 => {
                    let at = (rng.next_u64() as usize) % bytes.len();
                    bytes[at] ^= 1 << (rng.next_u64() % 8);
                }
                2 => {
                    for b in &mut bytes {
                        *b = rng.next_u64() as u8;
                    }
                }
                _ => bytes.clear(),
            }
            fs::write(&path, &bytes).expect("corrupt");
            // The only acceptable outcomes: the exact original payload
            // (mutation hit insignificant whitespace) or a miss that falls
            // back to recompute. Anything else would alter a gated counter.
            match store.get(key) {
                Some(v) => assert_eq!(&v, payload, "round {round}: corrupted {key} changed"),
                None => {
                    // Repair: recompute-and-put restores service.
                    assert!(store.put(key, payload));
                    assert_eq!(store.get(key), Some(payload.clone()));
                }
            }
            fs::write(&path, &original).expect("restore");
        }
    }
}

#[test]
fn deleted_entries_and_missing_directories_are_plain_misses() {
    let dir = TempDir::new("missing");
    let store = Store::open(&dir.0, StoreMode::ReadWrite, 5);
    assert_eq!(store.get("never-written"), None, "missing directory tree");
    let payload = Json::obj([("v", snapshot::u64_json(1))]);
    assert!(store.put("k", &payload));
    fs::remove_file(store.entry_path("k")).expect("delete entry");
    assert_eq!(store.get("k"), None);
    let stats = store.stats();
    assert_eq!(stats.rejected, 0, "a deleted entry is a miss, not corruption");
    assert_eq!(stats.misses, 2);
}

#[test]
fn deeply_nested_entry_is_one_rejection_and_a_recompute() {
    // Far deeper than any document the store writes: the parser must turn
    // it into a verification failure, not overflow the reader's stack.
    let dir = TempDir::new("deep");
    let store = Store::open(&dir.0, StoreMode::ReadWrite, 6);
    let payload = Json::obj([("v", snapshot::u64_json(3))]);
    assert!(store.put("k", &payload));
    let path = store.entry_path("k");
    fs::write(&path, "[".repeat(100_000)).expect("overwrite entry");
    assert_eq!(store.get("k"), None);
    assert_eq!(store.stats().rejected, 1);
    assert!(!path.exists(), "read-write store deletes the rejected entry");
    assert!(store.put("k", &payload), "the recompute writes the entry again");
    assert_eq!(store.get("k"), Some(payload));
}
