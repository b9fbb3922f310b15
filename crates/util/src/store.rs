//! Content-addressed on-disk key→value store: the persistent L2 behind the
//! sweep memo cache.
//!
//! The in-process memoizer (`imo-bench::sweep`) dedups cells *within* one
//! run; this store dedups them *across* runs. Every entry lives under
//!
//! ```text
//! <dir>/v<SCHEMA_VERSION>/<code fingerprint, 16 hex>/<fnv1a(key), 16 hex>.json
//! ```
//!
//! so the full address of a value is `(store schema version, code
//! fingerprint, key)`. The *code fingerprint* is supplied by the caller —
//! the bench crate bakes in a build-time digest of every simulator crate's
//! sources — so any simulator change moves the whole store to a fresh
//! directory (wholesale invalidation), while a bench-matrix edit only
//! changes the keys of the touched cells (per-cell invalidation). Stale
//! fingerprint directories are garbage, reclaimed by `scripts/store_gc.sh`.
//!
//! ## Safety model: a cache miss is always an option
//!
//! The store can make a run faster; it can never make a run wrong:
//!
//! * **writes are atomic** — a value is rendered to a temp file in the same
//!   directory and `rename`d over the final path, so a reader sees either
//!   no entry or a complete one, never a torn write;
//! * **reads are verified** — every entry embeds its schema version, code
//!   fingerprint, the *full* key string (the file name is only a 64-bit
//!   hash of it), and an FNV-1a integrity hash of the payload's compact
//!   rendering. Any mismatch — torn file, flipped byte, wrong version,
//!   hash-colliding key — makes [`Store::get`] return `None` (and, in
//!   read-write mode, delete the bad entry so it is repaired by the
//!   recompute that follows);
//! * **failures are silent** — an unwritable directory or a full disk only
//!   bumps an error counter; the caller recomputes as if the store were
//!   cold.
//!
//! The payloads themselves are opaque [`Json`] values; callers bring their
//! own typed codecs (the bench crate's `codec` module encodes every counter
//! bit-exactly).

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::hash::fnv1a_64;
use crate::json::{parse, Json};

/// The `store` field every entry file carries.
pub const STORE_KIND: &str = "imo.store";

/// On-disk schema version; bump on any incompatible entry-format change.
/// Old versions become unreadable garbage under `v<old>/`, never misreads.
pub const SCHEMA_VERSION: u32 = 2;

/// Whether a [`Store`] may write (and repair) entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreMode {
    /// Serve hits, never touch the filesystem beyond reads: a consumer
    /// that must leave a shared store exactly as it found it.
    ReadOnly,
    /// Serve hits, persist new values, delete entries that fail
    /// verification so the following recompute repairs them.
    ReadWrite,
}

/// A point-in-time snapshot of a store's counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// `get` calls.
    pub probes: u64,
    /// Probes served with a fully verified payload.
    pub hits: u64,
    /// Probes with no entry on disk.
    pub misses: u64,
    /// Entries that existed but failed verification (torn/corrupt/wrong
    /// version/wrong fingerprint/key mismatch) or a caller's typed decode,
    /// and fell back to recompute.
    pub rejected: u64,
    /// Values persisted.
    pub writes: u64,
    /// Failed write attempts (the value was simply not persisted).
    pub write_errors: u64,
}

/// A content-addressed on-disk cache rooted at
/// `<dir>/v<SCHEMA_VERSION>/<fingerprint>/`.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    mode: StoreMode,
    fingerprint: u64,
    probes: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    rejected: AtomicU64,
    writes: AtomicU64,
    write_errors: AtomicU64,
}

/// Temp-file sequence shared by every [`Store`] in the process: two handles
/// on the same directory (tests, a library embedder) must not generate
/// colliding temp names, and pid disambiguates across processes.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl Store {
    /// Opens (lazily — no filesystem access until the first read or write)
    /// the store for `fingerprint` under `dir`.
    #[must_use]
    pub fn open(dir: &Path, mode: StoreMode, fingerprint: u64) -> Store {
        let root = dir.join(format!("v{SCHEMA_VERSION}")).join(format!("{fingerprint:016x}"));
        Store {
            root,
            mode,
            fingerprint,
            probes: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
        }
    }

    /// The store's mode.
    #[must_use]
    pub fn mode(&self) -> StoreMode {
        self.mode
    }

    /// The code fingerprint this store is addressed by.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The directory entries live in (`<dir>/v<SCHEMA_VERSION>/<fp>`).
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Where `key`'s entry lives. The file name is only a 64-bit hash of
    /// the key; the full key string inside the entry disambiguates
    /// collisions on read.
    #[must_use]
    pub fn entry_path(&self, key: &str) -> PathBuf {
        self.root.join(format!("{:016x}.json", fnv1a_64(key.as_bytes())))
    }

    /// Fetches and fully verifies `key`'s payload. Returns `None` — never a
    /// wrong payload — on a missing entry or any verification failure; in
    /// read-write mode a failing entry is deleted so the recompute that
    /// follows repairs it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<Json> {
        self.probes.fetch_add(1, Ordering::Relaxed);
        let path = self.entry_path(key);
        let Ok(text) = fs::read_to_string(&path) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        match self.verify(key, &text) {
            Some(payload) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(payload)
            }
            None => {
                self.reject_path(&path);
                None
            }
        }
    }

    /// Checks every field of an entry: kind, schema version, fingerprint,
    /// full key equality, and the payload integrity hash.
    fn verify(&self, key: &str, text: &str) -> Option<Json> {
        let doc = parse(text).ok()?;
        if doc.get("store").and_then(Json::as_str) != Some(STORE_KIND) {
            return None;
        }
        if doc.get("version").and_then(Json::as_f64) != Some(f64::from(SCHEMA_VERSION)) {
            return None;
        }
        let fp = doc.get("fingerprint").and_then(Json::as_str)?;
        if u64::from_str_radix(fp, 16).ok()? != self.fingerprint {
            return None;
        }
        if doc.get("key").and_then(Json::as_str) != Some(key) {
            return None;
        }
        let integrity = doc.get("integrity").and_then(Json::as_str)?;
        let payload = doc.get("payload")?;
        if u64::from_str_radix(integrity, 16).ok()? != fnv1a_64(payload.compact().as_bytes()) {
            return None;
        }
        Some(payload.clone())
    }

    /// Records that `key`'s entry verified at the store layer but failed
    /// the caller's typed decode — counted (and repaired) like any other
    /// rejection.
    pub fn reject(&self, key: &str) {
        self.reject_path(&self.entry_path(key));
    }

    fn reject_path(&self, path: &Path) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        if self.mode == StoreMode::ReadWrite {
            let _ = fs::remove_file(path);
        }
    }

    /// Persists `payload` under `key` atomically (temp file + rename).
    /// Returns whether a value was written; read-only stores and
    /// filesystem errors return `false` without disturbing the run.
    pub fn put(&self, key: &str, payload: &Json) -> bool {
        if self.mode != StoreMode::ReadWrite {
            return false;
        }
        let doc = Json::obj([
            ("store", Json::from(STORE_KIND)),
            ("version", Json::from(u64::from(SCHEMA_VERSION))),
            ("fingerprint", Json::Str(format!("{:016x}", self.fingerprint))),
            ("key", Json::from(key)),
            ("integrity", Json::Str(format!("{:016x}", fnv1a_64(payload.compact().as_bytes())))),
            ("payload", payload.clone()),
        ]);
        match self.write_atomic(key, &doc) {
            Ok(()) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(_) => {
                self.write_errors.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    fn write_atomic(&self, key: &str, doc: &Json) -> std::io::Result<()> {
        fs::create_dir_all(&self.root)?;
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = self.root.join(format!(
            ".tmp.{}.{}.{:016x}",
            std::process::id(),
            seq,
            fnv1a_64(key.as_bytes())
        ));
        fs::write(&tmp, doc.pretty())?;
        fs::rename(&tmp, self.entry_path(key)).inspect_err(|_| {
            let _ = fs::remove_file(&tmp);
        })
    }

    /// A snapshot of the counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            probes: self.probes.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    /// A fresh private store directory, removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
            let p = std::env::temp_dir()
                .join(format!("imo-store-test-{}-{seq}-{tag}", std::process::id()));
            let _ = fs::remove_dir_all(&p);
            TempDir(p)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn payload() -> Json {
        Json::obj([("cycles", Json::Str("1a2b".into())), ("ok", Json::Bool(true))])
    }

    #[test]
    fn round_trip_and_layout() {
        let dir = TempDir::new("roundtrip");
        let store = Store::open(&dir.0, StoreMode::ReadWrite, 0xfeed);
        assert!(store.get("k1").is_none(), "cold store misses");
        assert!(store.put("k1", &payload()));
        assert_eq!(store.get("k1"), Some(payload()));
        let path = store.entry_path("k1");
        assert!(path.starts_with(dir.0.join(format!("v{SCHEMA_VERSION}")).join("000000000000feed")));
        assert!(path.exists());
        let s = store.stats();
        assert_eq!((s.probes, s.hits, s.misses, s.writes), (2, 1, 1, 1));
        assert_eq!((s.rejected, s.write_errors), (0, 0));
    }

    #[test]
    fn no_temp_files_survive_a_put() {
        let dir = TempDir::new("tmpfiles");
        let store = Store::open(&dir.0, StoreMode::ReadWrite, 1);
        assert!(store.put("k", &payload()));
        let leftovers: Vec<_> = fs::read_dir(store.root())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
    }

    #[test]
    fn read_only_store_never_writes_or_repairs() {
        let dir = TempDir::new("readonly");
        let rw = Store::open(&dir.0, StoreMode::ReadWrite, 2);
        assert!(rw.put("k", &payload()));
        let ro = Store::open(&dir.0, StoreMode::ReadOnly, 2);
        assert_eq!(ro.get("k"), Some(payload()));
        assert!(!ro.put("k2", &payload()));
        assert!(ro.get("k2").is_none());
        // Corrupt the entry: the read-only store rejects it but leaves the
        // file in place (repair is the writer's job).
        fs::write(rw.entry_path("k"), "garbage").unwrap();
        assert!(ro.get("k").is_none());
        assert!(rw.entry_path("k").exists());
        assert_eq!(ro.stats().rejected, 1);
    }

    #[test]
    fn corrupt_entries_are_rejected_and_repaired() {
        let dir = TempDir::new("corrupt");
        let store = Store::open(&dir.0, StoreMode::ReadWrite, 3);
        assert!(store.put("k", &payload()));
        let path = store.entry_path("k");
        let text = fs::read_to_string(&path).unwrap();
        // Truncate mid-file: unparseable → rejected and deleted.
        fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert_eq!(store.get("k"), None);
        assert!(!path.exists(), "rw store repairs by deleting the bad entry");
        // Flip a payload byte (keeps it parseable): integrity mismatch.
        assert!(store.put("k", &payload()));
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, text.replace("1a2b", "2a2b")).unwrap();
        assert_eq!(store.get("k"), None);
        assert_eq!(store.stats().rejected, 2);
        // A repaired put serves again.
        assert!(store.put("k", &payload()));
        assert_eq!(store.get("k"), Some(payload()));
    }

    #[test]
    fn wrong_version_and_wrong_fingerprint_are_rejected() {
        let dir = TempDir::new("version");
        let store = Store::open(&dir.0, StoreMode::ReadWrite, 4);
        assert!(store.put("k", &payload()));
        let path = store.entry_path("k");
        let text = fs::read_to_string(&path).unwrap();
        fs::write(
            &path,
            text.replace(&format!("\"version\": {SCHEMA_VERSION}"), "\"version\": 99"),
        )
        .unwrap();
        assert_eq!(store.get("k"), None);
        // An entry written under another fingerprint, copied into this
        // store's directory, still fails the embedded-fingerprint check.
        let other = Store::open(&dir.0, StoreMode::ReadWrite, 5);
        assert!(other.put("k", &payload()));
        fs::copy(other.entry_path("k"), store.entry_path("k")).unwrap();
        assert_eq!(store.get("k"), None);
        assert_eq!(store.stats().rejected, 2);
    }

    #[test]
    fn colliding_file_never_serves_the_wrong_key() {
        let dir = TempDir::new("collide");
        let store = Store::open(&dir.0, StoreMode::ReadWrite, 6);
        assert!(store.put("key-a", &payload()));
        // Force a "collision": key-b's slot holds key-a's entry.
        fs::copy(store.entry_path("key-a"), store.entry_path("key-b")).unwrap();
        assert_eq!(store.get("key-b"), None, "full-key check catches the mismatch");
        assert_eq!(store.get("key-a"), Some(payload()));
    }

    #[test]
    fn unwritable_dir_only_counts_an_error() {
        let dir = TempDir::new("unwritable");
        // A file where the cache directory should be: create_dir_all fails.
        fs::create_dir_all(&dir.0).unwrap();
        let blocker = dir.0.join(format!("v{SCHEMA_VERSION}"));
        fs::write(&blocker, "not a directory").unwrap();
        let store = Store::open(&dir.0, StoreMode::ReadWrite, 7);
        assert!(!store.put("k", &payload()));
        assert_eq!(store.stats().write_errors, 1);
        assert!(store.get("k").is_none());
    }
}
