//! Bakes the *code fingerprint* into the bench crate: an FNV-1a 64 digest
//! of every simulator crate's sources. The on-disk sweep store
//! (`imo-util::store`) is addressed by this fingerprint, so any change to
//! the simulator moves the whole store to a fresh directory — cached
//! results can never survive the code that produced them.
//!
//! The bench crate is deliberately *excluded*: it only decides which cells
//! exist, and every cell-shaping input is already part of the memo key.
//! Editing a bench matrix therefore invalidates exactly the touched cells,
//! not the store.

use std::fs;
use std::path::Path;

/// Simulator crates whose sources feed the fingerprint, in hash order.
const SIM_CRATES: &[&str] =
    &["util", "faults", "isa", "mem", "obs", "cpu", "core", "workloads", "coherence"];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

fn rust_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn main() {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("CARGO_MANIFEST_DIR");
    let crates = Path::new(&manifest).parent().expect("crates dir").to_path_buf();

    let mut files = Vec::new();
    for name in SIM_CRATES {
        let src = crates.join(name).join("src");
        println!("cargo:rerun-if-changed={}", src.display());
        rust_sources(&src, &mut files);
    }
    // Sort by the path *relative to crates/*, so the digest is identical on
    // every checkout location.
    let mut keyed: Vec<(String, std::path::PathBuf)> = files
        .into_iter()
        .map(|p| {
            let rel = p.strip_prefix(&crates).unwrap_or(&p).to_string_lossy().replace('\\', "/");
            (rel, p)
        })
        .collect();
    keyed.sort();

    let mut hash = FNV_OFFSET;
    for (rel, path) in &keyed {
        let contents = fs::read(path).unwrap_or_default();
        fnv1a(&mut hash, rel.as_bytes());
        fnv1a(&mut hash, &[0]);
        fnv1a(&mut hash, &contents);
        fnv1a(&mut hash, &[0]);
    }

    println!("cargo:rustc-env=IMO_CODE_FINGERPRINT={hash:016x}");
}
