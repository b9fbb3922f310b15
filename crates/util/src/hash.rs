//! Hashing helpers: FNV-1a 64 over bytes and over `Debug` renderings, and a
//! cheap multiply-shift hasher for integer-keyed hot-path maps.
//!
//! [`fnv1a_64`] names and checks the sweep store's entries
//! ([`crate::store`]). [`debug_hash`] streams a value's `Debug` output
//! through the hasher without ever materialising the string, so even a
//! large value costs O(1) memory; its users are the checkpoint
//! configuration hashes (`imo-cpu`'s `SimSession`, `imo-coherence`'s
//! `CohSession`), computed only when a run pauses or resumes. Memo keys
//! do not use it: they name the inputs a program or trace is generated
//! from, never the generated value.
//!
//! FNV-1a is not cryptographic. Collisions are tolerable: the store reads
//! back the full key behind each file name, and a checkpoint's
//! configuration hash only guards a resume against a mismatched session.

use std::collections::HashMap;
use std::fmt::{self, Debug, Write};
use std::hash::{BuildHasherDefault, Hasher};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of a byte slice.
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A [`fmt::Write`] sink that folds everything written into an FNV-1a state.
pub struct FnvWriter {
    state: u64,
}

impl FnvWriter {
    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// The current hash value.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for FnvWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        Ok(())
    }
}

/// Multiply-shift hasher for integer-keyed hot-path maps (cache-line
/// indices, page numbers). One `wrapping_mul` by a 64-bit odd constant plus
/// a xor-shift finish replaces SipHash's multi-round permutation — an order
/// of magnitude cheaper per lookup, which matters in the simulators' inner
/// loops where every memory reference consults such a map.
///
/// Only suitable where keys are not attacker-controlled (simulated
/// addresses, page indices). Iteration order is arbitrary, exactly as with
/// the default hasher, so any serialization must sort — callers already do.
#[derive(Default)]
pub struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A `HashMap` keyed by machine words using [`WordHasher`].
pub type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// Hashes a value's `Debug` rendering without allocating the string.
///
/// Two values hash equal iff their `Debug` output is byte-identical, which
/// for the derive-`Debug` config types used as memo-key components means
/// structural equality.
#[must_use]
pub fn debug_hash<T: Debug + ?Sized>(value: &T) -> u64 {
    let mut w = FnvWriter::new();
    write!(w, "{value:?}").expect("FnvWriter never fails");
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn writer_matches_slice_hash() {
        let mut w = FnvWriter::new();
        w.write_str("foo").unwrap();
        w.write_str("bar").unwrap();
        assert_eq!(w.finish(), fnv1a_64(b"foobar"));
    }

    #[test]
    fn debug_hash_is_structural() {
        #[derive(Debug)]
        #[allow(dead_code)] // fields are only read through Debug
        struct P {
            x: u64,
            y: bool,
        }
        let a = debug_hash(&P { x: 3, y: true });
        let b = debug_hash(&P { x: 3, y: true });
        let c = debug_hash(&P { x: 4, y: true });
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn debug_hash_streams_large_values() {
        let big: Vec<u64> = (0..100_000).collect();
        let h1 = debug_hash(&big);
        let h2 = debug_hash(&big);
        assert_eq!(h1, h2);
        assert_ne!(h1, debug_hash(&(0..99_999).collect::<Vec<u64>>()));
    }
}
