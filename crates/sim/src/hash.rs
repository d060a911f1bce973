//! Fast deterministic hashing for simulator-internal maps.
//!
//! The standard library's `HashMap` defaults to SipHash behind a
//! per-process random seed — DoS-resistant, but measurably slow on the
//! simulator's hot paths (per-packet record lookups, flow-table exact
//! index, buffered-flow maps), and randomly seeded, which is wasted
//! entropy here: nothing observable may depend on map iteration order
//! anyway (the golden-trace and chaos-determinism suites pin that), and
//! all keys are simulator-internal, not attacker-controlled.
//!
//! [`FxHasher`] is the classic multiply-rotate word hasher (as used by
//! rustc): a few cycles per word, identical across runs and platforms of
//! the same pointer width.
//!
//! Values that are *pinned* — event-stream digests, flow-granularity buffer
//! ids — use 64-bit FNV-1a instead: [`fnv1a`] is its one byte loop, and a
//! [`Piece`] is a constant string with that loop precomputed.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the Firefox/rustc "Fx" hash: a 64-bit odd constant
/// derived from pi with good bit-diffusion under wrapping multiply.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, deterministic, non-cryptographic hasher for internal keys.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Fold in the length so "ab" + "" and "a" + "b" differ.
            self.add(u64::from_le_bytes(tail) ^ (rest.len() as u64));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i.into());
    }
    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i.into());
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i.into());
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// A `HashMap` keyed with [`FxHasher`] — drop-in for simulator-internal
/// maps on hot paths. Deterministic across runs.
pub type FastHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` hashed with [`FxHasher`].
pub type FastHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// 64-bit FNV-1a offset basis: the state before any byte.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// 64-bit FNV-1a of `bytes`, continued from state `h` ([`FNV_OFFSET`] to
/// start). The workspace's one definition of the hash behind everything
/// that is pinned by value: event-stream digests and flow-granularity
/// buffer ids.
#[inline]
pub const fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    let mut i = 0;
    while i < bytes.len() {
        h = (h ^ bytes[i] as u64).wrapping_mul(FNV_PRIME);
        i += 1;
    }
    h
}

/// A constant string with its FNV-1a walk precomputed, so a digest folds
/// the whole string in one multiply-add instead of one multiply per byte.
///
/// XOR with a byte touches only the low 8 bits of the state `h`, and the
/// low 8 bits of `h·P` depend only on the low 8 bits of `h`; so the bits
/// of `h` above the low byte ride through all `n` steps as `·Pⁿ`, and for
/// a constant `s` (wrapping arithmetic throughout)
///
/// ```text
/// fnv1a(h, s) = h·Pⁿ + T[h & 0xFF]     T[l] = fnv1a(l, s) − l·Pⁿ
/// ```
///
/// The 256-entry table is computed by `const fn`: a `static` piece costs
/// 2 KB of read-only data and nothing at run time.
pub struct Piece {
    text: &'static str,
    pow: u64,
    add: [u64; 256],
}

impl Piece {
    /// The piece for `text`.
    pub const fn new(text: &'static str) -> Piece {
        let bytes = text.as_bytes();
        let mut pow = 1u64;
        let mut i = 0;
        while i < bytes.len() {
            pow = pow.wrapping_mul(FNV_PRIME);
            i += 1;
        }
        let mut add = [0u64; 256];
        let mut low = 0;
        while low < add.len() {
            add[low] = fnv1a(low as u64, bytes).wrapping_sub((low as u64).wrapping_mul(pow));
            low += 1;
        }
        Piece { text, pow, add }
    }

    /// The string itself, for sinks that keep text.
    pub const fn text(&self) -> &'static str {
        self.text
    }

    /// `fnv1a(h, self.text().as_bytes())`, in one step.
    #[inline]
    pub fn fold(&self, h: u64) -> u64 {
        h.wrapping_mul(self.pow)
            .wrapping_add(self.add[(h & 0xFF) as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_hasher_instances() {
        assert_eq!(hash_of(42u64), hash_of(42u64));
        assert_eq!(hash_of("flow"), hash_of("flow"));
        assert_eq!(hash_of((1u32, 2u16, 3u8)), hash_of((1u32, 2u16, 3u8)));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        assert_ne!(hash_of(0u64), hash_of(1u64));
        assert_ne!(hash_of("ab"), hash_of("ba"));
        // Unaligned tails with the same padded word must still differ.
        assert_ne!(hash_of([1u8, 0].as_slice()), hash_of([1u8].as_slice()));
    }

    #[test]
    fn fnv1a_matches_the_published_vectors_and_continues() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar")
        );
    }

    #[test]
    fn map_behaves_like_std() {
        let mut m: FastHashMap<u32, &str> = FastHashMap::default();
        m.insert(7, "seven");
        m.insert(9, "nine");
        assert_eq!(m.get(&7), Some(&"seven"));
        assert_eq!(m.remove(&9), Some("nine"));
        assert!(!m.contains_key(&9));
    }
}
