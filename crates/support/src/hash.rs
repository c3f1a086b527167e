//! Seeded, deterministic hashing for hot-path hash maps.
//!
//! `std::collections::HashMap` defaults to SipHash-1-3 behind a
//! per-process random seed. That is the right default for maps keyed by
//! attacker-controlled data, but it is wrong for Retina's per-packet
//! connection maps twice over:
//!
//! 1. **Cost** — re-running SipHash over the 5-tuple's two `SocketAddr`s
//!    on every lookup is the most expensive way to key a connection. The
//!    conn index keys on one 64-bit word instead — the connection key's
//!    hand-rolled fingerprint with the NIC's RSS hash folded in — so a
//!    hasher only needs to *spread* an integer, not provide keyed
//!    collision resistance (flood resistance comes from full-key
//!    verification in the arena, and the Toeplitz key is public
//!    anyway). The RSS hash alone is **not** such an integer: under the
//!    symmetric key (`0x6d5a` repeated) a bit's contribution depends
//!    only on its position mod 16, so the "32-bit" hash takes at most
//!    65,536 values on any traffic. It picks the queue; the fingerprint
//!    tells connections apart.
//! 2. **Determinism** — a random seed makes iteration/drain order differ
//!    run to run, which would leak into drain-time accounting order.
//!    Everything here is seeded explicitly, so identical inputs produce
//!    identical tables, byte for byte, across runs and across the
//!    threaded/`run_stepped` execution modes.
//!
//! [`FlowHasher`] is a multiply-xor (wyhash/fx-style) mixer: a handful
//! of cycles per `write_u64`, far cheaper than SipHash, with avalanche
//! good enough to spread structured integers across buckets. [`splitmix64`]
//! is the standalone finalizer used wherever a one-shot integer mix is
//! needed (trace sampling, the conn index's word hash).

/// The default seed for [`FlowHashState`]. Fixed (not random) so map
/// layout — and therefore iteration order — is identical across runs.
pub const DEFAULT_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 finalizer: a full-avalanche bijective mix of a 64-bit
/// value. Every output bit depends on every input bit.
#[inline]
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Multiplication constant from wyhash/FxHash lineage: odd, high
/// bit-entropy, good avalanche under `rotate ^ multiply`.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// A fast seeded hasher for flow-table keys.
///
/// Implements [`std::hash::Hasher`] so it can drive a standard
/// `HashMap`, but is *not* a keyed cryptographic hash — callers must not
/// rely on it for flood resistance (see module docs for why the conn
/// table doesn't need to).
#[derive(Debug, Clone)]
pub struct FlowHasher {
    state: u64,
}

impl FlowHasher {
    /// A hasher starting from `seed`.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        FlowHasher { state: seed }
    }

    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(25) ^ word).wrapping_mul(K);
    }
}

impl std::hash::Hasher for FlowHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Finalize so low output bits (what HashMap uses for bucket
        // selection) depend on all state bits.
        splitmix64(self.state)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Length-prefix so "ab","c" and "a","bc" differ.
        self.mix(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        // One mix, no length framing needed for a fixed-width write.
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        // The conn-table fast path: one mix of the index key (and of a
        // `ConnKey`, whose `Hash` is one `write_u64` of its fingerprint).
        self.mix(i);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }
}

/// A seeded [`std::hash::BuildHasher`] producing [`FlowHasher`]s.
///
/// Use as the `S` parameter of `HashMap`:
///
/// ```
/// use retina_support::hash::FlowHashState;
/// use std::collections::HashMap;
///
/// let mut m: HashMap<u32, &str, FlowHashState> =
///     HashMap::with_hasher(FlowHashState::default());
/// m.insert(0xdead_beef, "flow");
/// assert_eq!(m.get(&0xdead_beef), Some(&"flow"));
/// ```
#[derive(Debug, Clone)]
pub struct FlowHashState {
    seed: u64,
}

impl FlowHashState {
    /// A build-hasher with an explicit seed (e.g. per-shard seeds).
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        FlowHashState { seed }
    }

    /// The seed this state was built with.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl Default for FlowHashState {
    fn default() -> Self {
        FlowHashState { seed: DEFAULT_SEED }
    }
}

impl std::hash::BuildHasher for FlowHashState {
    type Hasher = FlowHasher;

    #[inline]
    fn build_hasher(&self) -> FlowHasher {
        FlowHasher::with_seed(self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash, Hasher};

    fn hash_of<T: Hash>(state: &FlowHashState, v: &T) -> u64 {
        state.hash_one(v)
    }

    #[test]
    fn deterministic_across_instances() {
        let a = FlowHashState::default();
        let b = FlowHashState::default();
        for v in [0u32, 1, 0xdead_beef, u32::MAX] {
            assert_eq!(hash_of(&a, &v), hash_of(&b, &v));
        }
    }

    #[test]
    fn seed_changes_output() {
        let a = FlowHashState::with_seed(1);
        let b = FlowHashState::with_seed(2);
        assert_ne!(hash_of(&a, &7u32), hash_of(&b, &7u32));
    }

    #[test]
    fn splitmix_avalanche() {
        // Flipping one input bit should flip roughly half the output
        // bits; demand at least a quarter for every bit position.
        for bit in 0..64 {
            let a = splitmix64(0x0123_4567_89ab_cdef);
            let b = splitmix64(0x0123_4567_89ab_cdef ^ (1 << bit));
            assert!(
                (a ^ b).count_ones() >= 16,
                "weak avalanche at bit {bit}: {:#x}",
                a ^ b
            );
        }
    }

    #[test]
    fn byte_stream_framing() {
        // Same concatenation, different split points must differ.
        let s = FlowHashState::default();
        let mut h1 = s.build_hasher();
        h1.write(b"ab");
        h1.write(b"c");
        let mut h2 = s.build_hasher();
        h2.write(b"a");
        h2.write(b"bc");
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn low_entropy_u32s_spread() {
        // Structured keys (the symmetric Toeplitz output is the extreme
        // case: 16 bits of entropy) must still spread across 256
        // buckets when sequential or varying only in a few bits.
        let s = FlowHashState::default();
        let mut counts = [0usize; 256];
        for i in 0..4096u32 {
            let h = hash_of(&s, &(i << 4)); // only mid bits vary
            counts[(h & 0xff) as usize] += 1;
        }
        let max = counts.iter().copied().max().unwrap();
        assert!(max < 64, "bucket skew too high: max {max} of 4096/256");
    }

    #[test]
    #[allow(clippy::cast_possible_truncation)] // low 32 of a mixed 64-bit draw as a synthetic key
    fn map_iteration_order_is_stable() {
        let build = || {
            let mut m: std::collections::HashMap<u32, u32, FlowHashState> =
                std::collections::HashMap::with_hasher(FlowHashState::default());
            for i in 0..1000u32 {
                m.insert(splitmix64(u64::from(i)) as u32, i);
            }
            m.keys().copied().collect::<Vec<_>>()
        };
        assert_eq!(build(), build(), "fixed seed must fix iteration order");
    }

    crate::proptest! {
        #![proptest_config(crate::proptest::ProptestConfig::with_cases(64))]
        #[test]
        fn equal_inputs_equal_hashes(v in crate::proptest::any::<u64>()) {
            let s = FlowHashState::default();
            crate::prop_assert_eq!(hash_of(&s, &v), hash_of(&s, &v));
        }
    }
}
