//! Symmetric Receive Side Scaling via the Toeplitz hash.
//!
//! RSS distributes packets among RX queues by hashing the connection
//! 4-tuple. Retina requires *symmetric* RSS (§5.1): both directions of a
//! connection must land on the same core so connection state never crosses
//! cores. We use the standard Toeplitz construction with the symmetric key
//! of Woo & Park — `0x6d5a` repeated — which guarantees
//! `hash(src, dst) == hash(dst, src)`.

use std::borrow::Cow;
use std::net::IpAddr;

use retina_wire::ParsedPacket;

/// Length of the Toeplitz key in bytes (enough for IPv6 input: 36 bytes of
/// input need 36+4 bytes of key).
const KEY_LEN: usize = 52;

/// The symmetric RSS key: `0x6d5a` repeated (Woo & Park, "Scalable TCP
/// Session Monitoring with Symmetric Receive-side Scaling").
pub const SYMMETRIC_KEY: [u8; KEY_LEN] = {
    let mut key = [0u8; KEY_LEN];
    let mut i = 0;
    while i < KEY_LEN {
        key[i] = if i % 2 == 0 { 0x6d } else { 0x5a };
        i += 1;
    }
    key
};

/// Longest hashable input: every input byte selects 32-bit key windows,
/// so the last one starts 4 bytes before the key's end.
const MAX_INPUT: usize = KEY_LEN - 4;

/// The Toeplitz contribution of every value of one input byte: entry `b`
/// is the XOR of the key windows selected by `b`'s set bits.
type ByteTable = [u32; 256];

/// The [`ByteTable`] of the input byte at offset `pos` under `key`.
const fn byte_table(key: &[u8; KEY_LEN], pos: usize) -> ByteTable {
    // The 40 key bits the byte's eight windows are cut from.
    let mut bits = 0u64;
    let mut j = 0;
    while j < 5 {
        bits = (bits << 8) | key[pos + j] as u64;
        j += 1;
    }
    let mut table = [0u32; 256];
    let mut b = 0;
    while b < 256 {
        let mut bit = 0;
        while bit < 8 {
            if b & (0x80 >> bit) != 0 {
                // The low 32 bits are the key window starting at `bit`.
                table[b] ^= ((bits >> (8 - bit)) & 0xffff_ffff) as u32;
            }
            bit += 1;
        }
        b += 1;
    }
    table
}

/// Tables of the symmetric key. The key repeats every two bytes, so the
/// tables do too: one for even input offsets, one for odd. Evaluated at
/// compile time — constructing the symmetric hasher allocates nothing.
static SYMMETRIC_TABLES: [ByteTable; 2] =
    [byte_table(&SYMMETRIC_KEY, 0), byte_table(&SYMMETRIC_KEY, 1)];

/// Toeplitz hasher over a configurable key, table-driven: one lookup per
/// input byte instead of eight shift-and-test steps.
#[derive(Debug, Clone)]
pub struct RssHasher {
    /// One table per input offset, repeating with the key's period.
    tables: Cow<'static, [ByteTable]>,
}

impl Default for RssHasher {
    fn default() -> Self {
        Self::symmetric()
    }
}

impl RssHasher {
    /// A hasher using the symmetric key (the configuration Retina installs).
    pub fn symmetric() -> Self {
        RssHasher {
            tables: Cow::Borrowed(&SYMMETRIC_TABLES),
        }
    }

    /// A hasher with a caller-provided key (e.g. Microsoft's reference key,
    /// which is *not* symmetric — used in tests to show why symmetry
    /// matters).
    pub fn with_key(key: [u8; KEY_LEN]) -> Self {
        RssHasher {
            tables: (0..MAX_INPUT).map(|pos| byte_table(&key, pos)).collect(),
        }
    }

    /// The raw Toeplitz hash of `input`.
    ///
    /// Each input bit selects a 32-bit window of the key; set bits XOR
    /// their window into the result.
    ///
    /// # Panics
    /// When `input` is longer than the key covers (48 bytes).
    pub fn toeplitz(&self, input: &[u8]) -> u32 {
        assert!(input.len() <= MAX_INPUT, "input too long for key");
        input
            .iter()
            .zip(self.tables.iter().cycle())
            .fold(0, |hash, (&byte, table)| hash ^ table[usize::from(byte)])
    }

    /// Hashes an IP 4-tuple (addresses + ports).
    pub fn hash_tuple(
        &self,
        src_ip: &IpAddr,
        dst_ip: &IpAddr,
        src_port: u16,
        dst_port: u16,
    ) -> u32 {
        let mut input = [0u8; 36];
        let len = match (src_ip, dst_ip) {
            (IpAddr::V4(s), IpAddr::V4(d)) => {
                input[0..4].copy_from_slice(&s.octets());
                input[4..8].copy_from_slice(&d.octets());
                input[8..10].copy_from_slice(&src_port.to_be_bytes());
                input[10..12].copy_from_slice(&dst_port.to_be_bytes());
                12
            }
            (IpAddr::V6(s), IpAddr::V6(d)) => {
                input[0..16].copy_from_slice(&s.octets());
                input[16..32].copy_from_slice(&d.octets());
                input[32..34].copy_from_slice(&src_port.to_be_bytes());
                input[34..36].copy_from_slice(&dst_port.to_be_bytes());
                36
            }
            // Mixed families cannot occur in one packet; hash nothing.
            _ => 0,
        };
        self.toeplitz(&input[..len])
    }

    /// Hashes a parsed packet's 4-tuple.
    pub fn hash_packet(&self, pkt: &ParsedPacket) -> u32 {
        self.hash_tuple(&pkt.src_ip, &pkt.dst_ip, pkt.src_port, pkt.dst_port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v4(s: &str) -> IpAddr {
        IpAddr::V4(s.parse().unwrap())
    }

    fn v6(s: &str) -> IpAddr {
        IpAddr::V6(s.parse().unwrap())
    }

    /// Microsoft's reference Toeplitz key and verification vectors from the
    /// RSS specification ("Verifying the RSS Hash Calculation").
    const MS_KEY: [u8; 52] = {
        let base = [
            0x6du8, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3,
            0x8f, 0xb0, 0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3,
            0x80, 0x30, 0xf2, 0x0c, 0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
        ];
        let mut key = [0u8; 52];
        let mut i = 0;
        while i < 40 {
            key[i] = base[i];
            i += 1;
        }
        key
    };

    /// The textbook bit-serial Toeplitz hash — the oracle the table-driven
    /// [`RssHasher::toeplitz`] is checked against: slide a 32-bit window
    /// along the key one bit per input bit, XOR it in on set bits.
    fn toeplitz_bit_serial(key: &[u8; KEY_LEN], input: &[u8]) -> u32 {
        let mut result = 0u32;
        let mut window = u32::from_be_bytes([key[0], key[1], key[2], key[3]]);
        for (i, byte) in input.iter().enumerate() {
            for bit in 0..8 {
                if byte & (0x80 >> bit) != 0 {
                    result ^= window;
                }
                let next = (i * 8) + bit + 32;
                let next_bit = (key[next / 8] >> (7 - (next % 8))) & 1;
                window = (window << 1) | u32::from(next_bit);
            }
        }
        result
    }

    #[test]
    fn tables_agree_with_bit_serial_oracle() {
        use retina_support::rand::{RngExt, SeedableRng, SmallRng};
        let mut rng = SmallRng::seed_from_u64(0x7e5);
        let mut random_key = [0u8; KEY_LEN];
        rng.fill(&mut random_key);
        for key in [SYMMETRIC_KEY, MS_KEY, random_key] {
            let table_driven = if key == SYMMETRIC_KEY {
                RssHasher::symmetric()
            } else {
                RssHasher::with_key(key)
            };
            for round in 0..2000 {
                // v4 (12-byte) and v6 (36-byte) tuples, then every other
                // length the key covers.
                let len = match round % 4 {
                    0 => 12,
                    1 => 36,
                    _ => rng.random_range(0..MAX_INPUT + 1),
                };
                let mut input = [0u8; MAX_INPUT];
                rng.fill(&mut input[..len]);
                assert_eq!(
                    table_driven.toeplitz(&input[..len]),
                    toeplitz_bit_serial(&key, &input[..len]),
                    "key {:02x?}.. input {:02x?}",
                    &key[..4],
                    &input[..len]
                );
            }
        }
    }

    #[test]
    fn hash_tuple_agrees_with_oracle_on_both_families() {
        let (s4, d4) = (v4("10.1.2.3"), v4("93.184.216.34"));
        let (s6, d6) = (v6("2001:db8::1"), v6("2607:f8b0::2"));
        let mut in4 = [0u8; 12];
        in4[..4].copy_from_slice(&[10, 1, 2, 3]);
        in4[4..8].copy_from_slice(&[93, 184, 216, 34]);
        in4[8..10].copy_from_slice(&50123u16.to_be_bytes());
        in4[10..].copy_from_slice(&443u16.to_be_bytes());
        let mut in6 = [0u8; 36];
        let (IpAddr::V6(a), IpAddr::V6(b)) = (s6, d6) else {
            unreachable!()
        };
        in6[..16].copy_from_slice(&a.octets());
        in6[16..32].copy_from_slice(&b.octets());
        in6[32..34].copy_from_slice(&50123u16.to_be_bytes());
        in6[34..].copy_from_slice(&443u16.to_be_bytes());
        for (hasher, key) in [
            (RssHasher::symmetric(), SYMMETRIC_KEY),
            (RssHasher::with_key(MS_KEY), MS_KEY),
        ] {
            assert_eq!(
                hasher.hash_tuple(&s4, &d4, 50123, 443),
                toeplitz_bit_serial(&key, &in4)
            );
            assert_eq!(
                hasher.hash_tuple(&s6, &d6, 50123, 443),
                toeplitz_bit_serial(&key, &in6)
            );
        }
    }

    #[test]
    #[should_panic(expected = "input too long")]
    fn over_long_input_is_rejected() {
        RssHasher::symmetric().toeplitz(&[0u8; MAX_INPUT + 1]);
    }

    #[test]
    fn microsoft_vector_ipv4_with_ports() {
        // 66.9.149.187:2794 -> 161.142.100.80:1766 => 0x51ccc178
        let hasher = RssHasher::with_key(MS_KEY);
        let mut input = [0u8; 12];
        input[0..4].copy_from_slice(&[66, 9, 149, 187]);
        input[4..8].copy_from_slice(&[161, 142, 100, 80]);
        input[8..10].copy_from_slice(&2794u16.to_be_bytes());
        input[10..12].copy_from_slice(&1766u16.to_be_bytes());
        assert_eq!(hasher.toeplitz(&input), 0x51ccc178);
    }

    #[test]
    fn microsoft_vector_ipv4_second() {
        // 199.92.111.2:14230 -> 65.69.140.83:4739 => 0xc626b0ea
        let hasher = RssHasher::with_key(MS_KEY);
        let mut input = [0u8; 12];
        input[0..4].copy_from_slice(&[199, 92, 111, 2]);
        input[4..8].copy_from_slice(&[65, 69, 140, 83]);
        input[8..10].copy_from_slice(&14230u16.to_be_bytes());
        input[10..12].copy_from_slice(&4739u16.to_be_bytes());
        assert_eq!(hasher.toeplitz(&input), 0xc626b0ea);
    }

    #[test]
    fn symmetric_key_is_symmetric_v4() {
        let hasher = RssHasher::symmetric();
        let fwd = hasher.hash_tuple(&v4("10.1.2.3"), &v4("93.184.216.34"), 50123, 443);
        let rev = hasher.hash_tuple(&v4("93.184.216.34"), &v4("10.1.2.3"), 443, 50123);
        assert_eq!(fwd, rev);
        assert_ne!(fwd, 0);
    }

    #[test]
    fn symmetric_key_is_symmetric_v6() {
        let hasher = RssHasher::symmetric();
        let fwd = hasher.hash_tuple(&v6("2001:db8::1"), &v6("2607:f8b0::2"), 55555, 443);
        let rev = hasher.hash_tuple(&v6("2607:f8b0::2"), &v6("2001:db8::1"), 443, 55555);
        assert_eq!(fwd, rev);
    }

    #[test]
    fn microsoft_key_is_not_symmetric() {
        // Demonstrates why the default key cannot be used for Retina.
        let hasher = RssHasher::with_key(MS_KEY);
        let fwd = hasher.hash_tuple(&v4("10.1.2.3"), &v4("93.184.216.34"), 50123, 443);
        let rev = hasher.hash_tuple(&v4("93.184.216.34"), &v4("10.1.2.3"), 443, 50123);
        assert_ne!(fwd, rev);
    }

    #[test]
    fn flows_spread_across_queues() {
        // The periodic symmetric key trades hash entropy for symmetry, so
        // we do not demand distinct 32-bit hashes. What load balancing
        // needs is an even spread of realistic flows across queues.
        let hasher = RssHasher::symmetric();
        let mut counts = [0usize; 8];
        let mut state = 0x12345678u64;
        let mut next = move || {
            // xorshift64* — deterministic pseudo-random flows.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state = state.wrapping_mul(0x2545F4914F6CDD1D);
            state
        };
        const FLOWS: usize = 4096;
        for _ in 0..FLOWS {
            let r = next();
            let src = v4(&format!(
                "10.{}.{}.{}",
                (r >> 8) & 0xff,
                (r >> 16) & 0xff,
                (r >> 24) & 0xff
            ));
            let dst = v4(&format!("171.64.{}.{}", (r >> 32) & 0xff, (r >> 40) & 0xff));
            let port = 1024 + ((r >> 48) & 0xffff) as u16 % 50000;
            let h = hasher.hash_tuple(&src, &dst, port, 443);
            counts[(h % 8) as usize] += 1;
        }
        for (q, &c) in counts.iter().enumerate() {
            // Each of the 8 queues should get 5–25% of 4096 flows.
            assert!(
                (FLOWS / 20..FLOWS / 4).contains(&c),
                "queue {q} got {c} of {FLOWS} flows: {counts:?}"
            );
        }
    }

    #[test]
    fn symmetric_key_yields_at_most_16_bits() {
        // The key is `0x6d5a` repeated, so every 32-bit window of it is
        // one of 16 rotations of the same word pair and an input bit's
        // contribution depends only on its position mod 16: the hash of
        // any input is `(x << 16 | x) ^ (y << 16 | y)`-shaped, 65,536
        // values at most. This is why nothing downstream may use
        // `rss_hash` as an identity (the conn index keys on a
        // fingerprint of the tuple; the hash only picks the queue).
        use retina_support::rand::{RngExt, SeedableRng, SmallRng};
        let hasher = RssHasher::symmetric();
        let mut rng = SmallRng::seed_from_u64(0x16b175);
        let mut seen = std::collections::HashSet::new();
        for round in 0..1_000_000u32 {
            let (sp, dp): (u16, u16) = (rng.random(), rng.random());
            let hash = if round % 4 == 0 {
                let (s, d): (u128, u128) = (rng.random(), rng.random());
                hasher.hash_tuple(&IpAddr::V6(s.into()), &IpAddr::V6(d.into()), sp, dp)
            } else {
                let (s, d): (u32, u32) = (rng.random(), rng.random());
                hasher.hash_tuple(&IpAddr::V4(s.into()), &IpAddr::V4(d.into()), sp, dp)
            };
            seen.insert(hash);
        }
        assert!(seen.len() <= 65_536, "{} distinct hashes", seen.len());
        assert!(seen.len() > 60_000, "and it does use them: {}", seen.len());
    }

    retina_support::proptest! {
        #[test]
        fn symmetry_holds_for_all_v4_tuples(
            a in retina_support::proptest::any::<u32>(),
            b in retina_support::proptest::any::<u32>(),
            pa in retina_support::proptest::any::<u16>(),
            pb in retina_support::proptest::any::<u16>(),
        ) {
            let hasher = RssHasher::symmetric();
            let sa = IpAddr::V4(a.into());
            let sb = IpAddr::V4(b.into());
            retina_support::prop_assert_eq!(
                hasher.hash_tuple(&sa, &sb, pa, pb),
                hasher.hash_tuple(&sb, &sa, pb, pa)
            );
        }
    }
}
