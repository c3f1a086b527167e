//! Connection identity: five-tuples, canonical table keys, and what a
//! connection's first packet showed the packet filter.

use std::net::{IpAddr, SocketAddr};

use retina_wire::{EtherType, IpProtocol, L4Header, ParsedPacket, TcpFlags};

/// Packet direction relative to the connection originator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Originator → responder.
    OrigToResp,
    /// Responder → originator.
    RespToOrig,
}

impl Dir {
    /// Flips the direction.
    pub fn flip(self) -> Dir {
        match self {
            Dir::OrigToResp => Dir::RespToOrig,
            Dir::RespToOrig => Dir::OrigToResp,
        }
    }
}

/// A connection five-tuple with originator/responder orientation.
///
/// The *originator* is whichever endpoint sent the first packet the
/// framework observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FiveTuple {
    /// Originator endpoint.
    pub orig: SocketAddr,
    /// Responder endpoint.
    pub resp: SocketAddr,
    /// IP protocol number (6 = TCP, 17 = UDP, …).
    pub proto: u8,
}

impl FiveTuple {
    /// Builds the tuple from a packet, treating its source as originator.
    pub fn from_packet(pkt: &ParsedPacket) -> FiveTuple {
        FiveTuple {
            orig: SocketAddr::new(pkt.src_ip, pkt.src_port),
            resp: SocketAddr::new(pkt.dst_ip, pkt.dst_port),
            proto: pkt.protocol.into(),
        }
    }

    /// The canonical, direction-independent table key.
    pub fn key(&self) -> ConnKey {
        ConnKey::new(self.orig, self.resp, self.proto)
    }

    /// The direction of a packet within this connection, or `None` if the
    /// packet belongs to a different connection.
    pub fn dir_of(&self, pkt: &ParsedPacket) -> Option<Dir> {
        let src = SocketAddr::new(pkt.src_ip, pkt.src_port);
        let dst = SocketAddr::new(pkt.dst_ip, pkt.dst_port);
        if src == self.orig && dst == self.resp {
            Some(Dir::OrigToResp)
        } else if src == self.resp && dst == self.orig {
            Some(Dir::RespToOrig)
        } else {
            None
        }
    }
}

/// What a connection's first packet showed the packet filter beyond its
/// [`FiveTuple`]: the TTL or hop limit, the IP length, and one L4 word —
/// the TCP window, or the ICMP type and code. Kept from insert, so a live
/// swap can put that packet to a new filter with no frame to parse.
#[derive(Debug, Clone, Copy)]
pub struct FirstPacket {
    ttl: u8,
    ip_len: u16,
    l4_word: u16,
}

impl FirstPacket {
    /// The facts of `pkt`, the packet that opens a connection.
    pub fn of(pkt: &ParsedPacket) -> FirstPacket {
        let l4_word = match pkt.l4 {
            L4Header::Tcp { window, .. } => window,
            L4Header::Icmp { msg_type, code } => u16::from_be_bytes([msg_type, code]),
            L4Header::Udp | L4Header::Other => 0,
        };
        FirstPacket {
            ttl: pkt.ttl,
            ip_len: u16::try_from(pkt.payload_end - pkt.l3_offset).unwrap_or(u16::MAX),
            l4_word,
        }
    }

    /// The first packet of `tuple`'s connection as the packet filter reads
    /// it: every field a packet-layer predicate tests is that packet's.
    /// No frame stands behind it: offsets count from the IP header, the
    /// payload is empty, and the TCP flags, sequence and acknowledgment
    /// numbers (which no filter reads) are zero.
    pub fn packet(self, tuple: &FiveTuple) -> ParsedPacket {
        let protocol = IpProtocol::from(tuple.proto);
        let [msg_type, code] = self.l4_word.to_be_bytes();
        let l4 = match protocol {
            IpProtocol::Tcp => L4Header::Tcp {
                flags: TcpFlags(0),
                seq: 0,
                ack: 0,
                window: self.l4_word,
            },
            IpProtocol::Udp => L4Header::Udp,
            IpProtocol::Icmp | IpProtocol::Icmpv6 => L4Header::Icmp { msg_type, code },
            _ => L4Header::Other,
        };
        let ip_len = usize::from(self.ip_len);
        ParsedPacket {
            ethertype: if tuple.orig.is_ipv4() {
                EtherType::Ipv4
            } else {
                EtherType::Ipv6
            },
            l3_offset: 0,
            l4_offset: ip_len,
            payload_offset: ip_len,
            payload_end: ip_len,
            src_ip: tuple.orig.ip(),
            dst_ip: tuple.resp.ip(),
            protocol,
            src_port: tuple.orig.port(),
            dst_port: tuple.resp.port(),
            ttl: self.ttl,
            l4,
            frame_len: ip_len,
        }
    }
}

impl std::fmt::Display for FiveTuple {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} -> {} (proto {})", self.orig, self.resp, self.proto)
    }
}

/// Canonical connection key: the endpoint pair ordered so both directions
/// of a connection hash identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ConnKey {
    lo: SocketAddr,
    hi: SocketAddr,
    proto: u8,
}

/// Seed and the two odd multipliers of [`ConnKey::fingerprint`]. Fixed,
/// as [`retina_support::hash::DEFAULT_SEED`] is: index layout is the
/// same run to run.
const FP_SEED: u64 = retina_support::hash::DEFAULT_SEED;
const FP_K1: u64 = 0x517c_c1b7_2722_0a95;
const FP_K2: u64 = 0xbf58_476d_1ce4_e5b9;

/// One step of [`ConnKey::fingerprint`]: rotate, fold a word in, multiply.
#[inline]
fn fp_mix(h: u64, word: u64, k: u64) -> u64 {
    (h.rotate_left(29) ^ word).wrapping_mul(k)
}

impl ConnKey {
    /// Builds a key from an endpoint pair.
    pub fn new(a: SocketAddr, b: SocketAddr, proto: u8) -> ConnKey {
        let (lo, hi) = if cmp_addr(&a, &b) <= std::cmp::Ordering::Equal {
            (a, b)
        } else {
            (b, a)
        };
        ConnKey { lo, hi, proto }
    }

    /// Builds the key for a packet's connection.
    pub fn from_packet(pkt: &ParsedPacket) -> ConnKey {
        ConnKey::new(
            SocketAddr::new(pkt.src_ip, pkt.src_port),
            SocketAddr::new(pkt.dst_ip, pkt.dst_port),
            pkt.protocol.into(),
        )
    }

    /// IP protocol number.
    pub fn proto(&self) -> u8 {
        self.proto
    }

    /// A 64-bit fingerprint of the key: for IPv4 two multiply-mixes over
    /// the canonical endpoints (both addresses in one word, ports and
    /// protocol in the other; an IPv6 address takes two words of its
    /// own), with no `derive(Hash)` walk over the `SocketAddr` enums.
    /// The connection index keys on it — the symmetric RSS hash alone
    /// carries 16 bits — and it is the one word [`Hash`] feeds a hasher.
    #[inline]
    #[must_use]
    #[allow(clippy::cast_possible_truncation)] // splitting a u128 into its two u64 halves
    pub fn fingerprint(&self) -> u64 {
        let h = match (self.lo.ip(), self.hi.ip()) {
            (IpAddr::V4(lo), IpAddr::V4(hi)) => {
                let addrs = (u64::from(u32::from(lo)) << 32) | u64::from(u32::from(hi));
                fp_mix(FP_SEED, addrs, FP_K1)
            }
            (lo, hi) => [lo, hi].iter().fold(FP_SEED, |h, ip| match ip {
                IpAddr::V4(v4) => fp_mix(h, u64::from(u32::from(*v4)), FP_K1),
                IpAddr::V6(v6) => {
                    let x = u128::from(*v6);
                    fp_mix(fp_mix(h, (x >> 64) as u64, FP_K1), x as u64, FP_K1)
                }
            }),
        };
        let rest = (u64::from(self.lo.port()) << 32)
            | (u64::from(self.hi.port()) << 16)
            | u64::from(self.proto);
        let h = fp_mix(h, rest, FP_K2);
        h ^ (h >> 32)
    }

    /// Whether this is the key of the connection `tuple` describes,
    /// in either orientation.
    #[inline]
    #[must_use]
    pub fn is_key_of(&self, tuple: &FiveTuple) -> bool {
        self.proto == tuple.proto
            && ((self.lo == tuple.orig && self.hi == tuple.resp)
                || (self.lo == tuple.resp && self.hi == tuple.orig))
    }
}

/// One `write_u64` of the fingerprint: equal keys have equal
/// fingerprints, so this agrees with `Eq`, and a map keyed by `ConnKey`
/// hashes one word instead of two `SocketAddr`s.
impl std::hash::Hash for ConnKey {
    #[inline]
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.fingerprint());
    }
}

#[cfg(test)]
impl ConnKey {
    /// The canonical endpoint pair.
    pub(crate) fn endpoints(&self) -> (SocketAddr, SocketAddr) {
        (self.lo, self.hi)
    }

    /// A *different* IPv4 key with the same [`ConnKey::fingerprint`],
    /// forged by running the mix backwards: every step is a bijection of
    /// the word it folds in, so for any other ports word there is exactly
    /// one addresses word that lands on the same fingerprint. (Tests of
    /// the index's full-key verification need such a pair.)
    pub(crate) fn forged_twin(&self) -> ConnKey {
        fn inverse(k: u64) -> u64 {
            // Newton's iteration for the inverse of an odd k mod 2^64.
            (0..6).fold(k, |x, _| {
                x.wrapping_mul(2u64.wrapping_sub(k.wrapping_mul(x)))
            })
        }
        let fp = self.fingerprint();
        let mixed = fp ^ (fp >> 32); // the final xor-shift is an involution
        for hi_port in 1..=u16::MAX {
            let rest = (u64::from(self.lo.port()) << 32)
                | (u64::from(hi_port) << 16)
                | u64::from(self.proto);
            let h = (mixed.wrapping_mul(inverse(FP_K2)) ^ rest).rotate_right(29);
            let addrs = h.wrapping_mul(inverse(FP_K1)) ^ FP_SEED.rotate_left(29);
            #[allow(clippy::cast_possible_truncation)] // splitting the word into its two addresses
            let (lo_ip, hi_ip) = ((addrs >> 32) as u32, addrs as u32);
            let lo = SocketAddr::new(IpAddr::V4(lo_ip.into()), self.lo.port());
            let hi = SocketAddr::new(IpAddr::V4(hi_ip.into()), hi_port);
            let twin = ConnKey::new(lo, hi, self.proto);
            // Canonical order may swap the endpoints; keep looking then.
            if twin.lo == lo && twin != *self && twin.fingerprint() == fp {
                return twin;
            }
        }
        unreachable!("half of all ports words give canonically ordered addresses")
    }
}

/// Orders endpoints: IPv4 before IPv6, then by address, then by port.
#[inline]
fn cmp_addr(a: &SocketAddr, b: &SocketAddr) -> std::cmp::Ordering {
    match (a, b) {
        // The per-packet case: two integer compares, no `u128`s.
        (SocketAddr::V4(a), SocketAddr::V4(b)) => {
            (u32::from(*a.ip()), a.port()).cmp(&(u32::from(*b.ip()), b.port()))
        }
        (SocketAddr::V6(a), SocketAddr::V6(b)) => {
            (u128::from(*a.ip()), a.port()).cmp(&(u128::from(*b.ip()), b.port()))
        }
        (SocketAddr::V4(_), SocketAddr::V6(_)) => std::cmp::Ordering::Less,
        (SocketAddr::V6(_), SocketAddr::V4(_)) => std::cmp::Ordering::Greater,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retina_wire::build::{build_tcp, TcpSpec};
    use retina_wire::TcpFlags;

    fn pkt(src: &str, dst: &str) -> ParsedPacket {
        let frame = build_tcp(&TcpSpec {
            src: src.parse().unwrap(),
            dst: dst.parse().unwrap(),
            seq: 0,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 64,
            ttl: 64,
            payload: b"",
        });
        ParsedPacket::parse(&frame).unwrap()
    }

    #[test]
    fn key_is_direction_independent() {
        let fwd = ConnKey::from_packet(&pkt("10.0.0.1:5000", "1.1.1.1:443"));
        let rev = ConnKey::from_packet(&pkt("1.1.1.1:443", "10.0.0.1:5000"));
        assert_eq!(fwd, rev);
        assert_eq!(fwd.proto(), 6);
    }

    #[test]
    fn different_connections_different_keys() {
        let a = ConnKey::from_packet(&pkt("10.0.0.1:5000", "1.1.1.1:443"));
        let b = ConnKey::from_packet(&pkt("10.0.0.1:5001", "1.1.1.1:443"));
        let c = ConnKey::from_packet(&pkt("10.0.0.2:5000", "1.1.1.1:443"));
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn five_tuple_orientation() {
        let first = pkt("10.0.0.1:5000", "1.1.1.1:443");
        let tuple = FiveTuple::from_packet(&first);
        assert_eq!(tuple.orig.port(), 5000);
        assert_eq!(tuple.resp.port(), 443);
        assert_eq!(tuple.dir_of(&first), Some(Dir::OrigToResp));
        let reply = pkt("1.1.1.1:443", "10.0.0.1:5000");
        assert_eq!(tuple.dir_of(&reply), Some(Dir::RespToOrig));
        let other = pkt("9.9.9.9:1:".trim_end_matches(':'), "1.1.1.1:443");
        assert_eq!(tuple.dir_of(&other), None);
    }

    #[test]
    fn v6_and_v4_keys_disjoint() {
        let v4 = ConnKey::from_packet(&pkt("10.0.0.1:5000", "1.1.1.1:443"));
        let v6 = ConnKey::from_packet(&pkt("[2001:db8::1]:5000", "[2001:db8::2]:443"));
        assert_ne!(v4, v6);
    }

    #[test]
    fn fingerprint_separates_a_scan() {
        // One source sweeping sequential destinations and ports: the
        // shape on which the symmetric RSS hash repeats every 65,536.
        let src: SocketAddr = "203.0.113.7:40000".parse().unwrap();
        let mut seen = std::collections::HashSet::new();
        for n in 0..100_000u32 {
            #[allow(clippy::cast_possible_truncation)] // ports cycle
            let dst = SocketAddr::new(
                IpAddr::V4((0x0a00_0000 + n).into()),
                1 + (n % 60_000) as u16,
            );
            assert!(seen.insert(ConnKey::new(src, dst, 6).fingerprint()));
        }
    }

    #[test]
    fn fingerprint_covers_every_field() {
        let base = ConnKey::from_packet(&pkt("10.0.0.1:5000", "1.1.1.1:443"));
        for other in [
            ConnKey::from_packet(&pkt("10.0.0.2:5000", "1.1.1.1:443")),
            ConnKey::from_packet(&pkt("10.0.0.1:5001", "1.1.1.1:443")),
            ConnKey::from_packet(&pkt("10.0.0.1:5000", "1.1.1.2:443")),
            ConnKey::from_packet(&pkt("10.0.0.1:5000", "1.1.1.1:444")),
            ConnKey::new(base.lo, base.hi, 17),
            ConnKey::from_packet(&pkt("[2001:db8::1]:5000", "[2001:db8::2]:443")),
            ConnKey::from_packet(&pkt("[2001:db8::1]:5000", "[2001:db9::2]:443")),
        ] {
            assert_ne!(base.fingerprint(), other.fingerprint(), "{other:?}");
        }
    }

    #[test]
    fn forged_twin_collides_on_the_fingerprint_only() {
        let key = ConnKey::from_packet(&pkt("10.0.0.1:5000", "1.1.1.1:443"));
        let twin = key.forged_twin();
        assert_ne!(key, twin);
        assert_eq!(key.fingerprint(), twin.fingerprint());
    }

    #[test]
    fn key_matches_its_tuple_in_both_orientations() {
        let fwd = FiveTuple::from_packet(&pkt("10.0.0.1:5000", "1.1.1.1:443"));
        let rev = FiveTuple::from_packet(&pkt("1.1.1.1:443", "10.0.0.1:5000"));
        let other = FiveTuple::from_packet(&pkt("10.0.0.1:5001", "1.1.1.1:443"));
        assert!(fwd.key().is_key_of(&fwd) && fwd.key().is_key_of(&rev));
        assert!(!fwd.key().is_key_of(&other));
    }

    #[test]
    fn dir_flip() {
        assert_eq!(Dir::OrigToResp.flip(), Dir::RespToOrig);
        assert_eq!(Dir::RespToOrig.flip(), Dir::OrigToResp);
    }

    retina_support::proptest! {
        #[test]
        fn key_symmetry_property(
            a in retina_support::proptest::any::<u32>(),
            b in retina_support::proptest::any::<u32>(),
            pa in retina_support::proptest::any::<u16>(),
            pb in retina_support::proptest::any::<u16>(),
        ) {
            let sa = SocketAddr::new(IpAddr::V4(a.into()), pa);
            let sb = SocketAddr::new(IpAddr::V4(b.into()), pb);
            retina_support::prop_assert_eq!(ConnKey::new(sa, sb, 6), ConnKey::new(sb, sa, 6));
        }
    }
}
