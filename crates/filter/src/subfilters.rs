//! Predicate evaluation semantics: the definition the runtime engine is
//! held to.
//!
//! The functions here define exactly what each predicate means against a
//! parsed packet or session. [`eval_packet_pred`] / [`eval_session_pred`]
//! evaluate a predicate as written — protocol and field by name, operand
//! by type — and are the oracle: the runtime engine resolves the same
//! meaning into typed ops once at build ([`crate::program`]) and
//! `tests/tests/oracle.rs` checks it against a trie walk built on these
//! two.

use std::net::IpAddr;

use retina_wire::{IpProtocol, ParsedPacket};

use crate::ast::{Op, Predicate, Value};
use crate::datatypes::FieldValue;

/// Ones-complement-free CIDR membership test for IPv4.
#[inline]
pub fn v4_in(addr: IpAddr, net: u32, prefix: u8) -> bool {
    let IpAddr::V4(a) = addr else { return false };
    let mask = if prefix == 0 {
        0
    } else if prefix >= 32 {
        u32::MAX
    } else {
        !(u32::MAX >> prefix)
    };
    (u32::from(a) & mask) == (net & mask)
}

/// CIDR membership test for IPv6.
#[inline]
pub fn v6_in(addr: IpAddr, net: u128, prefix: u8) -> bool {
    let IpAddr::V6(a) = addr else { return false };
    let mask = if prefix == 0 {
        0
    } else if prefix >= 128 {
        u128::MAX
    } else {
        !(u128::MAX >> prefix)
    };
    (u128::from(a) & mask) == (net & mask)
}

/// Integer comparison under a filter operator.
#[inline]
pub fn cmp_int(lhs: u64, op: Op, value: &Value) -> bool {
    match (op, value) {
        (Op::Eq, Value::Int(v)) => lhs == *v,
        (Op::Ne, Value::Int(v)) => lhs != *v,
        (Op::Lt, Value::Int(v)) => lhs < *v,
        (Op::Le, Value::Int(v)) => lhs <= *v,
        (Op::Gt, Value::Int(v)) => lhs > *v,
        (Op::Ge, Value::Int(v)) => lhs >= *v,
        (Op::In, Value::IntRange(lo, hi)) => (*lo..=*hi).contains(&lhs),
        _ => false,
    }
}

/// String comparison under a filter operator. Regex matching is handled by
/// the caller (which owns the compiled regex cache).
#[inline]
pub fn cmp_str(lhs: &str, op: Op, value: &Value) -> bool {
    match (op, value) {
        (Op::Eq, Value::Str(v)) => lhs == v,
        (Op::Ne, Value::Str(v)) => lhs != v,
        _ => false,
    }
}

/// IP-address comparison under a filter operator.
#[inline]
pub fn cmp_ip(lhs: IpAddr, op: Op, value: &Value) -> bool {
    let matches = match value {
        Value::Ipv4Net(net, prefix) => v4_in(lhs, u32::from(*net), *prefix),
        Value::Ipv6Net(net, prefix) => v6_in(lhs, u128::from(*net), *prefix),
        _ => return false,
    };
    match op {
        Op::Eq | Op::In => matches,
        Op::Ne => !matches,
        _ => false,
    }
}

/// Reads a packet-layer field out of a [`ParsedPacket`]. Returns `None`
/// when the field does not apply to this packet (wrong protocol).
pub fn packet_field<'a>(
    pkt: &'a ParsedPacket,
    protocol: &str,
    field: &str,
) -> Option<PacketFieldRef<'a>> {
    match (protocol, field) {
        ("ipv4", "addr") if pkt.is_ipv4() => Some(PacketFieldRef::IpPair(pkt.src_ip, pkt.dst_ip)),
        ("ipv4", "src_addr") if pkt.is_ipv4() => Some(PacketFieldRef::Ip(pkt.src_ip)),
        ("ipv4", "dst_addr") if pkt.is_ipv4() => Some(PacketFieldRef::Ip(pkt.dst_ip)),
        ("ipv4", "ttl") if pkt.is_ipv4() => Some(PacketFieldRef::Int(u64::from(pkt.ttl))),
        ("ipv4", "total_len") if pkt.is_ipv4() => Some(PacketFieldRef::Int(
            (pkt.payload_end - pkt.l3_offset) as u64,
        )),
        ("ipv6", "addr") if pkt.is_ipv6() => Some(PacketFieldRef::IpPair(pkt.src_ip, pkt.dst_ip)),
        ("ipv6", "src_addr") if pkt.is_ipv6() => Some(PacketFieldRef::Ip(pkt.src_ip)),
        ("ipv6", "dst_addr") if pkt.is_ipv6() => Some(PacketFieldRef::Ip(pkt.dst_ip)),
        ("ipv6", "hop_limit") if pkt.is_ipv6() => Some(PacketFieldRef::Int(u64::from(pkt.ttl))),
        ("tcp", "port") if pkt.protocol == IpProtocol::Tcp => Some(PacketFieldRef::IntPair(
            u64::from(pkt.src_port),
            u64::from(pkt.dst_port),
        )),
        ("tcp", "src_port") if pkt.protocol == IpProtocol::Tcp => {
            Some(PacketFieldRef::Int(u64::from(pkt.src_port)))
        }
        ("tcp", "dst_port") if pkt.protocol == IpProtocol::Tcp => {
            Some(PacketFieldRef::Int(u64::from(pkt.dst_port)))
        }
        ("tcp", "window") => match pkt.l4 {
            retina_wire::L4Header::Tcp { window, .. } => {
                Some(PacketFieldRef::Int(u64::from(window)))
            }
            _ => None,
        },
        ("udp", "port") if pkt.protocol == IpProtocol::Udp => Some(PacketFieldRef::IntPair(
            u64::from(pkt.src_port),
            u64::from(pkt.dst_port),
        )),
        ("udp", "src_port") if pkt.protocol == IpProtocol::Udp => {
            Some(PacketFieldRef::Int(u64::from(pkt.src_port)))
        }
        ("udp", "dst_port") if pkt.protocol == IpProtocol::Udp => {
            Some(PacketFieldRef::Int(u64::from(pkt.dst_port)))
        }
        ("icmp", "type") => match pkt.l4 {
            retina_wire::L4Header::Icmp { msg_type, .. } => {
                Some(PacketFieldRef::Int(u64::from(msg_type)))
            }
            _ => None,
        },
        ("icmp", "code") => match pkt.l4 {
            retina_wire::L4Header::Icmp { code, .. } => Some(PacketFieldRef::Int(u64::from(code))),
            _ => None,
        },
        _ => None,
    }
}

/// A packet field value; `*Pair` variants implement the either-endpoint
/// semantics of `addr` and `port` (the predicate holds if either side
/// satisfies it, per the paper's `tcp.port >= 100` expansion in Figure 3).
#[derive(Debug, Clone, Copy)]
pub enum PacketFieldRef<'a> {
    /// Single integer field.
    Int(u64),
    /// Either-endpoint integer field (src, dst).
    IntPair(u64, u64),
    /// Single address field.
    Ip(IpAddr),
    /// Either-endpoint address field (src, dst).
    IpPair(IpAddr, IpAddr),
    /// String field (unused at the packet layer today, reserved for
    /// extensions).
    Str(&'a str),
}

/// Evaluates a unary packet-layer predicate.
#[inline]
pub fn eval_packet_unary(protocol: &str, pkt: &ParsedPacket) -> bool {
    match protocol {
        "eth" => true,
        "ipv4" => pkt.is_ipv4(),
        "ipv6" => pkt.is_ipv6(),
        "tcp" => pkt.protocol == IpProtocol::Tcp,
        "udp" => pkt.protocol == IpProtocol::Udp,
        "icmp" => matches!(pkt.protocol, IpProtocol::Icmp | IpProtocol::Icmpv6),
        _ => false,
    }
}

/// Evaluates any packet-layer predicate against a parsed packet.
pub fn eval_packet_pred(pred: &Predicate, pkt: &ParsedPacket) -> bool {
    match pred {
        Predicate::Unary { protocol } => eval_packet_unary(protocol, pkt),
        Predicate::Binary {
            protocol,
            field,
            op,
            value,
        } => {
            let Some(fref) = packet_field(pkt, protocol, field) else {
                return false;
            };
            match fref {
                PacketFieldRef::Int(v) => cmp_int(v, *op, value),
                PacketFieldRef::IntPair(a, b) => cmp_int(a, *op, value) || cmp_int(b, *op, value),
                PacketFieldRef::Ip(a) => cmp_ip(a, *op, value),
                PacketFieldRef::IpPair(a, b) => cmp_ip(a, *op, value) || cmp_ip(b, *op, value),
                PacketFieldRef::Str(s) => cmp_str(s, *op, value),
            }
        }
    }
}

/// Evaluates a session-layer binary predicate against parsed session data.
/// `regexes` maps pattern text to its pre-compiled regex (compiled once at
/// filter-build time, mirroring the paper's `lazy_static` regexes).
pub fn eval_session_pred(
    pred: &Predicate,
    session: &dyn crate::datatypes::SessionData,
    regexes: &std::collections::HashMap<String, retina_support::rematch::Regex>,
) -> bool {
    let Predicate::Binary {
        field, op, value, ..
    } = pred
    else {
        // Unary predicates at the session layer are protocol identity,
        // checked by the caller against `session.protocol()`.
        return session.protocol() == pred.protocol();
    };
    let Some(fval) = session.field(field) else {
        return false;
    };
    match (fval, op, value) {
        (FieldValue::Str(s), Op::Matches, Value::Str(pattern)) => {
            regexes.get(pattern).is_some_and(|re| re.is_match(s))
        }
        (FieldValue::Str(s), _, _) => cmp_str(s, *op, value),
        (FieldValue::Int(i), _, _) => cmp_int(i, *op, value),
        (FieldValue::Ip(a), _, _) => cmp_ip(a, *op, value),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Expr;
    use crate::parser::parse;
    use retina_wire::build::{build_tcp, build_udp, TcpSpec, UdpSpec};
    use retina_wire::TcpFlags;

    fn pred(src: &str) -> Predicate {
        let Expr::Predicate(p) = parse(src).unwrap() else {
            panic!("not a predicate: {src}")
        };
        p
    }

    fn tcp_pkt(src: &str, dst: &str) -> (Vec<u8>, ParsedPacket) {
        let frame = build_tcp(&TcpSpec {
            src: src.parse().unwrap(),
            dst: dst.parse().unwrap(),
            seq: 1,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 512,
            ttl: 64,
            payload: b"",
        });
        let parsed = ParsedPacket::parse(&frame).unwrap();
        (frame, parsed)
    }

    #[test]
    fn unary_predicates() {
        let (_, pkt) = tcp_pkt("10.0.0.1:1000", "10.0.0.2:443");
        assert!(eval_packet_pred(&pred("ipv4"), &pkt));
        assert!(!eval_packet_pred(&pred("ipv6"), &pkt));
        assert!(eval_packet_pred(&pred("tcp"), &pkt));
        assert!(!eval_packet_pred(&pred("udp"), &pkt));
        assert!(eval_packet_pred(&pred("eth"), &pkt));
    }

    #[test]
    fn port_either_endpoint() {
        let (_, pkt) = tcp_pkt("10.0.0.1:50000", "10.0.0.2:443");
        assert!(eval_packet_pred(&pred("tcp.port = 443"), &pkt));
        assert!(eval_packet_pred(&pred("tcp.port = 50000"), &pkt));
        assert!(!eval_packet_pred(&pred("tcp.port = 80"), &pkt));
        assert!(eval_packet_pred(&pred("tcp.dst_port = 443"), &pkt));
        assert!(!eval_packet_pred(&pred("tcp.src_port = 443"), &pkt));
        assert!(eval_packet_pred(&pred("tcp.port >= 100"), &pkt));
        assert!(eval_packet_pred(&pred("tcp.port in 400..500"), &pkt));
        assert!(!eval_packet_pred(&pred("tcp.port in 10..20"), &pkt));
    }

    #[test]
    fn addr_either_endpoint() {
        let (_, pkt) = tcp_pkt("10.1.2.3:1", "93.184.216.34:2");
        assert!(eval_packet_pred(&pred("ipv4.addr in 10.0.0.0/8"), &pkt));
        assert!(eval_packet_pred(&pred("ipv4.addr in 93.184.0.0/16"), &pkt));
        assert!(!eval_packet_pred(&pred("ipv4.addr in 172.16.0.0/12"), &pkt));
        assert!(eval_packet_pred(&pred("ipv4.src_addr = 10.1.2.3"), &pkt));
        assert!(!eval_packet_pred(&pred("ipv4.dst_addr = 10.1.2.3"), &pkt));
        assert!(eval_packet_pred(&pred("ipv4.dst_addr != 10.1.2.3"), &pkt));
    }

    #[test]
    fn ttl_comparisons() {
        let (_, pkt) = tcp_pkt("1.1.1.1:1", "2.2.2.2:2");
        assert!(eval_packet_pred(&pred("ipv4.ttl = 64"), &pkt));
        assert!(!eval_packet_pred(&pred("ipv4.ttl > 64"), &pkt));
        assert!(eval_packet_pred(&pred("ipv4.ttl >= 64"), &pkt));
        assert!(eval_packet_pred(&pred("ipv4.ttl < 65"), &pkt));
        assert!(eval_packet_pred(&pred("ipv4.ttl != 63"), &pkt));
    }

    #[test]
    fn window_field() {
        let (_, pkt) = tcp_pkt("1.1.1.1:1", "2.2.2.2:2");
        assert!(eval_packet_pred(&pred("tcp.window = 512"), &pkt));
    }

    #[test]
    fn udp_fields_do_not_match_tcp_packets() {
        let (_, pkt) = tcp_pkt("1.1.1.1:1", "2.2.2.2:2");
        assert!(!eval_packet_pred(&pred("udp.port = 1"), &pkt));
    }

    #[test]
    fn udp_packet_fields() {
        let frame = build_udp(&UdpSpec {
            src: "1.1.1.1:53".parse().unwrap(),
            dst: "2.2.2.2:40000".parse().unwrap(),
            ttl: 64,
            payload: b"x",
        });
        let pkt = ParsedPacket::parse(&frame).unwrap();
        assert!(eval_packet_pred(&pred("udp.port = 53"), &pkt));
        assert!(eval_packet_pred(&pred("udp.src_port = 53"), &pkt));
        assert!(!eval_packet_pred(&pred("tcp.port = 53"), &pkt));
    }

    #[test]
    fn ipv6_fields() {
        let frame = build_tcp(&TcpSpec {
            src: "[2001:db8::1]:5000".parse().unwrap(),
            dst: "[2607:f8b0::99]:443".parse().unwrap(),
            seq: 1,
            ack: 0,
            flags: TcpFlags::ACK,
            window: 64,
            ttl: 55,
            payload: b"",
        });
        let pkt = ParsedPacket::parse(&frame).unwrap();
        assert!(eval_packet_pred(&pred("ipv6"), &pkt));
        assert!(eval_packet_pred(&pred("ipv6.addr in 2001:db8::/32"), &pkt));
        assert!(eval_packet_pred(&pred("ipv6.hop_limit = 55"), &pkt));
        assert!(!eval_packet_pred(&pred("ipv4.addr in 10.0.0.0/8"), &pkt));
    }

    #[test]
    fn cidr_helpers() {
        let a: IpAddr = "10.1.2.3".parse().unwrap();
        assert!(v4_in(
            a,
            u32::from("10.0.0.0".parse::<std::net::Ipv4Addr>().unwrap()),
            8
        ));
        assert!(!v4_in(
            a,
            u32::from("11.0.0.0".parse::<std::net::Ipv4Addr>().unwrap()),
            8
        ));
        assert!(v4_in(a, 0, 0)); // /0 matches everything
        let b: IpAddr = "2001:db8::1".parse().unwrap();
        assert!(!v4_in(b, 0, 0)); // wrong family
        assert!(v6_in(
            b,
            u128::from("2001:db8::".parse::<std::net::Ipv6Addr>().unwrap()),
            32
        ));
        assert!(!v6_in(a, 0, 0));
    }

    struct FakeSession;
    impl crate::datatypes::SessionData for FakeSession {
        fn protocol(&self) -> &str {
            "tls"
        }
        fn field(&self, name: &str) -> Option<FieldValue<'_>> {
            match name {
                "sni" => Some(FieldValue::Str("www.netflix.com")),
                "version" => Some(FieldValue::Int(771)),
                _ => None,
            }
        }
    }

    #[test]
    fn session_predicates() {
        let mut regexes = std::collections::HashMap::new();
        regexes.insert(
            "netflix".to_string(),
            retina_support::rematch::Regex::new("netflix").unwrap(),
        );
        assert!(eval_session_pred(
            &pred("tls.sni ~ 'netflix'"),
            &FakeSession,
            &regexes
        ));
        assert!(eval_session_pred(
            &pred("tls.version = 771"),
            &FakeSession,
            &regexes
        ));
        assert!(!eval_session_pred(
            &pred("tls.version = 770"),
            &FakeSession,
            &regexes
        ));
        assert!(eval_session_pred(
            &pred("tls.sni = 'www.netflix.com'"),
            &FakeSession,
            &regexes
        ));
        // Absent field never matches.
        assert!(!eval_session_pred(
            &pred("tls.alpn = 'h2'"),
            &FakeSession,
            &regexes
        ));
        // A regex missing from the cache (never happens after build) is a
        // non-match, not a panic.
        assert!(!eval_session_pred(
            &pred("tls.sni ~ 'other'"),
            &FakeSession,
            &regexes
        ));
    }
}
