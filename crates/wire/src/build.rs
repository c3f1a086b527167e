//! Packet builders.
//!
//! These are used by the synthetic traffic generator and throughout the test
//! suites to construct valid Ethernet/IP/TCP/UDP frames, with correct length
//! fields and checksums, from a declarative spec.

// Narrowing casts in this file are intentional: wire formats pack values into fixed-width header fields.
#![allow(clippy::cast_possible_truncation)]

use std::net::{IpAddr, SocketAddr};

use crate::ethernet::{self, EtherType, MacAddr};
use crate::ip::IpProtocol;
use crate::ipv4::Ipv4Packet;
use crate::ipv6::Ipv6Packet;
use crate::tcp::{TcpFlags, TcpSegment};
use crate::udp::UdpDatagram;

/// Default source MAC used by built frames.
pub const DEFAULT_SRC_MAC: MacAddr = MacAddr([0x02, 0x00, 0x00, 0x00, 0x00, 0x01]);
/// Default destination MAC used by built frames.
pub const DEFAULT_DST_MAC: MacAddr = MacAddr([0x02, 0x00, 0x00, 0x00, 0x00, 0x02]);

/// Declarative description of a TCP packet.
#[derive(Debug, Clone)]
pub struct TcpSpec<'a> {
    /// Source address and port.
    pub src: SocketAddr,
    /// Destination address and port.
    pub dst: SocketAddr,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Flag bits (see [`TcpFlags`]).
    pub flags: u8,
    /// Receive window.
    pub window: u16,
    /// IPv4 TTL / IPv6 hop limit.
    pub ttl: u8,
    /// Payload bytes.
    pub payload: &'a [u8],
}

/// Declarative description of a UDP packet.
#[derive(Debug, Clone)]
pub struct UdpSpec<'a> {
    /// Source address and port.
    pub src: SocketAddr,
    /// Destination address and port.
    pub dst: SocketAddr,
    /// IPv4 TTL / IPv6 hop limit.
    pub ttl: u8,
    /// Payload bytes.
    pub payload: &'a [u8],
}

/// Bytes of Ethernet + IP header in front of the L4 header for this
/// address pair.
///
/// Panics on mixed address families (a programming error in the caller,
/// not a data-dependent condition).
fn l4_offset(src: IpAddr, dst: IpAddr) -> usize {
    match (src, dst) {
        (IpAddr::V4(_), IpAddr::V4(_)) => ethernet::HEADER_LEN + 20,
        (IpAddr::V6(_), IpAddr::V6(_)) => ethernet::HEADER_LEN + 40,
        _ => panic!("mixed address families in a frame spec"),
    }
}

impl TcpSpec<'_> {
    /// Length of the frame [`build_tcp_into`] writes for this spec.
    ///
    /// Panics if `src` and `dst` are not the same IP family.
    pub fn frame_len(&self) -> usize {
        l4_offset(self.src.ip(), self.dst.ip()) + crate::tcp::MIN_HEADER_LEN + self.payload.len()
    }
}

impl UdpSpec<'_> {
    /// Length of the frame [`build_udp_into`] writes for this spec.
    ///
    /// Panics if `src` and `dst` are not the same IP family.
    pub fn frame_len(&self) -> usize {
        l4_offset(self.src.ip(), self.dst.ip()) + crate::udp::HEADER_LEN + self.payload.len()
    }
}

/// Writes the Ethernet and IP headers of a frame carrying `l4_len` bytes
/// of `protocol`, over whatever `frame` held, and returns the L4 part.
fn fill_l2_l3(
    frame: &mut [u8],
    (src, dst): (IpAddr, IpAddr),
    protocol: IpProtocol,
    ttl: u8,
    l4_len: usize,
) -> &mut [u8] {
    let (l3, l4) = (ethernet::HEADER_LEN, l4_offset(src, dst));
    assert_eq!(
        frame.len(),
        l4 + l4_len,
        "frame buffer is not the frame's length"
    );
    frame[..l4].fill(0);
    frame[0..6].copy_from_slice(&DEFAULT_DST_MAC.0);
    frame[6..12].copy_from_slice(&DEFAULT_SRC_MAC.0);
    let ethertype = if src.is_ipv4() {
        EtherType::Ipv4
    } else {
        EtherType::Ipv6
    };
    frame[12..14].copy_from_slice(&u16::from(ethertype).to_be_bytes());
    match (src, dst) {
        (IpAddr::V4(src), IpAddr::V4(dst)) => {
            frame[l3] = 0x45;
            frame[l3 + 2..l3 + 4].copy_from_slice(&((20 + l4_len) as u16).to_be_bytes());
            let mut ip = Ipv4Packet::new_checked(&mut frame[l3..]).unwrap();
            ip.set_ttl(ttl);
            ip.set_protocol(protocol);
            ip.set_src(src);
            ip.set_dst(dst);
            ip.fill_checksum();
        }
        (IpAddr::V6(src), IpAddr::V6(dst)) => {
            frame[l3] = 0x60;
            let mut ip = Ipv6Packet::new_checked(&mut frame[l3..]).unwrap();
            ip.set_payload_len(l4_len as u16);
            ip.set_next_header(protocol);
            ip.set_hop_limit(ttl);
            ip.set_src(src);
            ip.set_dst(dst);
        }
        _ => unreachable!("l4_offset checked the families"),
    }
    &mut frame[l4..]
}

/// Builds a full Ethernet frame carrying a TCP segment in place: `frame`
/// is the frame's final home (say, the inside of a `Bytes::build`), of
/// exactly [`TcpSpec::frame_len`] bytes; whatever it held is overwritten.
///
/// Panics if `src` and `dst` are not the same IP family, or if `frame`
/// has another length.
pub fn build_tcp_into(spec: &TcpSpec<'_>, frame: &mut [u8]) {
    let l4_len = crate::tcp::MIN_HEADER_LEN + spec.payload.len();
    let addrs = (spec.src.ip(), spec.dst.ip());
    let buf = fill_l2_l3(frame, addrs, IpProtocol::Tcp, spec.ttl, l4_len);
    let (header, payload) = buf.split_at_mut(crate::tcp::MIN_HEADER_LEN);
    header.fill(0);
    header[12] = 0x50; // data offset 5
    payload.copy_from_slice(spec.payload);
    let mut tcp = TcpSegment::new_checked(buf).unwrap();
    tcp.set_src_port(spec.src.port());
    tcp.set_dst_port(spec.dst.port());
    tcp.set_seq(spec.seq);
    tcp.set_ack(spec.ack);
    tcp.set_flags(TcpFlags(spec.flags));
    tcp.set_window(spec.window);
    tcp.fill_checksum(&spec.src.ip(), &spec.dst.ip());
}

/// Builds a full Ethernet frame carrying a TCP segment, allocated once
/// at its final size (see [`build_tcp_into`]).
///
/// Panics if `src` and `dst` are not the same IP family.
pub fn build_tcp(spec: &TcpSpec<'_>) -> Vec<u8> {
    let mut frame = vec![0u8; spec.frame_len()];
    build_tcp_into(spec, &mut frame);
    frame
}

/// Builds a full Ethernet frame carrying a UDP datagram in place; the
/// contract is [`build_tcp_into`]'s, with [`UdpSpec::frame_len`].
pub fn build_udp_into(spec: &UdpSpec<'_>, frame: &mut [u8]) {
    let l4_len = crate::udp::HEADER_LEN + spec.payload.len();
    let addrs = (spec.src.ip(), spec.dst.ip());
    let buf = fill_l2_l3(frame, addrs, IpProtocol::Udp, spec.ttl, l4_len);
    let (header, payload) = buf.split_at_mut(crate::udp::HEADER_LEN);
    header.fill(0);
    header[4..6].copy_from_slice(&(l4_len as u16).to_be_bytes());
    payload.copy_from_slice(spec.payload);
    let mut udp = UdpDatagram::new_checked(buf).unwrap();
    udp.set_src_port(spec.src.port());
    udp.set_dst_port(spec.dst.port());
    udp.fill_checksum(&spec.src.ip(), &spec.dst.ip());
}

/// Builds a full Ethernet frame carrying a UDP datagram.
///
/// Panics if `src` and `dst` are not the same IP family.
pub fn build_udp(spec: &UdpSpec<'_>) -> Vec<u8> {
    let mut frame = vec![0u8; spec.frame_len()];
    build_udp_into(spec, &mut frame);
    frame
}

/// ICMP header plus the classic 48-byte ping payload.
const ICMPV4_ECHO_LEN: usize = 8 + 48;

/// Length of the frame [`build_icmpv4_echo_into`] writes.
pub const ICMPV4_ECHO_FRAME_LEN: usize = ethernet::HEADER_LEN + 20 + ICMPV4_ECHO_LEN;

/// Builds an ICMPv4 echo-request frame in place: `frame` is exactly
/// [`ICMPV4_ECHO_FRAME_LEN`] bytes; whatever it held is overwritten.
pub fn build_icmpv4_echo_into(
    src: std::net::Ipv4Addr,
    dst: std::net::Ipv4Addr,
    id: u16,
    seq: u16,
    frame: &mut [u8],
) {
    let addrs = (src.into(), dst.into());
    let icmp_buf = fill_l2_l3(frame, addrs, IpProtocol::Icmp, 64, ICMPV4_ECHO_LEN);
    icmp_buf.fill(0);
    icmp_buf[4..6].copy_from_slice(&id.to_be_bytes());
    icmp_buf[6..8].copy_from_slice(&seq.to_be_bytes());
    let mut msg = crate::icmp::Icmpv4Message::new_checked(icmp_buf).unwrap();
    msg.set_type_code(8, 0);
    msg.fill_checksum();
}

/// Builds an ICMPv4 echo-request frame (used by the traffic generator's
/// background-noise mix).
pub fn build_icmpv4_echo(
    src: std::net::Ipv4Addr,
    dst: std::net::Ipv4Addr,
    id: u16,
    seq: u16,
) -> Vec<u8> {
    let mut frame = vec![0u8; ICMPV4_ECHO_FRAME_LEN];
    build_icmpv4_echo_into(src, dst, id, seq, &mut frame);
    frame
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::ParsedPacket;

    #[test]
    fn built_tcp_v4_is_valid() {
        let frame = build_tcp(&TcpSpec {
            src: "192.0.2.1:5000".parse().unwrap(),
            dst: "192.0.2.2:443".parse().unwrap(),
            seq: 42,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 65535,
            ttl: 64,
            payload: b"",
        });
        let ip = Ipv4Packet::new_checked(&frame[14..]).unwrap();
        assert!(ip.verify_checksum());
        let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
        assert!(tcp.verify_checksum(&frame_src(&frame), &frame_dst(&frame)));
        assert!(ParsedPacket::parse(&frame).is_ok());
    }

    #[test]
    fn built_udp_v6_is_valid() {
        let frame = build_udp(&UdpSpec {
            src: "[2001:db8::1]:53".parse().unwrap(),
            dst: "[2001:db8::99]:5000".parse().unwrap(),
            ttl: 64,
            payload: b"response",
        });
        let pkt = ParsedPacket::parse(&frame).unwrap();
        assert_eq!(pkt.src_port, 53);
        assert_eq!(pkt.payload(&frame), b"response");
        let ip = Ipv6Packet::new_checked(&frame[14..]).unwrap();
        let udp = UdpDatagram::new_checked(ip.upper_layer_payload().unwrap()).unwrap();
        assert!(udp.verify_checksum(&pkt.src_ip, &pkt.dst_ip));
    }

    #[test]
    fn built_icmp_echo_is_valid() {
        let frame = build_icmpv4_echo(
            "10.0.0.1".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
            0xbeef,
            3,
        );
        let pkt = ParsedPacket::parse(&frame).unwrap();
        assert_eq!(pkt.protocol, IpProtocol::Icmp);
        let ip = Ipv4Packet::new_checked(&frame[14..]).unwrap();
        let msg = crate::icmp::Icmpv4Message::new_checked(ip.payload()).unwrap();
        assert!(msg.verify_checksum());
        assert_eq!(msg.echo_id(), Some(0xbeef));
    }

    /// A TCP and a UDP spec per address family, around `payload`.
    fn specs(payload: &[u8]) -> Vec<(TcpSpec<'_>, UdpSpec<'_>)> {
        [
            ("192.0.2.1:5000", "198.51.100.7:443"),
            ("[2001:db8::1]:5000", "[2001:db8::99]:443"),
        ]
        .into_iter()
        .map(|(src, dst)| {
            let (src, dst) = (src.parse().unwrap(), dst.parse().unwrap());
            let (seq, ack, flags) = (0xFFFF_FFF0, 7, TcpFlags::ACK | TcpFlags::PSH);
            let (window, ttl) = (1024, 61);
            let tcp = TcpSpec {
                src,
                dst,
                seq,
                ack,
                flags,
                window,
                ttl,
                payload,
            };
            let udp = UdpSpec {
                src,
                dst,
                ttl,
                payload,
            };
            (tcp, udp)
        })
        .collect()
    }

    #[test]
    fn in_place_forms_equal_the_vec_forms_and_the_previous_builder() {
        let payloads: [&[u8]; 4] = [b"", b"x", b"odd-length payload!", &[0xA5; 1460]];
        // FNV-1a over every frame built below, in order.
        let mut digest = 0xcbf2_9ce4_8422_2325_u64;
        let mut check = |frame: Vec<u8>, len: usize, into: &dyn Fn(&mut [u8])| {
            assert_eq!(frame.len(), len);
            // Built over a dirty buffer: every byte of the frame is written.
            let mut dirty = vec![0xFF; len];
            into(&mut dirty);
            assert_eq!(dirty, frame);
            assert!(ParsedPacket::parse(&frame).is_ok());
            for byte in frame {
                digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for payload in payloads {
            for (tcp, udp) in specs(payload) {
                check(build_tcp(&tcp), tcp.frame_len(), &|f| {
                    build_tcp_into(&tcp, f);
                });
                check(build_udp(&udp), udp.frame_len(), &|f| {
                    build_udp_into(&udp, f);
                });
            }
        }
        let (src, dst) = ("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap());
        check(
            build_icmpv4_echo(src, dst, 0x77, 9),
            ICMPV4_ECHO_FRAME_LEN,
            &|f| build_icmpv4_echo_into(src, dst, 0x77, 9, f),
        );
        // What the `Vec`-growing builder these replaced produced for the
        // same specs: generated traffic is byte-identical across the change.
        assert_eq!(digest, GOLDEN, "{digest:#x}");
    }

    const GOLDEN: u64 = 0x49fe_e4bd_4bfb_4c30;

    fn frame_src(frame: &[u8]) -> IpAddr {
        ParsedPacket::parse(frame).unwrap().src_ip
    }

    fn frame_dst(frame: &[u8]) -> IpAddr {
        ParsedPacket::parse(frame).unwrap().dst_ip
    }

    #[test]
    #[should_panic(expected = "mixed address families")]
    fn mixed_families_panic() {
        let _ = build_udp(&UdpSpec {
            src: "10.0.0.1:1".parse().unwrap(),
            dst: "[::1]:2".parse().unwrap(),
            ttl: 1,
            payload: b"",
        });
    }
}
