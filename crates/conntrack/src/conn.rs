//! Per-connection TCP flow state and statistics.
//!
//! A [`TcpFlow`] holds what only the packets' TCP headers can tell:
//! per-direction counters, handshake and teardown state, the two
//! reassemblers. When the connection was first and last seen is the
//! table entry's fact ([`crate::ConnEntry`]: `created_ns`,
//! `last_seen_ns`), stored there once and not mirrored here.
//!
//! A connection's first packet builds none: it is an [`Embryo`], eight
//! bytes of what [`TcpFlow::update`] would have recorded of one packet
//! from the originator. Most connections never send a second (~65% are a
//! single unanswered SYN, Appendix C); the ones that do hatch a flow from
//! the embryo ([`Embryo::hatch`]) and update it from then on. A flow is
//! 136 bytes, asserted at build time. The six handshake and teardown
//! flags sit together after the 8-byte fields, so no flag pads a
//! [`DirStats`]; and an out-of-order arrival is counted once — held, in
//! [`DirStats::ooo_packets`]; dropped at capacity, in the reassembler's
//! `dropped`.

// Narrowing casts in this file are intentional: tick, index, and counter arithmetic narrows to compact fields by design.
#![allow(clippy::cast_possible_truncation)]

use retina_wire::{L4Header, ParsedPacket, TcpFlags};

use crate::reassembly::{Reassembled, StreamReassembler};
use crate::tuple::Dir;

/// Per-direction flow bookkeeping.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct DirStats {
    /// Packets observed.
    pub packets: u64,
    /// L4 payload bytes observed.
    pub bytes: u64,
    /// Out-of-order arrivals.
    pub ooo_packets: u64,
}

/// TCP (or UDP) flow state for one tracked connection.
///
/// For UDP "connections" only the counters are meaningful; the handshake
/// and sequencing fields stay in their defaults.
#[derive(Debug)]
pub struct TcpFlow {
    /// Originator → responder direction state and reassembler.
    pub ctos: DirStats,
    /// Responder → originator direction state and reassembler.
    pub stoc: DirStats,
    reasm_ctos: StreamReassembler,
    reasm_stoc: StreamReassembler,
    /// SYN observed from the originator.
    pub syn_seen: bool,
    /// SYN-ACK observed from the responder.
    pub synack_seen: bool,
    /// Three-way handshake completed (or data flowed both ways).
    pub established: bool,
    /// RST observed in either direction.
    pub rst: bool,
    /// FIN observed from the originator.
    ctos_fin: bool,
    /// FIN observed from the responder.
    stoc_fin: bool,
}

// Built at a connection's second packet, one per promoted connection.
const _: () = assert!(std::mem::size_of::<TcpFlow>() <= 136);

/// What a packet did to the flow, from the reassembler's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowUpdate {
    /// Reassembly outcome for the packet's payload.
    pub reassembly: Reassembled,
    /// The connection reached a terminal TCP state with this packet.
    pub terminated: bool,
    /// The connection is established ([`TcpFlow::established`]) after
    /// this packet.
    pub established: bool,
}

/// What [`TcpFlow::update`] records of a connection's first packet, held
/// in eight bytes until a second packet needs a flow: whether the packet
/// was seen, its payload length, its SYN, RST and FIN bits and the
/// expected sequence number it set, if any. Only a packet from the
/// originator with at most `u16::MAX` payload bytes fits; [`Embryo::record`]
/// refuses any other.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Embryo {
    /// The originator's next expected sequence number, when `SEQ` is set.
    next_seq: u32,
    /// Payload bytes of the recorded packet.
    len: u16,
    /// A packet was recorded.
    seen: bool,
    /// `SYN`, `RST`, `FIN` and `SEQ` bits.
    bits: u8,
}

// Eight bytes, with a niche in `seen`: a word that holds an embryo or a
// flow's index is eight bytes too.
const _: () = assert!(std::mem::size_of::<Embryo>() == 8);

impl Embryo {
    const SYN: u8 = 1;
    const RST: u8 = 2;
    const FIN: u8 = 4;
    const SEQ: u8 = 8;

    /// Records `pkt` as [`TcpFlow::update`] would on a new flow, and
    /// returns the same [`FlowUpdate`] — or `None`, recording nothing,
    /// when the packet needs a flow: a second packet, one from the
    /// responder, or one with more payload than the embryo holds. A
    /// first packet's reassembly outcome does not depend on
    /// `stream_active` (a new reassembler adopts any sequence number), so
    /// the embryo takes no such flag.
    pub fn record(&mut self, pkt: &ParsedPacket, dir: Dir) -> Option<FlowUpdate> {
        if self.seen || dir != Dir::OrigToResp {
            return None;
        }
        let len = u16::try_from(pkt.payload_len()).ok()?;
        let mut next = Embryo {
            len,
            seen: true,
            ..Embryo::default()
        };
        let mut terminated = false;
        if let L4Header::Tcp { flags, seq, .. } = pkt.l4 {
            let flags = TcpFlags(flags.0);
            if flags.rst() {
                next.bits |= Self::RST;
                terminated = true;
            }
            if flags.syn() && !flags.ack() {
                next.bits |= Self::SYN | Self::SEQ;
                next.next_seq = seq.wrapping_add(1);
            }
            let consumed = u32::from(len) + u32::from(flags.fin());
            if consumed > 0 && !flags.syn() {
                next.bits |= Self::SEQ;
                next.next_seq = seq.wrapping_add(consumed);
            }
            if flags.fin() {
                next.bits |= Self::FIN;
            }
        }
        *self = next;
        Some(FlowUpdate {
            reassembly: Reassembled::InOrder,
            terminated,
            established: false,
        })
    }

    /// The flow this embryo grows into: [`TcpFlow::new`] with what the
    /// recorded packet set, equal field for field to the flow that
    /// packet's [`TcpFlow::update`] would have left.
    pub fn hatch(self, ooo_capacity: usize) -> TcpFlow {
        let mut flow = TcpFlow::new(ooo_capacity);
        flow.ctos.packets = u64::from(self.seen);
        flow.ctos.bytes = u64::from(self.len);
        flow.syn_seen = self.bits & Self::SYN != 0;
        flow.rst = self.bits & Self::RST != 0;
        flow.ctos_fin = self.bits & Self::FIN != 0;
        if self.bits & Self::SEQ != 0 {
            flow.reasm_ctos.init_seq(self.next_seq);
        }
        flow
    }
}

impl TcpFlow {
    /// Creates flow state for a new connection, with the given
    /// out-of-order buffer capacity per direction.
    pub fn new(ooo_capacity: usize) -> Self {
        TcpFlow {
            ctos: DirStats::default(),
            stoc: DirStats::default(),
            reasm_ctos: StreamReassembler::new(ooo_capacity),
            reasm_stoc: StreamReassembler::new(ooo_capacity),
            syn_seen: false,
            synack_seen: false,
            established: false,
            rst: false,
            ctos_fin: false,
            stoc_fin: false,
        }
    }

    /// The reassembler for a direction.
    pub fn reassembler(&mut self, dir: Dir) -> &mut StreamReassembler {
        match dir {
            Dir::OrigToResp => &mut self.reasm_ctos,
            Dir::RespToOrig => &mut self.reasm_stoc,
        }
    }

    /// Total packets across both directions.
    pub fn total_packets(&self) -> u64 {
        self.ctos.packets + self.stoc.packets
    }

    /// Total payload bytes across both directions.
    pub fn total_bytes(&self) -> u64 {
        self.ctos.bytes + self.stoc.bytes
    }

    /// True when the connection is a single unanswered SYN so far — the
    /// dominant connection type on real networks (~65%, Appendix C).
    pub fn is_single_syn(&self) -> bool {
        self.syn_seen && !self.synack_seen && self.total_packets() == 1
    }

    /// True when TCP teardown completed (RST, or FINs both ways).
    pub fn terminated(&self) -> bool {
        self.rst || (self.ctos_fin && self.stoc_fin)
    }

    /// Accounts one packet into the flow; updates handshake state,
    /// counters, and the direction's reassembler. `mbuf` is held by
    /// reference if the segment must be buffered out of order.
    ///
    /// `stream_active` selects full reassembly (buffering out-of-order
    /// segments for in-order delivery) vs. counting-only sequence
    /// tracking — the §5.2 optimization of not reordering flows the
    /// subscription no longer needs bytes from.
    pub fn update(
        &mut self,
        pkt: &ParsedPacket,
        mbuf: &retina_nic::Mbuf,
        dir: Dir,
        stream_active: bool,
    ) -> FlowUpdate {
        let payload_len = pkt.payload_len() as u32;
        let stats = match dir {
            Dir::OrigToResp => &mut self.ctos,
            Dir::RespToOrig => &mut self.stoc,
        };
        stats.packets += 1;
        stats.bytes += u64::from(payload_len);

        let L4Header::Tcp { flags, seq, .. } = pkt.l4 else {
            // UDP/other: no sequencing; every datagram is "in order".
            if self.ctos.packets > 0 && self.stoc.packets > 0 {
                self.established = true;
            }
            return FlowUpdate {
                reassembly: Reassembled::InOrder,
                terminated: false,
                established: self.established,
            };
        };

        let flags = TcpFlags(flags.0);
        if flags.rst() {
            self.rst = true;
        }
        if flags.syn() && !flags.ack() && dir == Dir::OrigToResp {
            self.syn_seen = true;
            self.reassembler(dir).init_seq(seq.wrapping_add(1));
        } else if flags.syn() && flags.ack() && dir == Dir::RespToOrig {
            self.synack_seen = true;
            self.reassembler(dir).init_seq(seq.wrapping_add(1));
        }
        if self.syn_seen && self.synack_seen && flags.ack() && !flags.syn() {
            self.established = true;
        }
        // Data in both directions also counts as established (mid-stream
        // pickup without observed handshake).
        if self.ctos.bytes > 0 && self.stoc.bytes > 0 {
            self.established = true;
        }

        let fin_consumes = u32::from(flags.fin());
        let consumed = payload_len + fin_consumes;
        let reassembly = if consumed > 0 && !flags.syn() {
            if stream_active {
                self.reassembler(dir).offer(seq, consumed, mbuf)
            } else {
                self.reassembler(dir).track_only(seq, consumed)
            }
        } else {
            Reassembled::InOrder
        };
        if reassembly == Reassembled::Buffered {
            let stats = match dir {
                Dir::OrigToResp => &mut self.ctos,
                Dir::RespToOrig => &mut self.stoc,
            };
            stats.ooo_packets += 1;
        }
        if flags.fin() && reassembly != Reassembled::Duplicate {
            match dir {
                Dir::OrigToResp => self.ctos_fin = true,
                Dir::RespToOrig => self.stoc_fin = true,
            }
        }
        FlowUpdate {
            reassembly,
            terminated: self.terminated(),
            established: self.established,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::FiveTuple;
    use retina_wire::build::{build_tcp, TcpSpec};

    fn pkt(src: &str, dst: &str, seq: u32, flags: u8, payload: &[u8]) -> ParsedPacket {
        let frame = build_tcp(&TcpSpec {
            src: src.parse().unwrap(),
            dst: dst.parse().unwrap(),
            seq,
            ack: 0,
            flags,
            window: 64,
            ttl: 64,
            payload,
        });
        ParsedPacket::parse(&frame).unwrap()
    }

    fn mb() -> retina_nic::Mbuf {
        retina_nic::Mbuf::from_bytes(retina_support::bytes::Bytes::from_static(b"frame"))
    }

    const CLIENT: &str = "10.0.0.1:5000";
    const SERVER: &str = "1.1.1.1:443";

    fn handshake(flow: &mut TcpFlow) {
        flow.update(
            &pkt(CLIENT, SERVER, 100, TcpFlags::SYN, b""),
            &mb(),
            Dir::OrigToResp,
            true,
        );
        flow.update(
            &pkt(SERVER, CLIENT, 500, TcpFlags::SYN | TcpFlags::ACK, b""),
            &mb(),
            Dir::RespToOrig,
            true,
        );
        flow.update(
            &pkt(CLIENT, SERVER, 101, TcpFlags::ACK, b""),
            &mb(),
            Dir::OrigToResp,
            true,
        );
    }

    #[test]
    fn three_way_handshake() {
        let mut flow = TcpFlow::new(500);
        assert!(!flow.established);
        flow.update(
            &pkt(CLIENT, SERVER, 100, TcpFlags::SYN, b""),
            &mb(),
            Dir::OrigToResp,
            true,
        );
        assert!(flow.syn_seen && !flow.established);
        assert!(flow.is_single_syn());
        flow.update(
            &pkt(SERVER, CLIENT, 500, TcpFlags::SYN | TcpFlags::ACK, b""),
            &mb(),
            Dir::RespToOrig,
            true,
        );
        assert!(flow.synack_seen && !flow.established);
        flow.update(
            &pkt(CLIENT, SERVER, 101, TcpFlags::ACK, b""),
            &mb(),
            Dir::OrigToResp,
            true,
        );
        assert!(flow.established);
        assert!(!flow.is_single_syn());
    }

    #[test]
    fn payload_accounting() {
        let mut flow = TcpFlow::new(500);
        handshake(&mut flow);
        flow.update(
            &pkt(CLIENT, SERVER, 101, TcpFlags::ACK | TcpFlags::PSH, b"hello"),
            &mb(),
            Dir::OrigToResp,
            true,
        );
        flow.update(
            &pkt(
                SERVER,
                CLIENT,
                501,
                TcpFlags::ACK | TcpFlags::PSH,
                b"world!!!",
            ),
            &mb(),
            Dir::RespToOrig,
            true,
        );
        assert_eq!(flow.ctos.bytes, 5);
        assert_eq!(flow.stoc.bytes, 8);
        assert_eq!(flow.total_bytes(), 13);
        assert_eq!(flow.total_packets(), 5);
    }

    #[test]
    fn fin_teardown() {
        let mut flow = TcpFlow::new(500);
        handshake(&mut flow);
        let u = flow.update(
            &pkt(CLIENT, SERVER, 101, TcpFlags::FIN | TcpFlags::ACK, b""),
            &mb(),
            Dir::OrigToResp,
            true,
        );
        assert!(!u.terminated);
        let u = flow.update(
            &pkt(SERVER, CLIENT, 501, TcpFlags::FIN | TcpFlags::ACK, b""),
            &mb(),
            Dir::RespToOrig,
            true,
        );
        assert!(u.terminated);
        assert!(flow.terminated());
    }

    #[test]
    fn rst_teardown() {
        let mut flow = TcpFlow::new(500);
        handshake(&mut flow);
        let u = flow.update(
            &pkt(SERVER, CLIENT, 501, TcpFlags::RST, b""),
            &mb(),
            Dir::RespToOrig,
            true,
        );
        assert!(u.terminated);
    }

    #[test]
    fn out_of_order_counted() {
        let mut flow = TcpFlow::new(500);
        handshake(&mut flow);
        // Expected seq is 101; deliver 1561 first (one segment early).
        let u = flow.update(
            &pkt(CLIENT, SERVER, 1561, TcpFlags::ACK, &[0u8; 100]),
            &mb(),
            Dir::OrigToResp,
            true,
        );
        assert_eq!(u.reassembly, Reassembled::Buffered);
        assert_eq!(flow.ctos.ooo_packets, 1);
        let u = flow.update(
            &pkt(CLIENT, SERVER, 101, TcpFlags::ACK, &[0u8; 1460]),
            &mb(),
            Dir::OrigToResp,
            true,
        );
        assert_eq!(u.reassembly, Reassembled::InOrder);
    }

    #[test]
    fn retransmission_is_duplicate() {
        let mut flow = TcpFlow::new(500);
        handshake(&mut flow);
        flow.update(
            &pkt(CLIENT, SERVER, 101, TcpFlags::ACK, b"data"),
            &mb(),
            Dir::OrigToResp,
            true,
        );
        let u = flow.update(
            &pkt(CLIENT, SERVER, 101, TcpFlags::ACK, b"data"),
            &mb(),
            Dir::OrigToResp,
            true,
        );
        assert_eq!(u.reassembly, Reassembled::Duplicate);
    }

    #[test]
    fn udp_flow_counters() {
        use retina_wire::build::{build_udp, UdpSpec};
        let frame = build_udp(&UdpSpec {
            src: CLIENT.parse().unwrap(),
            dst: SERVER.parse().unwrap(),
            ttl: 64,
            payload: b"dns query bytes",
        });
        let pkt = ParsedPacket::parse(&frame).unwrap();
        let tuple = FiveTuple::from_packet(&pkt);
        let mut flow = TcpFlow::new(500);
        let dir = tuple.dir_of(&pkt).unwrap();
        let u = flow.update(&pkt, &mb(), dir, true);
        assert_eq!(u.reassembly, Reassembled::InOrder);
        assert_eq!(flow.ctos.bytes, 15);
        assert!(!flow.established);
    }

    #[test]
    fn udp_flow_establishes_on_reply() {
        use retina_wire::build::{build_udp, UdpSpec};
        let datagram = |src: &str, dst: &str| {
            ParsedPacket::parse(&build_udp(&UdpSpec {
                src: src.parse().unwrap(),
                dst: dst.parse().unwrap(),
                ttl: 64,
                payload: b"dns",
            }))
            .unwrap()
        };
        let mut flow = TcpFlow::new(500);
        let query = datagram(CLIENT, SERVER);
        flow.update(&query, &mb(), Dir::OrigToResp, true);
        flow.update(&query, &mb(), Dir::OrigToResp, true);
        assert!(!flow.established, "datagrams one way establish nothing");
        flow.update(&datagram(SERVER, CLIENT), &mb(), Dir::RespToOrig, true);
        assert!(flow.established, "a reply establishes the flow");
    }

    #[test]
    fn mid_stream_establishment() {
        // Data both ways without an observed handshake.
        let mut flow = TcpFlow::new(500);
        flow.update(
            &pkt(CLIENT, SERVER, 9000, TcpFlags::ACK, b"req"),
            &mb(),
            Dir::OrigToResp,
            true,
        );
        assert!(!flow.established);
        flow.update(
            &pkt(SERVER, CLIENT, 77000, TcpFlags::ACK, b"resp"),
            &mb(),
            Dir::RespToOrig,
            true,
        );
        assert!(flow.established);
    }

    /// A TCP segment with flag set `kind` (0 none, 1 SYN, 2 SYN-ACK,
    /// 3 RST, 4 FIN, 6 ACK, 7 FIN-ACK) or, for kind 5, a UDP datagram,
    /// from the client or the server.
    fn any_packet(from_client: bool, kind: u8, seq: u32, len: usize) -> ParsedPacket {
        let (src, dst) = if from_client {
            (CLIENT, SERVER)
        } else {
            (SERVER, CLIENT)
        };
        let payload = vec![0x5a; len];
        let flags = match kind {
            0 => 0,
            1 => TcpFlags::SYN,
            2 => TcpFlags::SYN | TcpFlags::ACK,
            3 => TcpFlags::RST,
            4 => TcpFlags::FIN,
            6 => TcpFlags::ACK | TcpFlags::PSH,
            7 => TcpFlags::FIN | TcpFlags::ACK,
            _ => {
                use retina_wire::build::{build_udp, UdpSpec};
                let frame = build_udp(&UdpSpec {
                    src: src.parse().unwrap(),
                    dst: dst.parse().unwrap(),
                    ttl: 64,
                    payload: &payload,
                });
                return ParsedPacket::parse(&frame).unwrap();
            }
        };
        pkt(src, dst, seq, flags, &payload)
    }

    /// Everything a flow knows, for comparing two field by field.
    #[allow(clippy::type_complexity)]
    fn facts(
        f: &TcpFlow,
    ) -> (
        (&DirStats, &DirStats),
        [bool; 6],
        [(Option<u32>, usize, u32); 2],
    ) {
        let reasm = |r: &StreamReassembler| (r.next_seq(), r.buffered(), r.dropped);
        (
            (&f.ctos, &f.stoc),
            [
                f.syn_seen,
                f.synack_seen,
                f.established,
                f.rst,
                f.ctos_fin,
                f.stoc_fin,
            ],
            [reasm(&f.reasm_ctos), reasm(&f.reasm_stoc)],
        )
    }

    #[test]
    fn an_embryo_holds_one_packet_from_the_originator() {
        let syn = pkt(CLIENT, SERVER, 100, TcpFlags::SYN, b"");
        let mut embryo = Embryo::default();
        assert!(embryo.record(&syn, Dir::RespToOrig).is_none());
        assert_eq!(
            embryo,
            Embryo::default(),
            "a responder's packet needs a flow"
        );
        assert!(embryo.record(&syn, Dir::OrigToResp).is_some());
        let held = embryo;
        assert!(embryo.record(&syn, Dir::OrigToResp).is_none());
        assert_eq!(embryo, held, "a refused packet records nothing");
        assert!(embryo.hatch(500).is_single_syn());
    }

    retina_support::proptest! {
        #![proptest_config(retina_support::proptest::ProptestConfig::with_cases(512))]

        /// A first packet recorded in an embryo and hatched is the flow
        /// `TcpFlow::new` + `update` builds from it, field for field, with
        /// the same `FlowUpdate`; from then on both flows answer every
        /// later packet alike.
        #[test]
        fn an_embryo_hatches_the_flow_its_first_packet_built(
            first in (0u8..6, 0u8..2, 0u32..4096, 0usize..1461, 0u8..2),
            later in retina_support::proptest::collection::vec(
                (0u8..2, 0u8..8, 0u32..4000, 0usize..1461, 0u8..2),
                0..16,
            ),
        ) {
            let (kind, near_wrap, offset, len, stream) = first;
            let seq = if near_wrap == 1 { u32::MAX - offset } else { offset * 977 };
            let first = any_packet(true, kind, seq, len);
            let mut built = TcpFlow::new(8);
            let expected = built.update(&first, &mb(), Dir::OrigToResp, stream == 1);
            let mut embryo = Embryo::default();
            let recorded = embryo.record(&first, Dir::OrigToResp);
            retina_support::prop_assert_eq!(recorded, Some(expected));
            let mut hatched = embryo.hatch(8);
            retina_support::prop_assert_eq!(facts(&hatched), facts(&built));

            // Each direction's later segments land around where its
            // stream is: in order, ahead of it or behind it.
            let mut base = [seq.wrapping_add(1), 0x7000_0000];
            for (from_server, kind, delta, len, stream) in later {
                let d = usize::from(from_server);
                let seq = base[d].wrapping_add(delta).wrapping_sub(2000);
                let packet = any_packet(from_server == 0, kind, seq, len);
                let dir = if from_server == 1 { Dir::RespToOrig } else { Dir::OrigToResp };
                let a = built.update(&packet, &mb(), dir, stream == 1);
                let b = hatched.update(&packet, &mb(), dir, stream == 1);
                retina_support::prop_assert_eq!(a, b);
                retina_support::prop_assert_eq!(facts(&hatched), facts(&built));
                base[d] = seq.wrapping_add(len as u32);
            }
        }
    }
}
