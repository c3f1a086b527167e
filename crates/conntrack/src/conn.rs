//! Per-connection TCP flow state and statistics.
//!
//! A [`TcpFlow`] holds what only the packets' TCP headers can tell:
//! per-direction counters, handshake and teardown state, the two
//! reassemblers. When the connection was first and last seen is the
//! table entry's fact ([`crate::ConnEntry`]: `created_ns`,
//! `last_seen_ns`), stored there once and not mirrored here.
//!
//! Every connection builds one, a bare SYN included, so its size is part
//! of every arena slot: 136 bytes, asserted at build time. The six
//! handshake and teardown flags sit together after the 8-byte fields, so
//! no flag pads a [`DirStats`]; and an out-of-order arrival is counted
//! once — held, in [`DirStats::ooo_packets`]; dropped at capacity, in
//! the reassembler's `dropped`.

// Narrowing casts in this file are intentional: tick, index, and counter arithmetic narrows to compact fields by design.
#![allow(clippy::cast_possible_truncation)]

use retina_wire::{L4Header, ParsedPacket, TcpFlags};

use crate::reassembly::{Reassembled, StreamReassembler};
use crate::tuple::Dir;

/// Per-direction flow bookkeeping.
#[derive(Debug, Default)]
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

// A bare SYN builds one too: every 8 bytes here are 0.85 MB at scan's
// 106,496-slot arena.
const _: () = assert!(std::mem::size_of::<TcpFlow>() <= 136);

/// What a packet did to the flow, from the reassembler's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowUpdate {
    /// Reassembly outcome for the packet's payload.
    pub reassembly: Reassembled,
    /// The connection reached a terminal TCP state with this packet.
    pub terminated: bool,
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
}
