//! Per-flow packet emission: TCP conversations with realistic handshakes,
//! MSS segmentation, timing, out-of-order injection, and teardown; plus
//! UDP exchanges and ICMP pings.

// Narrowing casts in this file are intentional: synthetic traffic narrows seeded PRNG draws into ports, lengths, and header bytes.
#![allow(clippy::cast_possible_truncation)]

use std::net::SocketAddr;

use retina_protocols::tls::build::{
    appdata_record, ccs_record, certificate_record, client_hello_record, server_hello_record,
    ClientHelloSpec, ServerHelloSpec,
};
use retina_protocols::{dns, http, ssh};
use retina_support::bytes::Bytes;
use retina_wire::build::{
    build_icmpv4_echo_into, build_tcp_into, build_udp_into, TcpSpec, UdpSpec, ICMPV4_ECHO_FRAME_LEN,
};
use retina_wire::TcpFlags;

use crate::rng::Sampler;

/// Standard Ethernet MSS.
pub const MSS: usize = 1460;

// Every frame is built in its final allocation: the generator feeds the
// system under test and must cost less than it does.

fn tcp_frame(spec: &TcpSpec<'_>) -> Bytes {
    Bytes::build(spec.frame_len(), |frame| build_tcp_into(spec, frame))
}

fn udp_frame(spec: &UdpSpec<'_>) -> Bytes {
    Bytes::build(spec.frame_len(), |frame| build_udp_into(spec, frame))
}

fn icmp_echo_frame(src: std::net::Ipv4Addr, dst: std::net::Ipv4Addr, seq: u16) -> Bytes {
    Bytes::build(ICMPV4_ECHO_FRAME_LEN, |frame| {
        build_icmpv4_echo_into(src, dst, 0x77, seq, frame);
    })
}

/// A TCP conversation builder with sequenced segments and timestamps.
pub struct FlowBuilder {
    /// Client endpoint.
    pub client: SocketAddr,
    /// Server endpoint.
    pub server: SocketAddr,
    cseq: u32,
    sseq: u32,
    ts_ns: u64,
    rtt_ns: u64,
    seg_gap_ns: u64,
    ttl_c: u8,
    ttl_s: u8,
    /// Inject out-of-order segments into multi-segment sends.
    pub ooo: bool,
    /// Probability of displacing a segment within a multi-segment send
    /// when `ooo` is set.
    pub ooo_rate: f64,
    packets: Vec<(Bytes, u64)>,
}

impl FlowBuilder {
    /// Starts a conversation with a three-way handshake beginning at
    /// `start_ts` nanoseconds.
    pub fn new(
        client: SocketAddr,
        server: SocketAddr,
        start_ts: u64,
        rtt_ns: u64,
        sampler: &mut Sampler,
    ) -> Self {
        let mut fb = FlowBuilder {
            client,
            server,
            cseq: sampler.u64() as u32,
            sseq: sampler.u64() as u32,
            ts_ns: start_ts,
            rtt_ns: rtt_ns.max(2),
            seg_gap_ns: 20_000 + sampler.range(0, 60_000),
            ttl_c: if sampler.chance(0.3) { 128 } else { 64 },
            ttl_s: if sampler.chance(0.2) { 255 } else { 64 },
            ooo: false,
            ooo_rate: 0.15,
            packets: Vec::new(),
        };
        let (cseq, sseq) = (fb.cseq, fb.sseq);
        fb.emit(true, cseq, 0, TcpFlags::SYN, &[]);
        fb.cseq = fb.cseq.wrapping_add(1);
        fb.ts_ns += fb.rtt_ns / 2;
        let cack = fb.cseq;
        fb.emit(false, sseq, cack, TcpFlags::SYN | TcpFlags::ACK, &[]);
        fb.sseq = fb.sseq.wrapping_add(1);
        fb.ts_ns += fb.rtt_ns / 2;
        let (cseq, sack) = (fb.cseq, fb.sseq);
        fb.emit(true, cseq, sack, TcpFlags::ACK, &[]);
        fb
    }

    /// The packet timestamp cursor (ns).
    pub fn now(&self) -> u64 {
        self.ts_ns
    }

    fn emit(&mut self, from_client: bool, seq: u32, ack: u32, flags: u8, payload: &[u8]) {
        let (src, dst, ttl) = if from_client {
            (self.client, self.server, self.ttl_c)
        } else {
            (self.server, self.client, self.ttl_s)
        };
        let frame = tcp_frame(&TcpSpec {
            src,
            dst,
            seq,
            ack,
            flags,
            window: 65535,
            ttl,
            payload,
        });
        self.packets.push((frame, self.ts_ns));
    }

    /// Advances the simulated clock.
    pub fn pause(&mut self, dt_ns: u64) {
        self.ts_ns += dt_ns;
    }

    /// Sends application data, segmented at the MSS, optionally with
    /// out-of-order displacement.
    pub fn send(&mut self, from_client: bool, data: &[u8], sampler: &mut Sampler) {
        if data.is_empty() {
            return;
        }
        // Plan the segments (seq, payload) in order.
        let base_seq = if from_client { self.cseq } else { self.sseq };
        let ack = if from_client { self.sseq } else { self.cseq };
        let mut segments: Vec<(u32, &[u8])> = Vec::new();
        let mut offset = 0usize;
        while offset < data.len() {
            let end = (offset + MSS).min(data.len());
            segments.push((base_seq.wrapping_add(offset as u32), &data[offset..end]));
            offset = end;
        }
        // Out-of-order displacement: swap adjacent segments. The median
        // hole is filled by the very next packet (Table 2's P50 = 1).
        if self.ooo && segments.len() > 1 {
            let mut i = 0;
            while i + 1 < segments.len() {
                if sampler.chance(self.ooo_rate) {
                    segments.swap(i, i + 1);
                    i += 2;
                } else {
                    i += 1;
                }
            }
        }
        let n_segments = segments.len();
        for (i, (seq, payload)) in segments.into_iter().enumerate() {
            let flags = TcpFlags::ACK | TcpFlags::PSH;
            self.emit(from_client, seq, ack, flags, payload);
            self.ts_ns += self.seg_gap_ns;
            // Delayed ACKs: one pure ACK from the receiver per two data
            // segments (keeps the packet-size distribution bimodal with a
            // realistic small-packet share, Figure 13).
            if i % 2 == 1 && i + 1 < n_segments {
                let (rseq, rack) = if from_client {
                    (self.sseq, seq.wrapping_add(payload.len() as u32))
                } else {
                    (self.cseq, seq.wrapping_add(payload.len() as u32))
                };
                self.emit(!from_client, rseq, rack, TcpFlags::ACK, &[]);
            }
        }
        let advanced = data.len() as u32;
        if from_client {
            self.cseq = self.cseq.wrapping_add(advanced);
        } else {
            self.sseq = self.sseq.wrapping_add(advanced);
        }
        // Final ACK of the burst.
        self.ts_ns += self.rtt_ns / 2;
        let (seq, ack) = if from_client {
            (self.sseq, self.cseq)
        } else {
            (self.cseq, self.sseq)
        };
        self.emit(!from_client, seq, ack, TcpFlags::ACK, &[]);
    }

    /// Graceful FIN/FIN teardown.
    pub fn finish(mut self) -> Vec<(Bytes, u64)> {
        self.ts_ns += self.rtt_ns / 4;
        let (cseq, sack) = (self.cseq, self.sseq);
        self.emit(true, cseq, sack, TcpFlags::FIN | TcpFlags::ACK, &[]);
        self.ts_ns += self.rtt_ns / 2;
        let (sseq, cack) = (self.sseq, self.cseq.wrapping_add(1));
        self.emit(false, sseq, cack, TcpFlags::FIN | TcpFlags::ACK, &[]);
        self.ts_ns += self.rtt_ns / 2;
        let (cseq, sack) = (self.cseq.wrapping_add(1), self.sseq.wrapping_add(1));
        self.emit(true, cseq, sack, TcpFlags::ACK, &[]);
        self.packets
    }

    /// Abrupt RST teardown.
    pub fn reset(mut self) -> Vec<(Bytes, u64)> {
        self.ts_ns += self.rtt_ns / 4;
        let (cseq, sack) = (self.cseq, self.sseq);
        self.emit(true, cseq, sack, TcpFlags::RST, &[]);
        self.packets
    }

    /// No teardown: the flow just stops (expires by timeout — Table 2's
    /// "incomplete flows").
    pub fn abandon(self) -> Vec<(Bytes, u64)> {
        self.packets
    }
}

/// Parameters for a synthetic TLS flow.
pub struct TlsFlowSpec {
    /// Client endpoint.
    pub client: SocketAddr,
    /// Server endpoint.
    pub server: SocketAddr,
    /// Server name to embed in the ClientHello.
    pub sni: String,
    /// Flow start time (ns).
    pub start_ts: u64,
    /// Application bytes client → server (post-handshake).
    pub bytes_up: usize,
    /// Application bytes server → client (post-handshake).
    pub bytes_down: usize,
    /// Client random (per §7.1, occasionally deliberately broken).
    pub client_random: [u8; 32],
    /// Ciphersuite the server selects.
    pub cipher: u16,
    /// Inject out-of-order segments.
    pub ooo: bool,
    /// End with FIN (vs. abandonment).
    pub graceful: bool,
}

/// Builds a complete TLS conversation.
pub fn tls_flow(spec: &TlsFlowSpec, sampler: &mut Sampler) -> Vec<(Bytes, u64)> {
    let rtt = 2_000_000 + sampler.range(0, 40_000_000); // 2–42 ms
    let mut fb = FlowBuilder::new(spec.client, spec.server, spec.start_ts, rtt, sampler);
    fb.ooo = spec.ooo;
    fb.send(
        true,
        &client_hello_record(&ClientHelloSpec {
            sni: Some(spec.sni.clone()),
            ciphers: vec![0x1301, 0x1302, 0x1303, 0xc02b, 0xc02f, spec.cipher],
            random: spec.client_random,
            version: 0x0303,
            alpn: Some(
                if sampler.chance(0.7) {
                    "h2"
                } else {
                    "http/1.1"
                }
                .into(),
            ),
        }),
        sampler,
    );
    fb.pause(rtt / 2);
    // ServerHello + certificate chain + CCS in one server burst.
    let mut server_burst = server_hello_record(&ServerHelloSpec {
        cipher: spec.cipher,
        random: sampler.bytes32(),
        version: 0x0303,
        supported_version: sampler.chance(0.6).then_some(0x0304),
        alpn: None,
    });
    server_burst.extend_from_slice(&certificate_record(2200 + sampler.range(0, 2800) as usize));
    server_burst.extend_from_slice(&ccs_record());
    fb.send(false, &server_burst, sampler);
    fb.pause(rtt / 2);

    // Encrypted application data, alternating as TLS appdata records.
    let mut up = spec.bytes_up;
    let mut down = spec.bytes_down;
    while up > 0 || down > 0 {
        if up > 0 {
            let chunk = up.min(4 * MSS);
            fb.send(true, &appdata_record(chunk), sampler);
            up -= chunk;
        }
        if down > 0 {
            let chunk = down.min(16 * MSS);
            fb.send(false, &appdata_record(chunk), sampler);
            down -= chunk;
        }
        fb.pause(sampler.exponential(3_000_000.0) as u64);
    }
    if spec.graceful {
        fb.finish()
    } else {
        fb.abandon()
    }
}

/// Builds an HTTP/1.1 keep-alive conversation with `txns` transactions.
#[allow(clippy::too_many_arguments)]
pub fn http_flow(
    client: SocketAddr,
    server: SocketAddr,
    host: &str,
    user_agent: &str,
    txns: usize,
    body_median: usize,
    start_ts: u64,
    sampler: &mut Sampler,
) -> Vec<(Bytes, u64)> {
    let rtt = 2_000_000 + sampler.range(0, 30_000_000);
    let mut fb = FlowBuilder::new(client, server, start_ts, rtt, sampler);
    for i in 0..txns.max(1) {
        let uri = format!(
            "/asset/{}{}",
            sampler.range(0, 100000),
            [".html", ".js", ".css", ".png", ""][sampler.range(0, 5) as usize]
        );
        fb.send(
            true,
            &http::build_request("GET", &uri, host, user_agent),
            sampler,
        );
        fb.pause(rtt / 2);
        let body = sampler.lognormal(body_median as f64, 1.2) as usize;
        let status = if sampler.chance(0.9) { 200 } else { 404 };
        fb.send(
            false,
            &http::build_response(status, body.min(512 * 1024)),
            sampler,
        );
        if i + 1 < txns {
            fb.pause(sampler.exponential(50_000_000.0) as u64); // think time
        }
    }
    fb.finish()
}

/// Builds an SSH conversation: banners, then opaque encrypted chatter.
pub fn ssh_flow(
    client: SocketAddr,
    server: SocketAddr,
    start_ts: u64,
    chatter_bytes: usize,
    sampler: &mut Sampler,
) -> Vec<(Bytes, u64)> {
    let rtt = 5_000_000 + sampler.range(0, 50_000_000);
    let mut fb = FlowBuilder::new(client, server, start_ts, rtt, sampler);
    let versions = [
        "OpenSSH_9.0",
        "OpenSSH_8.9p1 Ubuntu-3",
        "OpenSSH_7.4",
        "dropbear_2022.83",
    ];
    fb.send(
        true,
        &ssh::build_banner(versions[sampler.range(0, 4) as usize]),
        sampler,
    );
    fb.send(
        false,
        &ssh::build_banner(versions[sampler.range(0, 4) as usize]),
        sampler,
    );
    // Cleartext algorithm negotiation (KEXINIT) before the encrypted
    // transport; old stacks occasionally offer weak algorithms.
    let kex = if sampler.chance(0.9) {
        "curve25519-sha256,diffie-hellman-group14-sha256"
    } else {
        "diffie-hellman-group1-sha1"
    };
    let host_keys = if sampler.chance(0.8) {
        "ssh-ed25519,rsa-sha2-512"
    } else {
        "ssh-rsa"
    };
    fb.send(true, &ssh::build_kexinit(kex, host_keys), sampler);
    let mut remaining = chatter_bytes;
    while remaining > 0 {
        let chunk = remaining.min(sampler.range(64, 1400) as usize);
        fb.send(sampler.chance(0.5), &vec![0x7fu8; chunk], sampler);
        remaining -= chunk;
        fb.pause(sampler.exponential(200_000_000.0) as u64);
    }
    fb.finish()
}

/// A single unanswered SYN (ZMap-style scan probe) — 65% of real-world
/// connections (Table 2).
pub fn scan_syn(
    client: SocketAddr,
    server: SocketAddr,
    ts: u64,
    sampler: &mut Sampler,
) -> Vec<(Bytes, u64)> {
    let frame = tcp_frame(&TcpSpec {
        src: client,
        dst: server,
        seq: sampler.u64() as u32,
        ack: 0,
        flags: TcpFlags::SYN,
        window: 1024,
        ttl: if sampler.chance(0.5) { 52 } else { 243 },
        payload: b"",
    });
    vec![(frame, ts)]
}

/// A DNS query/response exchange over UDP.
pub fn dns_exchange(
    client: SocketAddr,
    resolver: SocketAddr,
    name: &str,
    answered: bool,
    ts: u64,
    sampler: &mut Sampler,
) -> Vec<(Bytes, u64)> {
    let id = sampler.u64() as u16;
    let qtype = if sampler.chance(0.7) { 1 } else { 28 };
    let mut out = Vec::new();
    let q = dns::build_query(id, name, qtype);
    out.push((
        udp_frame(&UdpSpec {
            src: client,
            dst: resolver,
            ttl: 64,
            payload: &q,
        }),
        ts,
    ));
    if answered {
        let answers = 1 + sampler.range(0, 3) as u16;
        let r = dns::build_response(id, name, qtype, answers, 0);
        out.push((
            udp_frame(&UdpSpec {
                src: resolver,
                dst: client,
                ttl: 60,
                payload: &r,
            }),
            ts + 2_000_000 + sampler.range(0, 30_000_000),
        ));
    }
    out
}

/// A QUIC-like UDP flow: a v1 Initial exchange (long headers with real
/// connection IDs) followed by short-header "encrypted" packets.
pub fn udp_opaque_flow(
    client: SocketAddr,
    server: SocketAddr,
    packets: usize,
    payload_size: usize,
    start_ts: u64,
    sampler: &mut Sampler,
) -> Vec<(Bytes, u64)> {
    use retina_protocols::quic::build_long_header;
    let mut out = Vec::new();
    let mut ts = start_ts;
    let dcid: Vec<u8> = (0..8).map(|_| sampler.u64() as u8).collect();
    let scid: Vec<u8> = (0..8).map(|_| sampler.u64() as u8).collect();
    // Client and server Initials.
    out.push((
        udp_frame(&UdpSpec {
            src: client,
            dst: server,
            ttl: 64,
            payload: &build_long_header(1, &dcid, &[], payload_size.max(64)),
        }),
        ts,
    ));
    ts += sampler.exponential(10_000_000.0) as u64;
    if packets > 1 {
        out.push((
            udp_frame(&UdpSpec {
                src: server,
                dst: client,
                ttl: 60,
                payload: &build_long_header(1, &scid, &dcid, payload_size.max(64)),
            }),
            ts,
        ));
        ts += sampler.exponential(10_000_000.0) as u64;
    }
    // Short-header application packets.
    let payload = {
        let mut p = vec![0xEBu8; payload_size.max(16)];
        p[0] = 0x40; // short header: fixed bit only
        p
    };
    for i in 2..packets.max(1) {
        let from_client = sampler.chance(0.4) || i == 2;
        let (src, dst) = if from_client {
            (client, server)
        } else {
            (server, client)
        };
        out.push((
            udp_frame(&UdpSpec {
                src,
                dst,
                ttl: 64,
                payload: &payload,
            }),
            ts,
        ));
        ts += sampler.exponential(10_000_000.0) as u64;
    }
    out
}

/// An ICMP echo request/reply pair.
pub fn icmp_ping(
    client: std::net::Ipv4Addr,
    server: std::net::Ipv4Addr,
    seq: u16,
    ts: u64,
) -> Vec<(Bytes, u64)> {
    vec![
        (icmp_echo_frame(client, server, seq), ts),
        (icmp_echo_frame(server, client, seq), ts + 8_000_000),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use retina_wire::ParsedPacket;

    fn sa(s: &str) -> SocketAddr {
        s.parse().unwrap()
    }

    fn all_parse(packets: &[(Bytes, u64)]) {
        for (frame, _) in packets {
            ParsedPacket::parse(frame).expect("generated frame must parse");
        }
    }

    fn timestamps_monotonic(packets: &[(Bytes, u64)]) {
        for w in packets.windows(2) {
            assert!(w[0].1 <= w[1].1, "timestamps must be non-decreasing");
        }
    }

    #[test]
    fn tls_flow_shape() {
        let mut s = Sampler::new(1);
        let packets = tls_flow(
            &TlsFlowSpec {
                client: sa("10.0.0.1:40000"),
                server: sa("1.2.3.4:443"),
                sni: "www.example.com".into(),
                start_ts: 0,
                bytes_up: 3000,
                bytes_down: 50_000,
                client_random: [7; 32],
                cipher: 0x1301,
                ooo: false,
                graceful: true,
            },
            &mut s,
        );
        all_parse(&packets);
        timestamps_monotonic(&packets);
        // SYN first, FIN near the end.
        let first = ParsedPacket::parse(&packets[0].0).unwrap();
        assert!(first.tcp_flags().unwrap().syn());
        assert!(packets.len() > 10);
    }

    #[test]
    fn tls_flow_parses_through_protocol_parser() {
        use retina_protocols::{ConnParser, Direction};
        let mut s = Sampler::new(2);
        let packets = tls_flow(
            &TlsFlowSpec {
                client: sa("10.0.0.1:40000"),
                server: sa("1.2.3.4:443"),
                sni: "roundtrip.test".into(),
                start_ts: 0,
                bytes_up: 100,
                bytes_down: 100,
                client_random: [9; 32],
                cipher: 0xc02f,
                ooo: false,
                graceful: true,
            },
            &mut s,
        );
        let mut parser = retina_protocols::tls::TlsParser::new();
        let (mut done, mut sessions) = (false, Vec::new());
        for (frame, _) in &packets {
            let pkt = ParsedPacket::parse(frame).unwrap();
            if pkt.payload_len() == 0 {
                continue;
            }
            let dir = if pkt.dst_port == 443 {
                Direction::ToServer
            } else {
                Direction::ToClient
            };
            let result = parser.parse(pkt.payload(frame), dir, &mut sessions);
            if result == retina_protocols::ParseResult::Done {
                done = true;
                break;
            }
        }
        assert!(done);
        let retina_protocols::Session::Tls(hs) = &sessions[0] else {
            panic!()
        };
        assert_eq!(hs.sni(), "roundtrip.test");
        assert_eq!(hs.client_random, [9; 32]);
    }

    #[test]
    fn ooo_flow_has_displaced_segments() {
        let mut s = Sampler::new(3);
        let packets = tls_flow(
            &TlsFlowSpec {
                client: sa("10.0.0.1:40000"),
                server: sa("1.2.3.4:443"),
                sni: "ooo.test".into(),
                start_ts: 0,
                bytes_up: 0,
                bytes_down: 200_000,
                client_random: [1; 32],
                cipher: 0x1301,
                ooo: true,
                graceful: true,
            },
            &mut s,
        );
        all_parse(&packets);
        // Detect at least one sequence inversion in the server direction.
        let mut last_seq: Option<u32> = None;
        let mut inversions = 0;
        for (frame, _) in &packets {
            let pkt = ParsedPacket::parse(frame).unwrap();
            if pkt.src_port == 443 && pkt.payload_len() > 0 {
                if let (Some(prev), Some(seq)) = (last_seq, pkt.tcp_seq()) {
                    if (seq.wrapping_sub(prev) as i32) < 0 {
                        inversions += 1;
                    }
                }
                last_seq = pkt.tcp_seq();
            }
        }
        assert!(inversions > 0, "expected out-of-order segments");
    }

    #[test]
    fn http_flow_txn_count() {
        use retina_protocols::{ConnParser, Direction};
        let mut s = Sampler::new(4);
        let packets = http_flow(
            sa("10.0.0.1:40000"),
            sa("1.2.3.4:80"),
            "host.test",
            "agent/1.0",
            3,
            500,
            0,
            &mut s,
        );
        all_parse(&packets);
        let (mut parser, mut sessions) = (retina_protocols::http::HttpParser::new(), Vec::new());
        for (frame, _) in &packets {
            let pkt = ParsedPacket::parse(frame).unwrap();
            if pkt.payload_len() == 0 {
                continue;
            }
            let dir = if pkt.dst_port == 80 {
                Direction::ToServer
            } else {
                Direction::ToClient
            };
            parser.parse(pkt.payload(frame), dir, &mut sessions);
        }
        parser.drain_sessions(&mut sessions);
        assert_eq!(sessions.len(), 3);
    }

    #[test]
    fn scan_and_dns_and_ping() {
        let mut s = Sampler::new(5);
        let scan = scan_syn(sa("1.1.1.1:55555"), sa("171.64.0.1:23"), 10, &mut s);
        assert_eq!(scan.len(), 1);
        all_parse(&scan);
        let dns = dns_exchange(
            sa("10.0.0.1:5353"),
            sa("8.8.8.8:53"),
            "a.example",
            true,
            0,
            &mut s,
        );
        assert_eq!(dns.len(), 2);
        all_parse(&dns);
        let unanswered = dns_exchange(
            sa("10.0.0.1:5353"),
            sa("8.8.8.8:53"),
            "b.example",
            false,
            0,
            &mut s,
        );
        assert_eq!(unanswered.len(), 1);
        let ping = icmp_ping(
            "10.0.0.1".parse().unwrap(),
            "8.8.8.8".parse().unwrap(),
            1,
            0,
        );
        assert_eq!(ping.len(), 2);
        all_parse(&ping);
        let udp = udp_opaque_flow(sa("10.0.0.1:6000"), sa("2.2.2.2:6001"), 10, 900, 0, &mut s);
        assert_eq!(udp.len(), 10);
        all_parse(&udp);
    }

    #[test]
    fn ssh_flow_parses() {
        let mut s = Sampler::new(6);
        let packets = ssh_flow(sa("10.0.0.1:50000"), sa("2.2.2.2:22"), 0, 2000, &mut s);
        all_parse(&packets);
        timestamps_monotonic(&packets);
    }
}
