//! End-to-end pipeline tests: filters + tracker + subscriptions over
//! hand-built packet sequences, in offline mode and through the full
//! multi-threaded runtime.
//!
//! # Determinism
//!
//! Every input here is constructed by hand (no RNG at all): TCP
//! sequence numbers, timestamps, and TLS randoms are fixed constants,
//! so each run feeds byte-identical frames to the pipeline. Tests that
//! need generated traffic live in `tests/tests/end_to_end.rs` and draw
//! it from `CampusConfig::small(<fixed seed>)`, the workspace-wide
//! convention for reproducible randomness (`retina_support::rand` is
//! fully seeded; nothing reads ambient entropy).

// Narrowing casts in this file are intentional: test and bench harnesses narrow seeded draws and counter math to compact fields.
#![allow(clippy::cast_possible_truncation)]

use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

use retina_core::offline::{run_offline, Direct};
use retina_core::runtime::{Runtime, TrafficSource};
use retina_core::subscribables::{
    ConnBytes, ConnRecord, DnsTransactionData, HttpTransactionData, SessionRecord,
    TlsHandshakeData, ZcFrame, STREAM_CAPTURE_LIMIT, STREAM_CAPTURE_SEGMENTS,
};
use retina_core::{
    CompiledFilter, CorePipeline, DispatchMode, ErasedSubscription, RuntimeConfig, Transport,
    TypedSubscription, BURST_MAX,
};
use retina_filter::compile;
use retina_nic::{Mbuf, Mempool, RssHasher};
use retina_protocols::http;
use retina_protocols::ssh;
use retina_protocols::tls::build::{
    appdata_record, ccs_record, client_hello_record, server_hello_record, ClientHelloSpec,
    ServerHelloSpec,
};
use retina_support::bytes::Bytes;
use retina_support::rand::{RngExt, SeedableRng, SmallRng};
use retina_wire::build::{build_tcp, build_udp, TcpSpec, UdpSpec};
use retina_wire::{ParsedPacket, TcpFlags};

/// Standard Ethernet MSS: where [`Conversation::send`] cuts a message.
const MSS: usize = 1460;

/// Builds the packet sequence of a full TCP conversation: handshake,
/// alternating payload exchanges, graceful FIN teardown.
struct Conversation {
    client: SocketAddr,
    server: SocketAddr,
    packets: Vec<(Bytes, u64)>,
    cseq: u32,
    sseq: u32,
    ts: u64,
}

impl Conversation {
    fn new(client: &str, server: &str, start_ts: u64) -> Self {
        Self::with_isn(client, server, start_ts, 1000)
    }

    /// A conversation whose client picks `isn` as its initial sequence
    /// number.
    fn with_isn(client: &str, server: &str, start_ts: u64, isn: u32) -> Self {
        let mut c = Conversation {
            client: client.parse().unwrap(),
            server: server.parse().unwrap(),
            packets: Vec::new(),
            cseq: isn,
            sseq: 5000,
            ts: start_ts,
        };
        c.push_raw(c.client, c.server, c.cseq, 0, TcpFlags::SYN, &[]);
        c.cseq += 1;
        c.push_raw(
            c.server,
            c.client,
            c.sseq,
            c.cseq,
            TcpFlags::SYN | TcpFlags::ACK,
            &[],
        );
        c.sseq += 1;
        c.push_raw(c.client, c.server, c.cseq, c.sseq, TcpFlags::ACK, &[]);
        c
    }

    fn push_raw(
        &mut self,
        src: SocketAddr,
        dst: SocketAddr,
        seq: u32,
        ack: u32,
        flags: u8,
        payload: &[u8],
    ) {
        self.ts += 1_000_000; // 1 ms apart
        let frame = build_tcp(&TcpSpec {
            src,
            dst,
            seq,
            ack,
            flags,
            window: 65535,
            ttl: 64,
            payload,
        });
        self.packets.push((Bytes::from(frame), self.ts));
    }

    fn client_data(&mut self, payload: &[u8]) {
        let (c, s, seq, ack) = (self.client, self.server, self.cseq, self.sseq);
        self.push_raw(c, s, seq, ack, TcpFlags::ACK | TcpFlags::PSH, payload);
        self.cseq = self.cseq.wrapping_add(payload.len() as u32);
    }

    fn server_data(&mut self, payload: &[u8]) {
        let (c, s, seq, ack) = (self.server, self.client, self.sseq, self.cseq);
        self.push_raw(c, s, seq, ack, TcpFlags::ACK | TcpFlags::PSH, payload);
        self.sseq = self.sseq.wrapping_add(payload.len() as u32);
    }

    /// Sends `data` as full-MSS segments (the last one shorter).
    fn send(&mut self, from_client: bool, data: &[u8]) {
        for segment in data.chunks(MSS) {
            if from_client {
                self.client_data(segment);
            } else {
                self.server_data(segment);
            }
        }
    }

    fn finish(mut self) -> Vec<(Bytes, u64)> {
        let (c, s, cseq, sseq) = (self.client, self.server, self.cseq, self.sseq);
        self.push_raw(c, s, cseq, sseq, TcpFlags::FIN | TcpFlags::ACK, &[]);
        let cfin = cseq.wrapping_add(1);
        self.push_raw(s, c, sseq, cfin, TcpFlags::FIN | TcpFlags::ACK, &[]);
        self.push_raw(c, s, cfin, sseq + 1, TcpFlags::ACK, &[]);
        self.packets
    }
}

/// A traffic source handing over all of its frames in one batch.
struct Src(Vec<(Bytes, u64)>);

impl TrafficSource for Src {
    fn next_batch(&mut self, out: &mut Vec<(Bytes, u64)>) -> bool {
        out.append(&mut self.0);
        !out.is_empty()
    }
}

fn tls_conversation(client: &str, server: &str, sni: &str, start_ts: u64) -> Vec<(Bytes, u64)> {
    let mut conv = Conversation::new(client, server, start_ts);
    conv.client_data(&client_hello_record(&ClientHelloSpec {
        sni: Some(sni.to_string()),
        ciphers: vec![0x1301, 0xc02f],
        random: [0x42; 32],
        version: 0x0303,
        alpn: Some("h2".into()),
    }));
    conv.server_data(&server_hello_record(&ServerHelloSpec {
        cipher: 0x1301,
        random: [0x99; 32],
        version: 0x0303,
        supported_version: Some(0x0304),
        alpn: None,
    }));
    conv.server_data(&ccs_record());
    conv.client_data(&appdata_record(400));
    conv.server_data(&appdata_record(1200));
    conv.finish()
}

fn http_conversation(
    client: &str,
    server: &str,
    host: &str,
    n_txn: usize,
    start_ts: u64,
) -> Vec<(Bytes, u64)> {
    let mut conv = Conversation::new(client, server, start_ts);
    for i in 0..n_txn {
        conv.client_data(&http::build_request(
            "GET",
            &format!("/page{i}"),
            host,
            "retina-test/1.0",
        ));
        conv.server_data(&http::build_response(200, 64));
    }
    conv.finish()
}

fn cfg() -> RuntimeConfig {
    RuntimeConfig::default()
}

#[test]
fn tls_handshake_subscription_with_sni_filter() {
    let filter = Arc::new(compile(r"tls.sni matches 'netflix'").unwrap());
    let mut packets = tls_conversation(
        "10.0.0.1:40000",
        "198.38.96.1:443",
        "occ-1.nflxvideo.netflix.com",
        0,
    );
    packets.extend(tls_conversation(
        "10.0.0.2:40001",
        "93.184.216.34:443",
        "www.example.com",
        5_000_000,
    ));
    let mut out = Vec::new();
    let stats = run_offline::<TlsHandshakeData, _>(&filter, &cfg(), packets, |hs| out.push(hs));
    assert_eq!(out.len(), 1, "only the netflix handshake matches");
    assert_eq!(out[0].tls.sni(), "occ-1.nflxvideo.netflix.com");
    assert_eq!(out[0].tls.cipher(), "TLS_AES_128_GCM_SHA256");
    assert_eq!(out[0].tls.version, 0x0304);
    assert_eq!(out[0].tuple.resp.port(), 443);
    // The non-matching conn was discarded by the session filter; the
    // matching one was removed after handshake delivery, and its
    // encrypted tail was absorbed by the closed-connection set.
    assert_eq!(stats.conns_created, 2);
    assert_eq!(stats.conns_discarded, 2);
    assert_eq!(stats.callbacks.runs, 1);
}

#[test]
fn conn_records_with_port_filter() {
    let filter = Arc::new(compile("tcp.port = 443").unwrap());
    let mut packets = tls_conversation("10.0.0.1:40000", "1.2.3.4:443", "a.com", 0);
    // A non-443 conn that must not be delivered.
    packets.extend(http_conversation(
        "10.0.0.9:40009",
        "5.6.7.8:80",
        "b.com",
        1,
        7_000_000,
    ));
    let mut out: Vec<ConnRecord> = Vec::new();
    let stats = run_offline::<ConnRecord, _>(&filter, &cfg(), packets, |r| out.push(r));
    assert_eq!(out.len(), 1);
    let rec = &out[0];
    assert_eq!(rec.tuple.resp.port(), 443);
    assert!(rec.established);
    assert!(rec.terminated);
    assert!(!rec.single_syn);
    assert!(rec.bytes_up > 0 && rec.bytes_down > 0);
    assert!(rec.pkts_up >= 4 && rec.pkts_down >= 4);
    assert!(rec.duration_ns() > 0);
    assert_eq!(stats.conns_terminated, 1);
}

#[test]
fn single_syn_conn_record() {
    let filter = Arc::new(compile("tcp").unwrap());
    let frame = build_tcp(&TcpSpec {
        src: "10.0.0.1:1234".parse().unwrap(),
        dst: "8.8.8.8:443".parse().unwrap(),
        seq: 1,
        ack: 0,
        flags: TcpFlags::SYN,
        window: 64,
        ttl: 64,
        payload: b"",
    });
    let mut out: Vec<ConnRecord> = Vec::new();
    run_offline::<ConnRecord, _>(&filter, &cfg(), vec![(Bytes::from(frame), 0)], |r| {
        out.push(r);
    });
    assert_eq!(out.len(), 1, "unanswered SYNs are still connections (§5.2)");
    assert!(out[0].single_syn);
    assert!(!out[0].established);
}

#[test]
fn packet_subscription_fast_path() {
    let filter = Arc::new(compile("udp").unwrap());
    let mk = |src: &str, dst: &str| {
        Bytes::from(build_udp(&UdpSpec {
            src: src.parse().unwrap(),
            dst: dst.parse().unwrap(),
            ttl: 64,
            payload: b"payload",
        }))
    };
    let packets = vec![
        (mk("10.0.0.1:111", "10.0.0.2:222"), 0),
        (mk("10.0.0.3:333", "10.0.0.4:444"), 1),
    ];
    let mut frames = Vec::new();
    let stats = run_offline::<ZcFrame, _>(&filter, &cfg(), packets, |f| frames.push(f));
    assert_eq!(frames.len(), 2);
    // Fast path: no connection state was created at all.
    assert_eq!(stats.conns_created, 0);
    assert_eq!(stats.conn_tracking.runs, 0);
}

#[test]
fn packet_subscription_with_session_filter() {
    // Packets *associated with* TLS handshakes to a domain: buffered until
    // the session filter resolves, then all delivered.
    let filter = Arc::new(compile(r"tls.sni matches 'example'").unwrap());
    let matching = tls_conversation("10.0.0.1:40000", "93.184.216.34:443", "www.example.com", 0);
    let matching_count = matching.len();
    let mut packets = matching;
    packets.extend(tls_conversation(
        "10.0.0.2:40001",
        "1.1.1.1:443",
        "other.org",
        50_000_000,
    ));
    let mut frames = Vec::new();
    run_offline::<ZcFrame, _>(&filter, &cfg(), packets, |f| frames.push(f));
    // Every packet of the matching conn except the post-termination ACK
    // (the connection is removed at FIN/FIN), none of the other conn.
    assert_eq!(frames.len(), matching_count - 1);
}

#[test]
fn http_transactions_keepalive() {
    let filter = Arc::new(compile("http").unwrap());
    let packets = http_conversation("10.0.0.1:40000", "93.184.216.34:80", "example.com", 3, 0);
    let mut out: Vec<HttpTransactionData> = Vec::new();
    run_offline::<HttpTransactionData, _>(&filter, &cfg(), packets, |t| out.push(t));
    assert_eq!(out.len(), 3, "one session per keep-alive transaction");
    assert_eq!(out[0].http.uri, "/page0");
    assert_eq!(out[2].http.uri, "/page2");
    assert!(out.iter().all(|t| t.http.status == 200));
    assert!(out
        .iter()
        .all(|t| t.http.host.as_deref() == Some("example.com")));
    // Each transaction carries the stamp of the packet that completed
    // it (its response), not of the connection's first match.
    let ts: Vec<u64> = out.iter().map(|t| t.ts_ns).collect();
    assert!(ts.windows(2).all(|w| w[0] < w[1]), "{ts:?}");
}

#[test]
fn dns_exchanges_carry_their_own_timestamps() {
    // Two query/response exchanges on one UDP five-tuple: one
    // connection, two sessions, each stamped when its response arrived.
    let filter = Arc::new(compile("dns").unwrap());
    let (client, server) = ("10.0.0.4:5555", "8.8.8.8:53");
    let datagram = |src: &str, dst: &str, payload: &[u8]| {
        Bytes::from(build_udp(&UdpSpec {
            src: src.parse().unwrap(),
            dst: dst.parse().unwrap(),
            ttl: 64,
            payload,
        }))
    };
    let mut packets = Vec::new();
    for (id, ts) in [(7u16, 1_000_000u64), (8, 9_000_000)] {
        let q = retina_protocols::dns::build_query(id, "example.com", 1);
        let r = retina_protocols::dns::build_response(id, "example.com", 1, 1, 0);
        packets.push((datagram(client, server, &q), ts));
        packets.push((datagram(server, client, &r), ts + 500_000));
    }
    let mut out: Vec<DnsTransactionData> = Vec::new();
    let stats = run_offline::<DnsTransactionData, _>(&filter, &cfg(), packets, |d| out.push(d));
    assert_eq!(stats.conns_created, 1);
    let ts: Vec<u64> = out.iter().map(|d| d.ts_ns).collect();
    assert_eq!(ts, vec![1_500_000, 9_500_000]);
}

#[test]
fn http_filter_on_user_agent() {
    let filter = Arc::new(compile("http.user_agent matches 'curl'").unwrap());
    let mut conv = Conversation::new("10.0.0.1:40000", "1.1.1.1:80", 0);
    conv.client_data(&http::build_request("GET", "/a", "h.com", "curl/8.0"));
    conv.server_data(&http::build_response(200, 0));
    let mut packets = conv.finish();

    let mut conv2 = Conversation::new("10.0.0.2:40002", "1.1.1.1:80", 90_000_000);
    conv2.client_data(&http::build_request("GET", "/b", "h.com", "Mozilla/5.0"));
    conv2.server_data(&http::build_response(200, 0));
    packets.extend(conv2.finish());

    let mut out: Vec<HttpTransactionData> = Vec::new();
    run_offline::<HttpTransactionData, _>(&filter, &cfg(), packets, |t| out.push(t));
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].http.uri, "/a");
}

#[test]
fn non_matching_protocol_discarded_early() {
    // Filter wants TLS; an SSH conn must be dropped at the conn filter,
    // as soon as the protocol is identified.
    let filter = Arc::new(compile("tls").unwrap());
    let mut conv = Conversation::new("10.0.0.1:40000", "1.1.1.1:22", 0);
    conv.client_data(&ssh::build_banner("OpenSSH_9.0"));
    conv.server_data(&ssh::build_banner("OpenSSH_8.9"));
    conv.client_data(&[0u8; 64]);
    let packets = conv.finish();
    let mut out: Vec<SessionRecord> = Vec::new();
    let stats = run_offline::<SessionRecord, _>(&filter, &cfg(), packets, |s| out.push(s));
    assert!(out.is_empty());
    assert_eq!(stats.conns_discarded, 1);
}

#[test]
fn session_record_all_protocols() {
    let filter = Arc::new(compile("tls or http or dns or ssh").unwrap());
    let mut packets = tls_conversation("10.0.0.1:40000", "1.1.1.1:443", "x.com", 0);
    packets.extend(http_conversation(
        "10.0.0.2:40001",
        "2.2.2.2:80",
        "y.com",
        1,
        100_000_000,
    ));
    let mut conv = Conversation::new("10.0.0.3:40002", "3.3.3.3:22", 200_000_000);
    conv.client_data(&ssh::build_banner("OpenSSH_9.0"));
    conv.server_data(&ssh::build_banner("OpenSSH_8.9"));
    packets.extend(conv.finish());
    // DNS over UDP.
    let q = retina_protocols::dns::build_query(7, "example.com", 1);
    let r = retina_protocols::dns::build_response(7, "example.com", 1, 1, 0);
    packets.push((
        Bytes::from(build_udp(&UdpSpec {
            src: "10.0.0.4:5555".parse().unwrap(),
            dst: "8.8.8.8:53".parse().unwrap(),
            ttl: 64,
            payload: &q,
        })),
        300_000_000,
    ));
    packets.push((
        Bytes::from(build_udp(&UdpSpec {
            src: "8.8.8.8:53".parse().unwrap(),
            dst: "10.0.0.4:5555".parse().unwrap(),
            ttl: 64,
            payload: &r,
        })),
        300_500_000,
    ));

    let mut protos = Vec::new();
    run_offline::<SessionRecord, _>(&filter, &cfg(), packets, |s| {
        protos.push(retina_filter::SessionData::protocol(&s.session).to_string());
    });
    protos.sort();
    assert_eq!(protos, vec!["dns", "http", "ssh", "tls"]);
}

#[test]
fn out_of_order_handshake_still_parses() {
    // Deliver the ClientHello in two TCP segments with the *second* half
    // arriving first: intra-direction reordering that the lightweight
    // reassembler must fix before the parser sees the bytes.
    let filter = Arc::new(compile("tls").unwrap());
    let mut conv = Conversation::new("10.0.0.1:40000", "1.1.1.1:443", 0);
    let ch = client_hello_record(&ClientHelloSpec {
        sni: Some("shuffled.test".into()),
        ciphers: vec![0x1301],
        random: [1; 32],
        version: 0x0303,
        alpn: None,
    });
    let split = 23;
    let (a, b) = ch.split_at(split);
    let (client, server, cseq, sseq) = (conv.client, conv.server, conv.cseq, conv.sseq);
    // Second segment first (seq offset by the first segment's length).
    conv.push_raw(
        client,
        server,
        cseq + split as u32,
        sseq,
        TcpFlags::ACK | TcpFlags::PSH,
        b,
    );
    conv.push_raw(client, server, cseq, sseq, TcpFlags::ACK | TcpFlags::PSH, a);
    conv.cseq += ch.len() as u32;
    conv.server_data(&server_hello_record(&ServerHelloSpec {
        cipher: 0x1301,
        random: [2; 32],
        version: 0x0303,
        supported_version: None,
        alpn: None,
    }));
    let packets = conv.finish();
    let mut out: Vec<TlsHandshakeData> = Vec::new();
    let stats = run_offline::<TlsHandshakeData, _>(&filter, &cfg(), packets, |h| out.push(h));
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].tls.sni(), "shuffled.test");
    assert!(stats.ooo_buffered >= 1, "the early segment was buffered");
}

#[test]
fn conn_bytes_reconstruction() {
    let filter = Arc::new(compile("http").unwrap());
    let packets = http_conversation("10.0.0.1:40000", "1.1.1.1:80", "stream.test", 1, 0);
    let mut out: Vec<ConnBytes> = Vec::new();
    run_offline::<ConnBytes, _>(&filter, &cfg(), packets, |b| out.push(b));
    assert_eq!(out.len(), 1);
    let cb = &out[0];
    let client = String::from_utf8_lossy(&cb.client_stream.to_vec()).into_owned();
    assert!(client.starts_with("GET /page0 HTTP/1.1\r\n"), "{client}");
    assert!(client.contains("Host: stream.test"));
    let server = String::from_utf8_lossy(&cb.server_stream.to_vec()).into_owned();
    assert!(server.starts_with("HTTP/1.1 200 OK"), "{server}");
    assert!(!cb.truncated);
}

/// One HTTP exchange through `ConnBytes` under a session-layer filter —
/// so the whole request is held pre-match — with the request sent as a
/// 20-byte segment plus the remainder (`swapped`: the remainder first),
/// the client counting from `isn`. Returns the request, what was
/// delivered, and how many segments the reassembler buffered.
fn split_request_conn_bytes(isn: u32, swapped: bool) -> (Vec<u8>, ConnBytes, u64) {
    let filter = Arc::new(compile("http.user_agent matches 'curl'").unwrap());
    let request = http::build_request("GET", "/split", "stream.test", "curl/8.0");
    let (head, rest) = request.split_at(20);
    let mut conv = Conversation::with_isn("10.0.0.1:40000", "1.1.1.1:80", 0, isn);
    let (client, server, cseq, sseq) = (conv.client, conv.server, conv.cseq, conv.sseq);
    let mut segments = [(cseq, head), (cseq.wrapping_add(20), rest)];
    if swapped {
        segments.reverse();
    }
    for (seq, payload) in segments {
        conv.push_raw(
            client,
            server,
            seq,
            sseq,
            TcpFlags::ACK | TcpFlags::PSH,
            payload,
        );
    }
    conv.cseq = cseq.wrapping_add(request.len() as u32);
    conv.server_data(&http::build_response(200, 16));
    let mut out: Vec<ConnBytes> = Vec::new();
    let stats = run_offline::<ConnBytes, _>(&filter, &cfg(), conv.finish(), |b| out.push(b));
    assert_eq!(out.len(), 1);
    (request, out.pop().unwrap(), stats.ooo_buffered)
}

#[test]
fn conn_bytes_held_stream_survives_sequence_wrap() {
    // The request straddles 2^32 in the second run: the stream is the
    // reassembler's, so where the sequence space wraps changes nothing.
    let (request, plain, _) = split_request_conn_bytes(1000, false);
    let (_, wrapped, _) = split_request_conn_bytes(0xFFFF_FFEF, false);
    assert_eq!(plain.client_stream, request);
    assert_eq!(wrapped.client_stream, request);
    assert_eq!(wrapped.server_stream, plain.server_stream);
    assert!(!plain.truncated && !wrapped.truncated);
}

#[test]
fn conn_bytes_held_stream_is_reordered_once() {
    // The two request segments swapped on the wire: the reassembler
    // buffers the early one, and the held stream is in order.
    for isn in [1000, 0xFFFF_FFEF] {
        let (request, swapped, ooo_buffered) = split_request_conn_bytes(isn, true);
        assert_eq!(swapped.client_stream, request, "isn {isn:#x}");
        assert!(ooo_buffered >= 1, "the early segment was buffered");
    }
}

/// A keep-alive HTTP conversation, not yet closed, that moves at least
/// `bytes` each way in ~10 KB requests (a padded URI) and responses,
/// the client announcing `user_agent`; and what each side sent.
fn bulk_http(user_agent: &str, bytes: usize) -> (Conversation, Vec<u8>, Vec<u8>) {
    let mut conv = Conversation::new("10.0.0.1:40000", "1.1.1.1:80", 0);
    let (mut up, mut down) = (Vec::new(), Vec::new());
    let uri = format!("/{}", "a".repeat(9_900));
    while up.len() < bytes || down.len() < bytes {
        let request = http::build_request("GET", &uri, "bulk.test", user_agent);
        let response = http::build_response(200, 10_000);
        conv.send(true, &request);
        conv.send(false, &response);
        up.extend(request);
        down.extend(response);
    }
    (conv, up, down)
}

/// One core's pipeline serving `S` under `filter`, to be driven by hand.
fn pipeline_for<S: retina_core::Subscribable>(filter: &str) -> CorePipeline<CompiledFilter> {
    let sub: Arc<dyn ErasedSubscription> = Arc::new(TypedSubscription::<S>::spec_only("sub0"));
    CorePipeline::new(Arc::new(compile(filter).unwrap()), &[sub], &cfg(), None)
}

/// Hands `packets` to the pipeline as an RX queue would: every frame
/// charged to `pool` and stamped, each burst's mbufs gone once
/// `on_burst` returns.
fn feed_pooled<T: Transport>(
    pipeline: &mut CorePipeline<CompiledFilter>,
    transport: &mut T,
    pool: &Mempool,
    packets: &[(Bytes, u64)],
) {
    let rss = RssHasher::symmetric();
    for burst in packets.chunks(BURST_MAX) {
        let mbufs = burst.iter().map(|(frame, ts)| {
            let mut mbuf = Mbuf::from_bytes_in(frame.clone(), pool);
            mbuf.timestamp_ns = *ts;
            mbuf.rss_hash = rss.hash_packet(&ParsedPacket::parse(frame).unwrap());
            mbuf
        });
        pipeline.on_burst(mbufs, [], transport);
    }
}

/// Ethernet + IPv4 + TCP headers of every frame a `Conversation` builds.
const HEADERS: usize = 54;

#[test]
fn conn_bytes_undecided_stream_pins_one_capture_cap() {
    // No transaction ever matches, and HTTP keeps parsing after a miss:
    // the subscription stays undecided — holding its stream — while 2 MiB
    // go by each way. What it pins is bounded in bytes, by the capture cap
    // (a 4096-segment hold let this connection pin all 4 MiB).
    let (conv, ..) = bulk_http("Mozilla/5.0", 2 << 20);
    let live = conv.packets.len();
    let packets = conv.finish();
    let pool = Mempool::new(1 << 16);
    let mut pipeline = pipeline_for::<ConnBytes>("http.user_agent matches 'never'");
    let mut delivered = 0;
    let mut transport = Direct::new(|_: ConnBytes| delivered += 1);
    feed_pooled(&mut pipeline, &mut transport, &pool, &packets[..live]);
    let stats = pipeline.tracker().stats();
    assert_eq!((stats.conns_created, stats.conns_discarded), (1, 0));
    assert!(
        stats.session_filter.runs > 200,
        "parsed and missed throughout"
    );
    let pinned_payload = pool.bytes_in_use() - HEADERS * pool.in_use();
    assert!(
        pinned_payload >= 2 * STREAM_CAPTURE_LIMIT,
        "both caps reached"
    );
    assert!(
        pinned_payload <= 2 * (STREAM_CAPTURE_LIMIT + MSS),
        "{pinned_payload} payload bytes pinned in {} frames",
        pool.in_use()
    );
    feed_pooled(&mut pipeline, &mut transport, &pool, &packets[live..]);
    pipeline.drain(&mut transport);
    assert_eq!(
        pool.in_use(),
        0,
        "an unmatched stream dies with its connection"
    );
    assert_eq!(delivered, 0);
}

#[test]
fn conn_bytes_matched_stream_is_cut_at_the_cap_exactly() {
    // The same conversation from a client the filter wants: matched by
    // its first transaction, captured up to the cap — held before the
    // match or after, one cap — and cut mid-segment to land on it.
    let (conv, up, down) = bulk_http("curl/8.0", 2 << 20);
    let filter = Arc::new(compile("http.user_agent matches 'curl'").unwrap());
    let mut out: Vec<ConnBytes> = Vec::new();
    run_offline::<ConnBytes, _>(&filter, &cfg(), conv.finish(), |b| out.push(b));
    assert_eq!(out.len(), 1);
    let cb = &out[0];
    assert!(cb.truncated);
    assert_eq!(cb.client_stream.len(), STREAM_CAPTURE_LIMIT);
    assert_eq!(cb.server_stream.len(), STREAM_CAPTURE_LIMIT);
    assert_eq!(cb.client_stream, up[..STREAM_CAPTURE_LIMIT]);
    assert_eq!(cb.server_stream, down[..STREAM_CAPTURE_LIMIT]);
}

#[test]
fn conn_bytes_small_segments_pin_a_bounded_number_of_frames() {
    // A sender that writes one byte per segment: every byte held pins a
    // whole frame, so the byte cap alone would let this one connection
    // hold all 10 000 of its data frames, exhaust the pool and leave the
    // paced ingest waiting for buffers that only a later packet's
    // timestamp could free — a run that never returns. The segment guard
    // stops each direction at `STREAM_CAPTURE_SEGMENTS` views.
    const EACH_WAY: usize = 5000;
    const RING: usize = 256;
    let mut conv = Conversation::new("10.0.0.1:40000", "1.1.1.1:9000", 0);
    let up: Vec<u8> = (0..EACH_WAY).map(|i| i as u8).collect();
    let down: Vec<u8> = up.iter().map(|b| !b).collect();
    for (u, d) in up.iter().zip(&down) {
        conv.client_data(&[*u]);
        conv.server_data(&[*d]);
    }
    let packets = conv.finish();
    let mut config = cfg();
    config.device.ring_capacity = RING;
    let pool_size = 2 * STREAM_CAPTURE_SEGMENTS + 2 * RING;
    config.device.mempool_capacity = pool_size;
    assert!(config.paced_ingest);
    assert!(2 * EACH_WAY > pool_size);
    let kept = Arc::new(Mutex::new(Vec::new()));
    let k2 = Arc::clone(&kept);
    let mut rt = Runtime::<ConnBytes, _>::new(config, compile("tcp").unwrap(), move |cb| {
        k2.lock().unwrap().push(cb);
    })
    .unwrap();
    let report = rt.run(Src(packets));
    assert!(report.zero_loss());
    // Two guards' worth of views, a ring and a burst in flight: the pool
    // never ran dry.
    assert!(
        report.mbuf_high_water < pool_size,
        "high water {}",
        report.mbuf_high_water
    );
    let pool = rt.nic().mempool();
    assert_eq!(pool.in_use(), 2 * STREAM_CAPTURE_SEGMENTS);
    {
        let kept = kept.lock().unwrap();
        assert_eq!(kept.len(), 1);
        let cb = &kept[0];
        assert!(cb.truncated);
        assert_eq!(cb.client_stream.segments(), STREAM_CAPTURE_SEGMENTS);
        assert_eq!(cb.client_stream, up[..STREAM_CAPTURE_SEGMENTS]);
        assert_eq!(cb.server_stream, down[..STREAM_CAPTURE_SEGMENTS]);
    }
    kept.lock().unwrap().clear();
    assert_eq!(pool.in_use(), 0);
}

#[test]
fn conn_bytes_datum_keeps_its_frames_charged() {
    // Three TLS conversations, five data frames each. Once they have
    // terminated nothing is in flight — no ring, no burst, no table
    // entry — so the pool's occupancy is exactly what the delivered
    // data still view.
    let packets: Vec<_> = (0..3u32)
        .flat_map(|i| {
            let client = format!("10.0.0.{}:4000{i}", i + 1);
            tls_conversation(&client, "1.1.1.1:443", "a.com", u64::from(i) * 50_000_000)
        })
        .collect();
    let pool = Mempool::new(1 << 10);
    let mut pipeline = pipeline_for::<ConnBytes>("tcp");
    let mut out: Vec<ConnBytes> = Vec::new();
    let mut transport = Direct::new(|b| out.push(b));
    feed_pooled(&mut pipeline, &mut transport, &pool, &packets);
    assert_eq!(pipeline.tracker().connections(), 0);
    assert_eq!(out.len(), 3);
    assert_eq!(pool.in_use(), 3 * 5);
    for cb in &out {
        assert_eq!(cb.client_stream.chunks().count(), 2);
        assert_eq!(cb.server_stream.chunks().count(), 3);
    }
    // A clone views the same frames; each datum releases its own five.
    let copy = out[0].clone();
    out.remove(0);
    assert_eq!(pool.in_use(), 3 * 5);
    drop(copy);
    assert_eq!(pool.in_use(), 2 * 5);
    out.clear();
    assert_eq!(pool.in_use(), 0);
}

#[test]
fn conn_bytes_frames_are_released_where_the_datum_drops() {
    // Through the virtual NIC and the threaded runtime: a datum kept
    // past the run keeps its frames charged to the NIC's pool; one
    // dropped by its callback — on the RX core, or on a dispatch worker
    // — has released them by the time the run returns.
    let packets: Vec<(Bytes, u64)> = (0..20u32)
        .flat_map(|i| {
            let client = format!("10.4.0.{}:4{i:04}", i + 1);
            tls_conversation(&client, "1.1.1.1:443", "a.com", u64::from(i) * 10_000_000)
        })
        .collect();
    let run = |mode: DispatchMode, keep: bool| {
        let kept = Arc::new(Mutex::new(Vec::new()));
        let k2 = Arc::clone(&kept);
        let filter = compile("tcp").unwrap();
        let mut rt = Runtime::<ConnBytes, _>::new(cfg(), filter, move |cb| {
            let on_worker = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("retina-cb-"));
            assert_eq!(on_worker, mode != DispatchMode::Inline);
            if keep {
                k2.lock().unwrap().push(cb);
            }
        })
        .unwrap();
        rt.set_dispatch_mode(mode);
        let report = rt.run(Src(packets.clone()));
        assert!(report.zero_loss());
        assert_eq!(report.cores.callbacks.runs, 20);
        (Arc::clone(rt.nic()), kept)
    };
    for mode in [DispatchMode::Inline, DispatchMode::dedicated(2)] {
        let (nic, kept) = run(mode, true);
        assert_eq!(nic.mempool().in_use(), 20 * 5, "{mode:?}");
        kept.lock().unwrap().clear();
        assert_eq!(nic.mempool().in_use(), 0, "{mode:?}");
        let (nic, _) = run(mode, false);
        assert_eq!(nic.mempool().in_use(), 0, "{mode:?}");
    }
}

/// One direction of a TCP stream as a hostile network delivers it:
/// `payload` cut into segments of 1..=1460 bytes, some adjacent pairs
/// swapped, some segments sent twice. `(offset into payload, length)`
/// per frame, in wire order.
fn mangled_segments(rng: &mut SmallRng, payload: &[u8]) -> Vec<(usize, usize)> {
    let mut segments = Vec::new();
    let mut at = 0;
    while at < payload.len() {
        let len = rng.random_range(1..MSS + 1).min(payload.len() - at);
        segments.push((at, len));
        at += len;
    }
    let mut i = 0;
    while i + 1 < segments.len() {
        if rng.random_range(0..4u32) == 0 {
            segments.swap(i, i + 1);
            i += 2;
        } else {
            i += 1;
        }
    }
    let mut wire = Vec::new();
    for segment in segments {
        wire.push(segment);
        if rng.random_range(0..5u32) == 0 {
            wire.push(segment); // a whole-segment retransmission
        }
    }
    wire
}

/// `payload` from the client, mangled by `seed`, the client counting
/// from `isn`; the server answers with a fixed banner. Returns what the
/// `ConnBytes` subscription delivered.
fn mangled_upload(seed: u64, isn: u32, payload: &[u8]) -> ConnBytes {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut conv = Conversation::with_isn("10.0.0.1:40000", "1.1.1.1:9000", 0, isn);
    let (client, server, base, sseq) = (conv.client, conv.server, conv.cseq, conv.sseq);
    for (at, len) in mangled_segments(&mut rng, payload) {
        let seq = base.wrapping_add(at as u32);
        let flags = TcpFlags::ACK | TcpFlags::PSH;
        conv.push_raw(client, server, seq, sseq, flags, &payload[at..at + len]);
    }
    conv.cseq = base.wrapping_add(payload.len() as u32);
    conv.server_data(b"stored\n");
    let filter = Arc::new(compile("tcp").unwrap());
    let mut out: Vec<ConnBytes> = Vec::new();
    run_offline::<ConnBytes, _>(&filter, &cfg(), conv.finish(), |b| out.push(b));
    assert_eq!(out.len(), 1);
    out.pop().unwrap()
}

#[test]
fn conn_bytes_is_the_bytes_sent_however_they_were_cut() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_B17E5);
    for case in 0..24u64 {
        let mut payload = vec![0u8; rng.random_range(1..40_000usize)];
        rng.fill(&mut payload);
        // The client's ISN on both sides of 2^32: far from the wrap,
        // and close enough below it that this payload crosses it.
        let before_wrap = rng.random_range(1..payload.len() as u32 + 1);
        for isn in [rng.random::<u32>() >> 1, 0u32.wrapping_sub(before_wrap)] {
            let one = mangled_upload(case, isn, &payload);
            let other = mangled_upload(case ^ 0xFFFF, isn, &payload);
            let ctx = format!("case {case}, isn {isn:#x}, {} bytes", payload.len());
            assert_eq!(one.client_stream.to_vec(), payload, "{ctx}");
            let chunks: Vec<&[u8]> = one.client_stream.chunks().collect();
            assert_eq!(chunks.concat(), payload, "{ctx}");
            assert_eq!(
                one.client_stream.len(),
                chunks.iter().map(|c| c.len()).sum::<usize>(),
                "{ctx}"
            );
            assert!(!one.truncated, "{ctx}");
            // Another segmentation of the same bytes: another chain of
            // views, the same stream.
            assert_eq!(one, other, "{ctx}");
            assert_eq!(one.server_stream, b"stored\n"[..], "{ctx}");
        }
    }
}

/// Out-of-order segments whose frames carry Ethernet trailer bytes past
/// their IP length. The reassembler holds three of them and flushes them
/// when the first arrives; each is read over the payload range its one
/// parse stamped, which the IP length bounds, so no trailer byte reaches
/// the stream.
#[test]
fn flushed_segments_deliver_the_stream_without_trailer_padding() {
    let payload: Vec<u8> = (1..=40).collect();
    let mut conv = Conversation::new("10.0.0.1:40000", "1.1.1.1:9000", 0);
    let (client, server, base, sseq) = (conv.client, conv.server, conv.cseq, conv.sseq);
    for at in [30, 10, 20, 0] {
        let flags = TcpFlags::ACK | TcpFlags::PSH;
        let seq = base + at as u32;
        conv.push_raw(client, server, seq, sseq, flags, &payload[at..at + 10]);
    }
    conv.cseq = base + payload.len() as u32;
    conv.server_data(b"ok");
    let padded = conv.finish().into_iter().map(|(frame, ts)| {
        let mut frame = frame.to_vec();
        frame.extend_from_slice(&[0xEE; 12]);
        (Bytes::from(frame), ts)
    });
    let filter = Arc::new(compile("tcp").unwrap());
    let mut out: Vec<ConnBytes> = Vec::new();
    let stats = run_offline::<ConnBytes, _>(&filter, &cfg(), padded, |b| out.push(b));
    assert_eq!(stats.ooo_buffered, 3, "three segments were held");
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].client_stream.to_vec(), payload);
    assert_eq!(out[0].server_stream, b"ok"[..]);
}

#[test]
fn udp_dns_expires_and_delivers_conn_record() {
    // DNS conn has no FIN; it must be delivered via timeout expiry.
    let filter = Arc::new(compile("udp").unwrap());
    let q = retina_protocols::dns::build_query(9, "slow.example", 1);
    let mut packets = vec![(
        Bytes::from(build_udp(&UdpSpec {
            src: "10.0.0.4:5555".parse().unwrap(),
            dst: "8.8.8.8:53".parse().unwrap(),
            ttl: 64,
            payload: &q,
        })),
        0,
    )];
    // A late unrelated packet advances simulated time far enough for the
    // establish timeout (5s) to fire.
    packets.push((
        Bytes::from(build_udp(&UdpSpec {
            src: "10.0.0.5:6666".parse().unwrap(),
            dst: "9.9.9.9:53".parse().unwrap(),
            ttl: 64,
            payload: b"x",
        })),
        30_000_000_000,
    ));
    let mut out: Vec<ConnRecord> = Vec::new();
    let stats = run_offline::<ConnRecord, _>(&filter, &cfg(), packets, |r| out.push(r));
    // Both conns are delivered despite never seeing a FIN: by timeout
    // expiry or by the end-of-run drain.
    assert_eq!(out.len(), 2);
    assert_eq!(stats.conns_expired + stats.conns_drained, 2);
}

#[test]
fn runtime_multicore_end_to_end() {
    struct VecSource {
        batches: Vec<Vec<(Bytes, u64)>>,
    }
    impl TrafficSource for VecSource {
        fn next_batch(&mut self, out: &mut Vec<(Bytes, u64)>) -> bool {
            match self.batches.pop() {
                Some(b) => {
                    out.extend(b);
                    true
                }
                None => false,
            }
        }
    }

    // 40 TLS conversations to distinct endpoints, half to .com SNIs.
    let mut batches = Vec::new();
    for i in 0..40u32 {
        let sni = if i % 2 == 0 {
            format!("site{i}.com")
        } else {
            format!("site{i}.org")
        };
        let client = format!("10.0.{}.{}:4{:04}", i / 256, i % 256, i);
        let server = format!("93.184.216.{}:443", i % 200 + 1);
        batches.push(tls_conversation(
            &client,
            &server,
            &sni,
            u64::from(i) * 10_000_000,
        ));
    }

    let filter = compile(r"tls.sni matches '\.com$'").unwrap();
    let hits = Arc::new(Mutex::new(Vec::new()));
    let hits2 = Arc::clone(&hits);
    let mut config = RuntimeConfig::with_cores(4);
    config.profile_stages = true;
    let mut runtime = Runtime::<TlsHandshakeData, _>::new(config, filter, move |hs| {
        hits2.lock().unwrap().push(hs.tls.sni().to_string());
    })
    .unwrap();
    let report = runtime.run(VecSource { batches });

    let mut got = hits.lock().unwrap().clone();
    got.sort();
    assert_eq!(got.len(), 20, "exactly the .com handshakes: {got:?}");
    assert!(got.iter().all(|s| s.ends_with(".com")));
    assert!(report.zero_loss(), "{:?}", report.nic);
    assert_eq!(report.cores.callbacks.runs, 20);
    // Hardware filter dropped nothing TCP, but the packet filter ran on
    // every delivered packet.
    assert_eq!(report.cores.rx_packets, report.nic.rx_delivered);
    assert!(report.cores.packet_filter.runs > 0);
    assert!(report.gbps() > 0.0);
}

#[test]
fn hw_filter_drops_out_of_scope_in_runtime() {
    struct OneShot(Vec<(Bytes, u64)>);
    impl TrafficSource for OneShot {
        fn next_batch(&mut self, out: &mut Vec<(Bytes, u64)>) -> bool {
            if self.0.is_empty() {
                return false;
            }
            out.append(&mut self.0);
            true
        }
    }
    // TLS filter → hardware filter admits only TCP; UDP dropped at "NIC".
    let mut packets = tls_conversation("10.0.0.1:40000", "1.1.1.1:443", "a.com", 0);
    let tcp_count = packets.len() as u64;
    for i in 0..50u16 {
        packets.push((
            Bytes::from(build_udp(&UdpSpec {
                src: format!("10.1.0.{}:1000", i % 250 + 1).parse().unwrap(),
                dst: "8.8.8.8:53".parse().unwrap(),
                ttl: 64,
                payload: b"q",
            })),
            1_000_000_000 + u64::from(i),
        ));
    }
    let filter = compile("tls").unwrap();
    let mut runtime =
        Runtime::<TlsHandshakeData, _>::new(RuntimeConfig::default(), filter, |_| {}).unwrap();
    let report = runtime.run(OneShot(packets));
    assert_eq!(report.nic.hw_dropped, 50, "UDP dropped in hardware");
    assert_eq!(report.nic.rx_delivered, tcp_count);
}

#[test]
fn queued_callback_mode_equals_inline() {
    // The paper's future-work execution model: results must be identical
    // to inline execution, only the execution locus changes.
    let packets: Vec<(Bytes, u64)> = (0..30u32)
        .flat_map(|i| {
            tls_conversation(
                &format!("10.3.{}.{}:4{:04}", i / 250, i % 250 + 1, i),
                "93.184.216.34:443",
                &format!("site{i}.com"),
                u64::from(i) * 10_000_000,
            )
        })
        .collect();
    let run = |mode: retina_core::DispatchMode| {
        let hits = Arc::new(Mutex::new(Vec::new()));
        let h2 = Arc::clone(&hits);
        let config = RuntimeConfig::with_cores(2);
        let filter = retina_core::compile("tls").unwrap();
        let mut rt = Runtime::<TlsHandshakeData, _>::new(config, filter, move |hs| {
            h2.lock().unwrap().push(hs.tls.sni().to_string());
        })
        .unwrap();
        rt.set_dispatch_mode(mode);
        let report = rt.run(Src(packets.clone()));
        assert!(report.zero_loss());
        let mut got = hits.lock().unwrap().clone();
        got.sort();
        got
    };
    let inline = run(retina_core::DispatchMode::Inline);
    let queued = run(retina_core::DispatchMode::dedicated(4));
    assert_eq!(inline.len(), 30);
    assert_eq!(inline, queued);
}

#[test]
fn monitor_samples_a_run() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let packets: Vec<(Bytes, u64)> = (0..200u32)
        .flat_map(|i| {
            tls_conversation(
                &format!("10.9.{}.{}:4{:04}", i / 250, i % 250 + 1, i % 9999),
                "93.184.216.34:443",
                "monitored.com",
                u64::from(i) * 2_000_000,
            )
        })
        .collect();
    let filter = retina_core::compile("tls").unwrap();
    let mut rt =
        Runtime::<TlsHandshakeData, _>::new(RuntimeConfig::with_cores(2), filter, |_| {}).unwrap();
    struct Counting(Arc<AtomicUsize>);
    impl retina_core::MetricSink for Counting {
        fn on_sample(&mut self, _sample: &retina_core::Sample) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
    let seen = Arc::new(AtomicUsize::new(0));
    rt.set_monitor(
        std::time::Duration::from_millis(5),
        vec![Box::new(Counting(Arc::clone(&seen)))],
    );
    let report = rt.run(Src(packets));
    let samples = &report.samples;
    assert!(
        seen.load(Ordering::Relaxed) >= 1,
        "the closing tick samples every monitored run"
    );
    assert_eq!(samples.len(), seen.load(Ordering::Relaxed));
    assert!(samples.iter().any(|s| s.gbps > 0.0 || s.connections > 0));
    assert!(report.zero_loss());
    // Log lines render.
    for s in samples.iter().take(2) {
        assert!(!s.to_log_line().is_empty());
    }
}

#[test]
fn monitor_interval_outlasting_the_run_samples_once() {
    // The one sample is the closing tick, taken after every core has
    // exited: it reads the final gauges.
    let packets = tls_conversation("10.9.0.1:40001", "93.184.216.34:443", "once.com", 1_000);
    let filter = retina_core::compile("tls").unwrap();
    let mut rt =
        Runtime::<TlsHandshakeData, _>::new(RuntimeConfig::with_cores(2), filter, |_| {}).unwrap();
    rt.set_monitor(std::time::Duration::from_secs(3600), Vec::new());
    let report = rt.run(Src(packets));
    assert_eq!(report.samples.len(), 1);
    let sample = report.samples[0];
    assert_eq!(sample.parse_failures, report.cores.parse_failures);
    assert!(sample.sim_clock_ns <= report.sim_duration_ns);
    assert!(report.governor.is_none());
    // A monitor applies to one run only.
    let packets = tls_conversation("10.9.0.2:40002", "93.184.216.34:443", "once.com", 1_000);
    assert!(rt.run(Src(packets)).samples.is_empty());
}

#[test]
fn zero_cores_is_a_build_error() {
    let config = RuntimeConfig {
        cores: 0,
        ..RuntimeConfig::default()
    };
    let built = retina_core::RuntimeBuilder::new(config)
        .subscribe("tcp", |_: ConnRecord| {})
        .build();
    assert!(matches!(built, Err(retina_core::RuntimeError::NoCores)));
}

#[test]
fn ooo_flood_bounded_and_survives() {
    // 600 out-of-order segments for a Track-state connection: no mbufs
    // are buffered at all (counting-only sequence tracking, §5.2), the
    // reordering event is still surfaced in the record, the connection
    // terminates normally, and nothing panics.
    let filter = Arc::new(compile("tcp").unwrap());
    let mut conv = Conversation::new("10.0.0.1:40000", "1.1.1.1:9999", 0);
    let (client, server, cseq, sseq) = (conv.client, conv.server, conv.cseq, conv.sseq);
    // Segments 1..=600 arrive before segment 0 ever does.
    for i in 1..=600u32 {
        conv.push_raw(
            client,
            server,
            cseq + i * 100,
            sseq,
            TcpFlags::ACK | TcpFlags::PSH,
            &[0xAB; 100],
        );
    }
    // FIN follows the highest delivered sequence, as a real sender would.
    conv.cseq = cseq + 601 * 100;
    let packets = conv.finish();
    let mut out: Vec<ConnRecord> = Vec::new();
    let stats = run_offline::<ConnRecord, _>(&filter, &cfg(), packets, |r| out.push(r));
    assert_eq!(out.len(), 1);
    let rec = &out[0];
    // SYN + handshake ACK + flood + client FIN; the post-termination ACK
    // is absorbed by the closed-connection set.
    assert_eq!(rec.pkts_up, 2 + 600 + 1);
    assert!(rec.terminated);
    // Counting-only tracking records the reordering event (the skipped
    // hole), not one entry per trailing segment — and holds zero mbufs.
    assert!(rec.ooo_up >= 1, "ooo events: {}", rec.ooo_up);
    assert!(stats.ooo_buffered >= 1);
    // No reassembly work was spent on a Track-state connection.
    assert_eq!(stats.reassembly.runs, 0);
}

#[test]
fn rst_before_protocol_identified() {
    // A connection reset during the handshake: no session, a terminated
    // conn record, no leaks or panics.
    let filter = Arc::new(compile("tcp").unwrap());
    let mut conv = Conversation::new("10.0.0.1:40000", "1.1.1.1:443", 0);
    let (client, server, cseq, sseq) = (conv.client, conv.server, conv.cseq, conv.sseq);
    // Two bytes of a would-be TLS hello, then RST.
    conv.push_raw(
        client,
        server,
        cseq,
        sseq,
        TcpFlags::ACK | TcpFlags::PSH,
        &[0x16, 0x03],
    );
    conv.push_raw(server, client, sseq, cseq + 2, TcpFlags::RST, &[]);
    let packets = conv.packets;
    let mut out: Vec<ConnRecord> = Vec::new();
    run_offline::<ConnRecord, _>(&filter, &cfg(), packets, |r| out.push(r));
    assert_eq!(out.len(), 1);
    assert!(out[0].terminated);
    assert!(!out[0].single_syn);
}
