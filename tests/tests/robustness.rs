//! Panic-freedom under adversarial input — the §2 security requirement:
//! "real-world network traffic can be unpredictable and malicious …
//! our system needs to safely perform internal framework operations".
//!
//! Every parser in the stack (wire, protocol modules, and the full
//! pipeline) must return errors, never panic, on arbitrary bytes —
//! including structure-aware mutations of valid frames, which reach much
//! deeper into the parsers than pure noise.

use retina_protocols::{Direction, StandaloneParser};
use retina_support::proptest::prelude::*;
use retina_wire::ParsedPacket;

fn parsers() -> Vec<StandaloneParser> {
    let registry = retina_protocols::ParserRegistry::default();
    registry.new_parsers(&[
        "tls".to_string(),
        "http".to_string(),
        "dns".to_string(),
        "ssh".to_string(),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes never panic the one-pass packet parser.
    #[test]
    fn wire_parse_total(data in collection::vec(any::<u8>(), 0..256)) {
        let _ = ParsedPacket::parse(&data);
    }

    /// Arbitrary bytes never panic any protocol parser (probe or parse),
    /// in either direction, including when fed incrementally.
    #[test]
    fn protocol_parsers_total(
        data in collection::vec(any::<u8>(), 0..512),
        chunk in 1usize..64,
    ) {
        for mut parser in parsers() {
            let _ = parser.probe(&data, Direction::ToServer);
            let _ = parser.probe(&data, Direction::ToClient);
            for piece in data.chunks(chunk) {
                let _ = parser.parse(piece, Direction::ToServer);
            }
            let _ = parser.drain_sessions();
        }
    }

    /// Structure-aware mutation: corrupt one byte of a valid TLS
    /// ClientHello record and feed it everywhere.
    #[test]
    fn mutated_client_hello_total(pos in 0usize..200, val in any::<u8>()) {
        let mut record = retina_protocols::tls::build::client_hello_record(
            &retina_protocols::tls::build::ClientHelloSpec {
                sni: Some("mutation.example".into()),
                ciphers: vec![0x1301, 0xc02f],
                random: [3; 32],
                version: 0x0303,
                alpn: Some("h2".into()),
            },
        );
        if pos < record.len() {
            record[pos] = val;
        }
        for mut parser in parsers() {
            let _ = parser.probe(&record, Direction::ToServer);
            let _ = parser.parse(&record, Direction::ToServer);
            let _ = parser.drain_sessions();
        }
    }

    /// Structure-aware mutation of a full valid frame through the whole
    /// offline pipeline: parse + filters + tracker must never panic.
    #[test]
    fn mutated_frame_through_pipeline(
        pos in 0usize..400,
        val in any::<u8>(),
        seed in any::<u8>(),
    ) {
        use retina_core::offline::run_offline;
        use retina_core::subscribables::SessionRecord;
        use std::sync::Arc;

        let base = retina_wire::build::build_tcp(&retina_wire::build::TcpSpec {
            src: "171.64.1.2:40000".parse().unwrap(),
            dst: "93.184.216.34:443".parse().unwrap(),
            seq: 1000,
            ack: 2000,
            flags: retina_wire::TcpFlags::ACK | retina_wire::TcpFlags::PSH,
            window: 64,
            ttl: 64,
            payload: &retina_protocols::tls::build::client_hello_record(
                &retina_protocols::tls::build::ClientHelloSpec {
                    sni: Some("pipeline.example".into()),
                    ciphers: vec![0x1301],
                    random: [seed; 32],
                    version: 0x0303,
                    alpn: None,
                },
            ),
        });
        let mut frame = base;
        if pos < frame.len() {
            frame[pos] = val;
        }
        let filter = Arc::new(retina_core::compile("tls or http or dns or ssh").unwrap());
        run_offline::<SessionRecord, _>(
            &filter,
            &retina_core::RuntimeConfig::default(),
            vec![(retina_support::bytes::Bytes::from(frame), 0)],
            |_| {},
        );
    }

    /// Truncation at every length: a valid frame cut anywhere must flow
    /// through the pipeline without panicking.
    #[test]
    fn truncated_frames_total(cut in 0usize..120) {
        let frame = retina_wire::build::build_udp(&retina_wire::build::UdpSpec {
            src: "10.0.0.1:5353".parse().unwrap(),
            dst: "8.8.8.8:53".parse().unwrap(),
            ttl: 64,
            payload: &retina_protocols::dns::build_query(7, "cut.example.com", 1),
        });
        let cut = cut.min(frame.len());
        let _ = ParsedPacket::parse(&frame[..cut]);
    }
}

/// Deterministic adversarial corpus: crafted inputs that target known
/// parser edge cases.
#[test]
fn adversarial_corpus() {
    let corpus: Vec<Vec<u8>> = vec![
        vec![],
        vec![0x16],                         // lone TLS type byte
        vec![0x16, 0x03, 0x03, 0xff, 0xff], // record claiming 64KB
        b"GET ".to_vec(),                   // truncated request line
        b"GET / HTTP/9.9\r\n\r\n".to_vec(), // bad version
        b"SSH-".to_vec(),                   // truncated banner
        vec![0u8; 12],                      // DNS header, zero counts
        {
            // DNS with qdcount=1 but a label pointing past the packet.
            let mut d = vec![0u8; 12];
            d[5] = 1;
            d.extend_from_slice(&[0xc0, 0xff]);
            d
        },
        vec![0xff; 512], // all ones
        {
            // TLS handshake message length larger than the record.
            let mut r = vec![0x16, 0x03, 0x03, 0x00, 0x04];
            r.extend_from_slice(&[0x01, 0xff, 0xff, 0xff]);
            r
        },
    ];
    for input in &corpus {
        for mut parser in parsers() {
            let _ = parser.probe(input, Direction::ToServer);
            let _ = parser.parse(input, Direction::ToServer);
            let _ = parser.parse(input, Direction::ToClient);
            let _ = parser.drain_sessions();
        }
        let _ = ParsedPacket::parse(input);
    }
}

/// One TCP conversation, `request` up and `response` down in 1400-byte
/// segments, 10 µs between packets from `t0`.
fn conversation(
    client: &str,
    server: &str,
    request: &[u8],
    response: &[u8],
    t0: u64,
) -> Vec<(retina_support::bytes::Bytes, u64)> {
    use retina_wire::build::{build_tcp, TcpSpec};
    use retina_wire::TcpFlags;

    let (client, server) = (client.parse().unwrap(), server.parse().unwrap());
    let (mut cseq, mut sseq) = (1000u32, 9000u32);
    let mut out = Vec::new();
    let mut push = |up: bool, flags: u8, payload: &[u8]| {
        let (src, dst, seq, ack) = if up {
            (client, server, &mut cseq, sseq)
        } else {
            (server, client, &mut sseq, cseq)
        };
        let frame = build_tcp(&TcpSpec {
            src,
            dst,
            seq: *seq,
            ack,
            flags,
            window: 65535,
            ttl: 64,
            payload,
        });
        let syn_fin = u32::from(flags & (TcpFlags::SYN | TcpFlags::FIN) != 0);
        *seq += u32::try_from(payload.len()).unwrap() + syn_fin;
        out.push((frame.into(), t0 + 10_000 * out.len() as u64));
    };
    push(true, TcpFlags::SYN, &[]);
    push(false, TcpFlags::SYN | TcpFlags::ACK, &[]);
    push(true, TcpFlags::ACK, &[]);
    for segment in request.chunks(1400) {
        push(true, TcpFlags::ACK | TcpFlags::PSH, segment);
    }
    for segment in response.chunks(1400) {
        push(false, TcpFlags::ACK | TcpFlags::PSH, segment);
    }
    push(true, TcpFlags::FIN | TcpFlags::ACK, &[]);
    push(false, TcpFlags::FIN | TcpFlags::ACK, &[]);
    push(true, TcpFlags::ACK, &[]);
    out
}

/// A field as long as a parser accepts — a 60 KiB SNI (the TLS parser
/// carries up to 64 KiB) and a 16 KiB URI (an HTTP head's limit) —
/// through the campus_union4 subscriptions plus a `~` on the URI, on a
/// thread with a 2 MiB stack. A matcher whose time or stack grows faster
/// than the field stalls or aborts the RX core here; the automaton reads
/// each field once, so the run completes and delivers what the patterns'
/// plain-substring equivalents say it must.
#[test]
fn long_fields_through_the_union_regexes() {
    std::thread::Builder::new()
        .name("rx-2mib".into())
        .stack_size(2 << 20)
        .spawn(long_fields_run)
        .expect("spawn")
        .join()
        .expect("the run completes on a 2 MiB stack");
}

fn long_fields_run() {
    use retina_core::subscribables::{
        ConnRecord, HttpTransactionData, SessionRecord, TlsHandshakeData,
    };
    use retina_core::{RuntimeBuilder, RuntimeConfig, StepConfig};
    use retina_protocols::tls::build::{
        client_hello_record, server_hello_record, ClientHelloSpec, ServerHelloSpec,
    };
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let sni = format!("{}.nflxvideo.net", "a".repeat(60 * 1024 - 14));
    let uri = format!("/{}", "a".repeat(16 * 1024 - 64));
    let hello = client_hello_record(&ClientHelloSpec {
        sni: Some(sni.clone()),
        ciphers: vec![0x1301],
        random: [7; 32],
        version: 0x0303,
        alpn: None,
    });
    let answer = server_hello_record(&ServerHelloSpec {
        cipher: 0x1301,
        random: [9; 32],
        version: 0x0303,
        supported_version: Some(0x0304),
        alpn: None,
    });
    let request = format!("GET {uri} HTTP/1.1\r\nHost: h\r\n\r\n");
    let response = b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n";
    let mut packets = conversation("10.0.0.1:40000", "198.51.100.1:443", &hello, &answer, 0);
    packets.extend(conversation(
        "10.0.0.2:40000",
        "198.51.100.2:80",
        request.as_bytes(),
        response,
        1_000_000_000,
    ));

    let sni_len = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&sni_len);
    let mut runtime = RuntimeBuilder::new(RuntimeConfig::with_cores(1))
        .subscribe_named(
            "nflx_tls",
            r"tls.sni ~ '(.+?\.)?nflxvideo\.net'",
            move |hs: TlsHandshakeData| {
                seen.store(hs.tls.sni().len() as u64, Ordering::Relaxed);
            },
        )
        .subscribe_named("http", "http", |_: HttpTransactionData| {})
        .subscribe_named("dns", "dns", |_: SessionRecord| {})
        .subscribe_named("https_conns", "tcp.port = 443", |_: ConnRecord| {})
        .subscribe_named("admin", "http.uri ~ '.*admin'", |_: HttpTransactionData| {})
        .build()
        .expect("runtime builds");
    let report = runtime.run_stepped(&packets, &StepConfig::seeded(7));
    report.check_accounting().unwrap();

    // `(.+?\.)?nflxvideo\.net` searches for `nflxvideo.net`, `.*admin`
    // for `admin`.
    let expected = [
        ("nflx_tls", u64::from(sni.contains("nflxvideo.net"))),
        ("http", 1),
        ("dns", 0),
        ("https_conns", 1),
        ("admin", u64::from(uri.contains("admin"))),
    ];
    for (name, delivered) in expected {
        let sub = report.subs.iter().find(|s| s.name == name).expect(name);
        assert_eq!(sub.delivered, delivered, "{name}");
    }
    assert_eq!(sni_len.load(Ordering::Relaxed), sni.len() as u64);
}
