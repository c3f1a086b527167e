//! Protocol probing runs against shared prototypes — one never-fed
//! parser per candidate protocol, held by the tracker — and a connection
//! keeps only a bitmask of the candidates still in the running; the
//! winner alone is instantiated. These tests pin what that must not
//! change: candidate order and elimination across segments, the panic
//! accounting of a prober that blows up, and a live swap landing between
//! two probe segments. Every expected figure here was read off the
//! commit before the prototypes (per-connection boxed candidates) with
//! this same file.
//!
//! Probing also reads a direction's first segment in place, on its
//! frame, and copies a prefix only for a record that straddles segments.
//! The last tests pin what that must not change either — which sessions
//! come out, under which service, at which packet, with which span tree
//! — for every built-in protocol, with the record whole, cut at every
//! one of its first 64 bytes, and with the server speaking first. Their
//! expected figures were read off the commit before in-place probing
//! (every segment copied into a prefix buffer first) with this same file.

// Test-harness narrowing: payload lengths into sequence arithmetic.
#![allow(clippy::cast_possible_truncation)]

use std::net::SocketAddr;
use std::sync::Mutex;

use retina_chaos::parser::content_hash;
use retina_chaos::{arm_parser_panics, chaos_parser_factory, disarm_parser_panics};
use retina_core::subscribables::{
    ConnRecord, DnsTransactionData, HttpTransactionData, SessionRecord, SshHandshakeData,
    TlsHandshakeData,
};
use retina_core::{
    MultiRuntime, RunReport, RuntimeBuilder, RuntimeConfig, StepConfig, SubReport, SwapSpec,
    TraceConfig,
};
use retina_filter::CompiledFilter;
use retina_protocols::tls::build::{
    ccs_record, client_hello_record, server_hello_record, ClientHelloSpec, ServerHelloSpec,
};
use retina_protocols::{dns, http, quic, ssh, ParserRegistry};
use retina_support::bytes::Bytes;
use retina_wire::build::{build_tcp, build_udp, TcpSpec, UdpSpec};
use retina_wire::TcpFlags;

const MS: u64 = 1_000_000;

/// A TCP conversation, 1 ms between packets.
struct Conv {
    client: SocketAddr,
    server: SocketAddr,
    cseq: u32,
    sseq: u32,
    ts: u64,
    out: Vec<(Bytes, u64)>,
}

impl Conv {
    fn open(client: &str, server: &str, ts: u64) -> Conv {
        let mut c = Conv {
            client: client.parse().unwrap(),
            server: server.parse().unwrap(),
            cseq: 1000,
            sseq: 5000,
            ts,
            out: Vec::new(),
        };
        c.push(true, TcpFlags::SYN, &[]);
        c.push(false, TcpFlags::SYN | TcpFlags::ACK, &[]);
        c.push(true, TcpFlags::ACK, &[]);
        c
    }

    fn push(&mut self, from_client: bool, flags: u8, payload: &[u8]) {
        let (src, dst, seq, ack) = if from_client {
            (self.client, self.server, self.cseq, self.sseq)
        } else {
            (self.server, self.client, self.sseq, self.cseq)
        };
        self.ts += MS;
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
        self.out.push((Bytes::from(frame), self.ts));
        let consumed =
            payload.len() as u32 + u32::from(flags & (TcpFlags::SYN | TcpFlags::FIN) != 0);
        if from_client {
            self.cseq = self.cseq.wrapping_add(consumed);
        } else {
            self.sseq = self.sseq.wrapping_add(consumed);
        }
    }

    fn data(&mut self, from_client: bool, payload: &[u8]) {
        self.push(from_client, TcpFlags::ACK | TcpFlags::PSH, payload);
    }

    fn close(mut self) -> Vec<(Bytes, u64)> {
        self.push(true, TcpFlags::FIN | TcpFlags::ACK, &[]);
        self.push(false, TcpFlags::FIN | TcpFlags::ACK, &[]);
        self.push(true, TcpFlags::ACK, &[]);
        self.out
    }
}

/// An HTTP exchange whose request arrives in three segments — `G`, `E`,
/// then the rest — so the HTTP prober says `Unsure` twice before it says
/// `Certain`.
fn http_in_three_segments(client: &str, ts: u64) -> Vec<(Bytes, u64)> {
    let request = http::build_request("GET", "/split", "example.com", "t/1");
    let mut c = Conv::open(client, "93.184.216.34:80", ts);
    c.data(true, &request[..1]);
    c.data(true, &request[1..2]);
    c.data(true, &request[2..]);
    c.data(false, &http::build_response(200, 16));
    c.close()
}

/// The four-protocol union: candidates are probed in this order.
fn union(registry: Option<ParserRegistry>) -> MultiRuntime<CompiledFilter> {
    let mut config = RuntimeConfig::default();
    if let Some(registry) = registry {
        config.parsers = registry;
    }
    RuntimeBuilder::new(config)
        .subscribe_named("tls", "tls", |_: TlsHandshakeData| {})
        .subscribe_named("http", "http", |_: HttpTransactionData| {})
        .subscribe_named("dns", "dns", |_: DnsTransactionData| {})
        .subscribe_named("ssh", "ssh", |_: SshHandshakeData| {})
        .build()
        .expect("union builds")
}

fn sub<'a>(report: &'a RunReport, name: &str) -> &'a SubReport {
    let found = report.subs.iter().find(|s| s.name == name);
    found.unwrap_or_else(|| panic!("no report row for {name}"))
}

fn tallies(report: &RunReport) -> Vec<(&str, u64, u64)> {
    let rows = report.subs.iter();
    rows.map(|s| (s.name.as_str(), s.delivered, s.discarded))
        .collect()
}

/// The second candidate of four is `Certain` on the third segment: TLS
/// and SSH are eliminated by the first byte, DNS stays `Unsure` (short
/// prefix) until HTTP claims the stream, and the two buffered segments
/// are replayed into the one parser that is ever built.
#[test]
fn second_of_four_candidates_wins_on_the_third_segment() {
    let packets = http_in_three_segments("10.1.0.1:41001", 0);
    let report = union(None).run_stepped(&packets, &StepConfig::seeded(1));
    report.check_accounting().unwrap();
    assert_eq!(
        tallies(&report),
        vec![("tls", 0, 1), ("http", 1, 0), ("dns", 0, 1), ("ssh", 0, 1)]
    );
    let cores = &report.cores;
    assert_eq!((cores.conns_created, cores.parser_panics), (1, 0));
    assert_eq!(cores.reassembly.runs, 9);
    assert_eq!(
        cores.app_parsing.runs, 2,
        "replayed prefix, then the response"
    );
    assert_eq!(cores.session_filter.runs, 1);
    assert_eq!(cores.conns_terminated, 1);
}

/// Serializes the tests that flip the process-global chaos arm switch.
static ARM_LOCK: Mutex<()> = Mutex::new(());

/// Silences the default panic printer while injected panics fly.
fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

/// A payload starting with `prefix` whose chaos content hash is `want`
/// modulo `modulus`.
fn payload_with_hash(prefix: &[u8], modulus: u64, want: u64) -> Vec<u8> {
    (0u32..)
        .map(|n| [prefix, n.to_string().as_bytes()].concat())
        .find(|p| content_hash(p) % modulus == want)
        .expect("some suffix lands on every residue")
}

/// A prober that panics — the chaos parser, registered under `tls` — is
/// caught, counted once per probe call, and eliminated like a
/// `NotForUs`; the shared prototype survives to probe (and panic on) the
/// next connection; and a chaos `Certain` instantiates a fresh parser by
/// the *registered* name, not by what the parser calls itself.
#[test]
fn a_panicking_prober_is_counted_and_eliminated() {
    let _guard = ARM_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    const MODULUS: u64 = 3;
    // `tls` names the chaos parser, `http` the real one; `dns` and
    // `ssh` name nothing (never candidates).
    let mut registry = ParserRegistry::empty();
    registry.register("tls", chaos_parser_factory);
    registry.register("http", || Box::new(http::HttpParser::new()));

    // Three connections, one request segment each: garbage that makes
    // the chaos prober panic (nobody claims it: the connection layer
    // fails), an HTTP request that makes it panic (HTTP still wins), and
    // bytes it claims (`Certain`), whose parse then errors out.
    let panics_then_nobody = payload_with_hash(b"\x00\x01garbage-", MODULUS, 0);
    let panics_then_http = (0u32..)
        .map(|n| http::build_request("GET", &format!("/{n}"), "example.com", "t/1"))
        .find(|r| content_hash(r).is_multiple_of(MODULUS))
        .expect("some path lands on residue 0");
    let claimed = payload_with_hash(b"\x00\x02claimed-", MODULUS, 1);

    let mut packets = Vec::new();
    let mut a = Conv::open("10.2.0.1:42001", "198.51.100.1:443", 0);
    a.data(true, &panics_then_nobody);
    packets.extend(a.close());
    let mut b = Conv::open("10.2.0.2:42002", "93.184.216.34:80", 100 * MS);
    b.data(true, &panics_then_http);
    b.data(false, &http::build_response(200, 8));
    packets.extend(b.close());
    let mut c = Conv::open("10.2.0.3:42003", "198.51.100.1:443", 200 * MS);
    c.data(true, &claimed);
    packets.extend(c.close());

    let report = with_quiet_panics(|| {
        arm_parser_panics(MODULUS);
        let report = union(Some(registry)).run_stepped(&packets, &StepConfig::seeded(1));
        disarm_parser_panics();
        report
    });
    report.check_accounting().unwrap();
    assert_eq!(
        report.cores.parser_panics, 2,
        "one per panicking probe call"
    );
    assert_eq!(
        tallies(&report),
        vec![("tls", 0, 3), ("http", 1, 2), ("dns", 0, 3), ("ssh", 0, 3)]
    );
    assert_eq!(report.cores.conns_created, 3);
    // The claimed stream's service is `chaos`, which no filter names:
    // the connection filter drops it before a byte is parsed.
    assert_eq!(report.cores.app_parsing.runs, 2);
    assert_eq!(report.cores.discard_conn_filter, 2);
    assert_eq!(report.cores.conns_terminated, 1);
}

/// A live swap lands between the second and third probe segments: the
/// connection keeps probing against the candidate set it started with
/// (the prototypes outlive the rebind that forgets the bitmap memo), the
/// surviving `http` subscription — now at another index — gets its
/// transaction, and a connection opened after the swap probes against
/// the new table's set.
#[test]
fn a_swap_between_probe_segments_changes_nothing_for_the_survivor() {
    let first = http_in_three_segments("10.3.0.1:43001", 0);
    let second = http_in_three_segments("10.3.0.2:43002", 500 * MS);
    // Swap after the handshake and two of the first request's segments.
    let at = 5u64;
    let packets: Vec<_> = first.into_iter().chain(second).collect();
    let spec = SwapSpec::new()
        .subscribe_named::<ConnRecord>("conns", "tcp", |_| {})
        .subscribe_named::<HttpTransactionData>("http", "http", |_| {})
        .subscribe_named::<TlsHandshakeData>("tls", "tls", |_| {});
    let report = union(None)
        .run_stepped_with_swap(&packets, &StepConfig::seeded(1), at, &spec)
        .expect("swap accepted");
    report.check_accounting().unwrap();
    assert_eq!(
        (
            sub(&report, "http").delivered,
            sub(&report, "http").discarded
        ),
        (2, 0)
    );
    assert_eq!(
        (sub(&report, "tls").delivered, sub(&report, "tls").discarded),
        (0, 2)
    );
    // Removed mid-probe: one drain each at the swap.
    assert_eq!(sub(&report, "dns").discarded, 1);
    assert_eq!(sub(&report, "ssh").discarded, 1);
    // Added by the swap: sees only the second connection.
    assert_eq!(sub(&report, "conns").delivered, 1);
    let cores = &report.cores;
    assert_eq!((cores.conns_created, cores.conns_swapped), (2, 0));
    assert_eq!((cores.app_parsing.runs, cores.session_filter.runs), (4, 2));
    assert_eq!(cores.parser_panics, 0);
}

/// What observers of one conversation can tell apart.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Every session delivered, in order, and the service the
    /// connection's record names: what must not depend on where TCP cut
    /// the stream.
    delivered: (Vec<String>, Option<&'static str>),
    /// FNV-1a over everything else an observer sees: the full records
    /// (stamps and counters included), the digest, the stage counters a
    /// replayed or spilled prefix would move, and the flow's span tree.
    checksum: u64,
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h = (*h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Runs `packets` — one conversation — under a `SessionRecord` and a
/// `ConnRecord` subscription over all five built-in protocols, every
/// flow traced.
fn observe(packets: &[(Bytes, u64)]) -> Observed {
    const ALL: &str = "tls or http or dns or ssh or quic";
    /// Sessions, whole records, and the service the record names.
    #[derive(Default)]
    struct Seen(Vec<String>, Vec<String>, Option<&'static str>);
    let seen: std::sync::Arc<Mutex<Seen>> = std::sync::Arc::default();
    let (sessions, records) = (seen.clone(), seen.clone());
    let mut runtime = RuntimeBuilder::new(RuntimeConfig::default())
        .subscribe_named("sessions", ALL, move |r: SessionRecord| {
            let mut seen = sessions.lock().unwrap();
            seen.0.push(format!("{:?}", r.session));
            seen.1.push(format!("{r:?}"));
        })
        .subscribe_named("conns", ALL, move |r: ConnRecord| {
            let mut seen = records.lock().unwrap();
            seen.1.push(format!("{r:?}"));
            seen.2 = r.service;
        })
        .trace(TraceConfig {
            sample_one_in: 1,
            ..TraceConfig::default()
        })
        .build()
        .expect("union builds");
    let report = runtime.run_stepped(packets, &StepConfig::seeded(1));
    report.check_accounting().unwrap();
    let Seen(sessions, full, service) = std::mem::take(&mut *seen.lock().unwrap());

    let mut checksum = 0xcbf2_9ce4_8422_2325u64;
    for datum in &full {
        fnv(&mut checksum, datum.as_bytes());
    }
    fnv(&mut checksum, report.deterministic_digest().as_bytes());
    let c = &report.cores;
    for counter in [
        c.reassembly.runs,
        c.app_parsing.runs,
        c.session_filter.runs,
        c.callbacks.runs,
        c.conns_discarded,
        c.parser_panics,
    ] {
        fnv(&mut checksum, &counter.to_le_bytes());
    }
    let trace = &report.trace.as_ref().expect("traced").session;
    assert_eq!(trace.dropped_events, 0);
    for id in trace.trace_ids() {
        fnv(
            &mut checksum,
            &trace.flow(id).expect("flow").canonical_bytes(),
        );
    }
    Observed {
        delivered: (sessions, service),
        checksum,
    }
}

/// One payload segment and who sends it (`true`: the client).
type Segment = (bool, Vec<u8>);

/// The opening records of a conversation of each built-in TCP protocol
/// — name, server port, records — the first speaker's record first.
fn openings() -> Vec<(&'static str, u16, Vec<Segment>)> {
    let hello = client_hello_record(&ClientHelloSpec {
        sni: Some("in-place.example.net".to_string()),
        ciphers: vec![0x1301, 0xc02f],
        random: [0x42; 32],
        version: 0x0303,
        alpn: Some("h2".into()),
    });
    let server_hello = server_hello_record(&ServerHelloSpec {
        cipher: 0x1301,
        random: [0x99; 32],
        version: 0x0303,
        supported_version: Some(0x0304),
        alpn: None,
    });
    let query = dns::build_query(7, "in-place.example.net", 1);
    let answer = dns::build_response(7, "in-place.example.net", 1, 2, 0);
    let over_tcp = |message: &[u8]| [&(message.len() as u16).to_be_bytes()[..], message].concat();
    vec![
        (
            "tls",
            443,
            vec![(true, hello), (false, server_hello), (false, ccs_record())],
        ),
        (
            "http",
            80,
            vec![
                (
                    true,
                    http::build_request("GET", "/in/place", "example.net", "t/1"),
                ),
                (false, http::build_response(200, 16)),
            ],
        ),
        (
            "ssh",
            22,
            vec![
                (true, ssh::build_banner("OpenSSH_9.0")),
                (false, ssh::build_banner("OpenSSH_8.9")),
                (true, ssh::build_kexinit("curve25519-sha256", "ssh-ed25519")),
            ],
        ),
        (
            "dns",
            53,
            vec![(true, over_tcp(&query)), (false, over_tcp(&answer))],
        ),
    ]
}

/// `records` with the first one cut in two at byte `at`.
fn cut_first(records: &[Segment], at: usize) -> Vec<Segment> {
    let (from_client, first) = &records[0];
    let pieces = [&first[..at], &first[at..]].map(|piece| (*from_client, piece.to_vec()));
    pieces
        .into_iter()
        .chain(records[1..].iter().cloned())
        .collect()
}

/// The conversation that sends `segments` one frame each, then closes.
fn conversation(port: u16, segments: &[Segment]) -> Vec<(Bytes, u64)> {
    let mut c = Conv::open("10.5.0.1:45001", &format!("198.51.100.1:{port}"), 0);
    for (from_client, segment) in segments {
        c.data(*from_client, segment);
    }
    c.close()
}

/// One checksum over a protocol's whole sweep.
fn sweep_checksum(sweep: &[Observed]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for observed in sweep {
        fnv(&mut h, &observed.checksum.to_le_bytes());
    }
    h
}

/// Every built-in TCP protocol, its first record whole — identified in
/// place, nothing copied — and cut at each of its first 64 bytes, where
/// the first piece is copied only if every candidate is still unsure of
/// it: the same sessions under the same service as uncut, and the same
/// everything (stamps, counters, digest, span tree) as when every
/// segment was copied first.
#[test]
fn a_record_cut_anywhere_in_its_first_64_bytes_is_probed_as_before() {
    let expected = [
        ("tls", 0x11b8_189a_c46d_4f7b_u64),
        ("http", 0x1db8_741d_8bbb_f210),
        ("ssh", 0xc0a2_1811_54e2_c26b),
        ("dns", 0xa259_c6bd_0600_2306),
    ];
    for ((proto, port, records), (name, checksum)) in openings().into_iter().zip(expected) {
        assert_eq!(proto, name);
        let whole = observe(&conversation(port, &records));
        assert_eq!(whole.delivered.1, Some(proto));
        assert!(!whole.delivered.0.is_empty(), "{proto}: no session");
        let mut sweep = Vec::new();
        for at in 1..records[0].1.len().min(64) {
            let cut = observe(&conversation(port, &cut_first(&records, at)));
            // The DNS prober calls 12 bytes or more that are not one
            // whole length-prefixed message not DNS, and the connection
            // is dropped on the first piece: so it was, so it stays.
            if proto == "dns" && at >= 12 {
                assert_eq!(cut.delivered, (Vec::new(), None), "dns cut at {at}");
            } else {
                assert_eq!(cut.delivered, whole.delivered, "{proto} cut at {at}");
            }
            sweep.push(cut);
        }
        sweep.push(whole);
        let got = sweep_checksum(&sweep);
        assert_eq!(got, checksum, "{proto}: {got:#x}");
    }
}

/// The server speaks first (an SSH banner, then the client's): the
/// server direction's segment is the one probed in place. Cut, its first
/// piece is buffered; and when the client's banner overtakes the second
/// piece, the client's segment wins in place and the parser is fed it
/// first, the server's buffered piece after — client's prefix first, as
/// ever.
#[test]
fn a_server_that_speaks_first_is_probed_in_place_too() {
    let records = vec![
        (false, ssh::build_banner("OpenSSH_8.9")),
        (true, ssh::build_banner("OpenSSH_9.0")),
        (
            false,
            ssh::build_kexinit("curve25519-sha256", "ssh-ed25519"),
        ),
    ];
    let whole = observe(&conversation(22, &records));
    assert_eq!(whole.delivered.1, Some("ssh"));
    assert_eq!(whole.delivered.0.len(), 1);
    let mut sweep = Vec::new();
    for at in 1..records[0].1.len() {
        let mut segments = cut_first(&records, at);
        for overtaken in [false, true] {
            if overtaken {
                segments.swap(1, 2);
            }
            let cut = observe(&conversation(22, &segments));
            assert_eq!(cut.delivered, whole.delivered, "cut at {at}, {overtaken}");
            sweep.push(cut);
        }
    }
    sweep.push(whole);
    let checksum = sweep_checksum(&sweep);
    assert_eq!(checksum, 0xea2c_a3ea_8bd7_2251, "{checksum:#x}");
}

/// The datagram protocols: a DNS exchange and a QUIC Initial exchange,
/// each identified by its first datagram, in place.
#[test]
fn a_first_datagram_is_probed_in_place() {
    let datagrams = |port: u16, payloads: [Vec<u8>; 2]| -> Vec<(Bytes, u64)> {
        let client: SocketAddr = "10.5.0.2:45002".parse().unwrap();
        let server: SocketAddr = format!("198.51.100.1:{port}").parse().unwrap();
        let frame = |src, dst, payload: &[u8]| {
            Bytes::from(build_udp(&UdpSpec {
                src,
                dst,
                ttl: 64,
                payload,
            }))
        };
        vec![
            (frame(client, server, &payloads[0]), MS),
            (frame(server, client, &payloads[1]), 2 * MS),
        ]
    };
    let dns = observe(&datagrams(
        53,
        [
            dns::build_query(9, "in-place.example.net", 28),
            dns::build_response(9, "in-place.example.net", 28, 1, 0),
        ],
    ));
    assert_eq!(dns.delivered.1, Some("dns"));
    assert_eq!(dns.delivered.0.len(), 1);
    let quic = observe(&datagrams(
        443,
        [
            quic::build_long_header(1, &[1; 8], &[], 1200),
            quic::build_long_header(1, &[2; 8], &[1; 8], 1200),
        ],
    ));
    assert_eq!(quic.delivered.1, Some("quic"));
    assert_eq!(quic.delivered.0.len(), 1);
    let checksum = sweep_checksum(&[dns, quic]);
    assert_eq!(checksum, 0x549e_4a6d_b68b_48c0, "{checksum:#x}");
}
