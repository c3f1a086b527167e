//! Protocol probing runs against shared prototypes — one never-fed
//! parser per candidate protocol, held by the tracker — and a connection
//! keeps only a bitmask of the candidates still in the running; the
//! winner alone is instantiated. These tests pin what that must not
//! change: candidate order and elimination across segments, the panic
//! accounting of a prober that blows up, and a live swap landing between
//! two probe segments. Every expected figure here was read off the
//! commit before the prototypes (per-connection boxed candidates) with
//! this same file.

// Test-harness narrowing: payload lengths into sequence arithmetic.
#![allow(clippy::cast_possible_truncation)]

use std::net::SocketAddr;
use std::sync::Mutex;

use retina_chaos::parser::content_hash;
use retina_chaos::{arm_parser_panics, chaos_parser_factory, disarm_parser_panics};
use retina_core::subscribables::{
    ConnRecord, DnsTransactionData, HttpTransactionData, SshHandshakeData, TlsHandshakeData,
};
use retina_core::{
    MultiRuntime, RunReport, RuntimeBuilder, RuntimeConfig, StepConfig, SubReport, SwapSpec,
};
use retina_filter::CompiledFilter;
use retina_protocols::{http, ParserRegistry};
use retina_support::bytes::Bytes;
use retina_wire::build::{build_tcp, TcpSpec};
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
