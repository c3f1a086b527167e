//! No heap allocation per single-SYN connection, and only what the
//! parser and the datum themselves allocate per probed TLS connection,
//! held by `cargo test`.
//!
//! Appendix C's dominant connection — a bare SYN that is never answered
//! — costs the tracker an arena slot (its timer is two link words in
//! it), a slab slot, an index entry and a place in its subscription's
//! output lane, all of which live in storage that is reused once it has
//! grown; the `ConnRecord` it delivers travels in that lane, and through a ring
//! made once for `ConnRecord`s when the subscription is dispatched, as
//! itself. Nothing is allocated *for it*. The first two tests pin that,
//! inline and through a shared ring: a binary of its own with a counting
//! `#[global_allocator]`, one `run_stepped` over a warm-up half (which
//! grows every store to its steady-state size) and a measured half of
//! the same shape. A single allocation per connection anywhere on the
//! path is a hundred times the bound and fails here, not in review.
//!
//! The third holds the probing diet the same way: a connection that
//! reaches its ClientHello under a four-protocol union probes against
//! the tracker's shared prototypes, with its probe state held in its
//! phase, and takes only the parser that wins — from the core's pool of
//! idle ones when it holds one — which reads the record where it lies.
//!
//! The fourth holds the parsing diet: a handshake that completes costs
//! what its `TlsHandshakeData` carries and nothing more — no record,
//! message or handshake is copied on the way, and the session moves from
//! the parser into the core's one buffer and from there into the datum.
//! Two subscribers to the same handshakes pay for one clone, the first
//! one's; the last one served takes the session by value. A delivered
//! `HttpTransactionData` costs its fields and the parser its connection
//! keeps; a connection that finds a parser its predecessor handed back to
//! the core's pool costs the fields alone — the pooled parser kept its
//! queue of pending requests. A DNS datagram's probe, against every
//! prototype, costs no allocation at all: the question name is walked,
//! not built. No built-in probe allocates, whole opening record, cut one
//! or binary segment: QUIC's validates the long header in place and
//! hex-encodes no connection ID.
//!
//! A session nobody takes costs nothing either: a TLS handshake whose SNI
//! the session filter rejects goes back to the parser that built it
//! (`ConnParser::recycle`), whose next connection's hellos write into its
//! buffers.
//!
//! The tracked-state diet: a `tls`-filtered `ConnRecord` allocates
//! nothing — the record names its service by the parser's
//! `&'static str`, the probe state and the parser are pooled. Neither TLS
//! case copies the ClientHello into a prefix buffer: it is identified
//! where it lies in its frame.
//!
//! The session filter's `~` is held at no allocation: a
//! ClientHello whose SNI fails `(.+?\.)?nflxvideo\.net` costs exactly
//! what one failing `= 'nflxvideo.net'` costs — the pattern runs as an
//! automaton over the field where it lies, not over a copy of it.
//!
//! One test counts bytes: a `ConnBytes` stream costs one frame view
//! per segment, the same for 100-byte and for 1460-byte payloads — a
//! copy anywhere on the path makes the figure scale with the payload.
//!
//! The last holds what the table of bare SYNs keeps, not what it
//! allocates per connection: the slab chunks of arena slots that cover
//! the peak ([`CONN_SLOT_BYTES`] each, a slot's flow an eight-byte embryo
//! in it), an index at most half full, the wheel's sentinels and the
//! chunk table — not a doubled `Vec` of slots beside a free list, and no
//! flow store. A table that never
//! sees a connection (a core whose filters all stop at the packet layer)
//! costs nothing: `ConnTable::new` allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use retina_conntrack::{ConnTable, TimeoutConfig, TimerWheel, INDEX_WORD_BYTES};
use retina_core::subscribables::{
    ConnBytes, ConnRecord, DnsTransactionData, HttpTransactionData, SessionRecord,
    SshHandshakeData, TlsHandshakeData,
};
use retina_core::tracker::CONN_SLOT_BYTES;
use retina_core::{
    CompiledFilter, DispatchMode, MultiRuntime, RunReport, RuntimeBuilder, RuntimeConfig,
    StepConfig,
};
use retina_protocols::tls::build::{
    client_hello_record, server_hello_record, ClientHelloSpec, ServerHelloSpec,
};
use retina_protocols::tls::TlsHandshake;
use retina_protocols::{dns, http, quic, ssh};
use retina_protocols::{Direction, ParserRegistry, ProbeResult, Session};
use retina_support::bytes::Bytes;
use retina_support::slab::CHUNK;
use retina_wire::build::{build_tcp, TcpSpec};
use retina_wire::TcpFlags;

/// The system allocator, counting `alloc` and `realloc` calls and the
/// bytes they ask for (of a `realloc`, the growth) — per thread.
///
/// A stepped run does all its work, callbacks included, on the thread
/// that calls it, and each test measures on its own thread: counting per
/// thread keeps the test harness's allocations on other threads (it
/// spawns and names them while a test measures) out of every figure.
struct Counting;

thread_local! {
    /// This thread's `(calls, bytes)`. Const-initialised and without a
    /// destructor, so reading it never allocates.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    // A thread being torn down has no counter left; it is not measured.
    let _ = COUNTS.try_with(|c| {
        let (calls, total) = c.get();
        c.set((calls + 1, total + bytes as u64));
    });
}

/// This thread's `(calls, bytes)` so far.
fn counters() -> (u64, u64) {
    COUNTS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are a
// thread-local `Cell` that touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with `layout` and that `new_size` is valid for its alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Connections per half.
const N: u32 = 20_000;
const SEC: u64 = 1_000_000_000;

/// `N` bare SYNs from distinct sources, spread over one second from
/// `start_ns`.
fn syns(first_source: u32, start_ns: u64) -> impl Iterator<Item = (Bytes, u64)> {
    (0..N).map(move |i| {
        let frame = build_tcp(&TcpSpec {
            src: std::net::SocketAddr::new(
                std::net::Ipv4Addr::from(0x0a00_0000 + first_source + i).into(),
                40_000,
            ),
            dst: "198.51.100.1:443".parse().unwrap(),
            seq: 1,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 65535,
            ttl: 64,
            payload: &[],
        });
        (
            Bytes::from(frame),
            start_ns + u64::from(i) * (SEC / u64::from(N)),
        )
    })
}

/// Allocations per connection of the measured half of two [`syns`]
/// halves through a one-core stepped runtime delivering `ConnRecord`s
/// under `mode`. Warm-up connections arrive in second 0 and expire (5 s
/// establish timeout) when the measured half's first packets, at 10 s,
/// move the clock; the measured ones are flushed by the end-of-run drain.
#[allow(clippy::cast_precision_loss)] // counts far below 2^52
fn allocs_per_bare_syn(mode: DispatchMode) -> f64 {
    let packets: Vec<_> = syns(0, 0).chain(syns(N, 10 * SEC)).collect();

    // The record of the last warm-up connection marks the start of the
    // measured half: by then the arena, the slab and its output lane, the
    // index, the wheel and (dispatched) the ring have all held N
    // connections.
    let delivered = Arc::new(AtomicU64::new(0));
    let allocs_at_mark = Arc::new(AtomicU64::new(0));
    let (seen, mark) = (Arc::clone(&delivered), Arc::clone(&allocs_at_mark));
    let mut runtime = RuntimeBuilder::new(RuntimeConfig::with_cores(1))
        .subscribe_dispatched("conns", "tcp", mode, move |record: ConnRecord| {
            assert!(record.single_syn);
            if seen.fetch_add(1, Ordering::Relaxed) + 1 == u64::from(N) {
                mark.store(counters().0, Ordering::Relaxed);
            }
        })
        .build()
        .expect("runtime builds");
    let report = runtime.run_stepped(&packets, &StepConfig::seeded(7));
    let measured = counters().0 - allocs_at_mark.load(Ordering::Relaxed);

    report.check_accounting().unwrap();
    assert_eq!(report.cores.conns_created, u64::from(2 * N));
    assert_eq!(delivered.load(Ordering::Relaxed), u64::from(2 * N));
    assert!(
        report.cores.conns_peak < u64::from(N) + u64::from(N) / 4,
        "the halves must not overlap much: peak {}",
        report.cores.conns_peak
    );
    measured as f64 / f64::from(N)
}

#[test]
fn a_bare_syn_allocates_nothing() {
    // Nothing per connection: the measured half reads 2 allocations over
    // 20 000 connections, the end-of-run report's; the slack is 20.
    let per_conn = allocs_per_bare_syn(DispatchMode::Inline);
    assert!(
        per_conn <= 0.001,
        "{per_conn:.4} allocations per single-SYN connection"
    );
}

#[test]
fn a_bare_syn_table_holds_its_peak_and_one_chunk() {
    let packets: Vec<_> = syns(0, 0).collect();
    let mut runtime = RuntimeBuilder::new(RuntimeConfig::with_cores(1))
        .subscribe_named("conns", "tcp", |record: ConnRecord| {
            assert!(record.single_syn);
        })
        .build()
        .expect("runtime builds");
    let report = runtime.run_stepped(&packets, &StepConfig::seeded(7));
    report.check_accounting().unwrap();
    let peak = usize::try_from(report.cores.conns_peak).unwrap();
    assert_eq!(peak, N as usize);
    // What the table holds for its peak: the slots of the whole chunks
    // that cover it, at the tracker's slot size; an index of 8-byte words
    // at most half full (the power of two at or above twice the peak); the
    // wheel's sentinels; and the chunk table, a `Vec` of one three-word
    // header per chunk grown by doubling from four. A bare SYN's flow is
    // the embryo in its slot: the flow store holds nothing.
    let chunks = peak.div_ceil(CHUNK);
    let chunk_table = chunks.next_power_of_two().max(4) * std::mem::size_of::<Vec<u8>>();
    let bound = chunks * CHUNK * CONN_SLOT_BYTES
        + (2 * peak).next_power_of_two() * INDEX_WORD_BYTES
        + TimerWheel::BYTES
        + chunk_table;
    assert!(
        report.conn_arena_bytes <= bound,
        "{} B of connection state at a peak of {peak} (bound {bound} B)",
        report.conn_arena_bytes
    );
}

#[test]
fn a_conn_table_allocates_nothing_until_its_first_insert() {
    let before = counters();
    let table: ConnTable<u64> = ConnTable::new(TimeoutConfig::retina_default());
    assert_eq!(counters(), before, "ConnTable::new allocated");
    assert_eq!(table.allocated_bytes(), TimerWheel::BYTES);
}

#[test]
fn a_bare_syn_crosses_a_shared_ring_allocating_nothing() {
    // The same through a 64-deep ring to a shared worker: the ring is
    // made once, for `ConnRecord`s, and the data cross it as themselves —
    // the sends the drain parks on a full ring too.
    let per_conn = allocs_per_bare_syn(DispatchMode::shared(64));
    assert!(
        per_conn <= 0.001,
        "{per_conn:.4} allocations per single-SYN connection through a shared ring"
    );
}

/// Connections per half of the TLS test.
const TLS_N: u32 = 2_000;

/// `TLS_N` connections that complete the handshake and send a
/// ClientHello — `answered`, the server's ServerHello too — then go
/// quiet: 1 ms between a connection's packets, connections 100 µs apart
/// from `start_ns`.
fn client_hellos(first_source: u32, start_ns: u64, answered: bool) -> Vec<(Bytes, u64)> {
    let hello = client_hello_record(&ClientHelloSpec {
        sni: Some("video.example.net".to_string()),
        ciphers: vec![0x1301],
        random: [0x42; 32],
        version: 0x0303,
        alpn: None,
    });
    let answer = server_hello_record(&ServerHelloSpec {
        cipher: 0x1301,
        random: [0x99; 32],
        version: 0x0303,
        supported_version: Some(0x0304),
        alpn: None,
    });
    let answer = answered.then_some(&answer[..]);
    exchanges(first_source, start_ns, 443, &hello, answer)
}

/// `TLS_N` connections that complete the handshake, send one GET and
/// receive its bodiless 200, then go quiet, timed as [`client_hellos`].
fn http_exchanges(first_source: u32, start_ns: u64) -> Vec<(Bytes, u64)> {
    let request = http::build_request("GET", "/video/1", "video.example.net", "agent/1.0");
    let response = http::build_response(200, 0);
    exchanges(first_source, start_ns, 80, &request, Some(&response))
}

/// `TLS_N` connections to port `port` that complete the handshake, send
/// `up` and — if given — receive `down`, each in one segment: 1 ms
/// between a connection's packets, connections 100 µs apart from
/// `start_ns`.
fn exchanges(
    first_source: u32,
    start_ns: u64,
    port: u16,
    up: &[u8],
    down: Option<&[u8]>,
) -> Vec<(Bytes, u64)> {
    let server = std::net::SocketAddr::new(std::net::Ipv4Addr::new(198, 51, 100, 1).into(), port);
    let mut out = Vec::new();
    for i in 0..TLS_N {
        let client = std::net::SocketAddr::new(
            std::net::Ipv4Addr::from(0x0a00_0000 + first_source + i).into(),
            40_000,
        );
        let t0 = start_ns + u64::from(i) * 100_000;
        let mut push = |n: u64, src, dst, seq, ack, flags, payload: &[u8]| {
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
            out.push((Bytes::from(frame), t0 + n * 1_000_000));
        };
        push(0, client, server, 100, 0, TcpFlags::SYN, &[]);
        push(
            1,
            server,
            client,
            500,
            101,
            TcpFlags::SYN | TcpFlags::ACK,
            &[],
        );
        push(2, client, server, 101, 501, TcpFlags::ACK, &[]);
        push(
            3,
            client,
            server,
            101,
            501,
            TcpFlags::ACK | TcpFlags::PSH,
            up,
        );
        if let Some(down) = down {
            let seq = 101 + u32::try_from(up.len()).unwrap();
            push(
                4,
                server,
                client,
                501,
                seq,
                TcpFlags::ACK | TcpFlags::PSH,
                down,
            );
        }
    }
    out.sort_by_key(|(_, ts)| *ts);
    out
}

/// What the second half of `packets` (from index `warm`) asked of the
/// allocator at steady state, `(calls, bytes)`, and the full run's
/// report: two runs over prefixes of the same trace, differing by
/// exactly the measured half — the prefix run grew every store first.
fn measured_half(
    runtime: &mut MultiRuntime<CompiledFilter>,
    packets: &[(Bytes, u64)],
    warm: usize,
) -> ((u64, u64), RunReport) {
    let mut run = |packets: &[(Bytes, u64)]| {
        let before = counters();
        let report = runtime.run_stepped(packets, &StepConfig::seeded(7));
        report.check_accounting().unwrap();
        let after = counters();
        ((after.0 - before.0, after.1 - before.1), report)
    };
    let (warm_cost, warm_report) = run(&packets[..warm]);
    let (all_cost, report) = run(packets);
    let (half, all) = (warm_report.cores.conns_created, report.cores.conns_created);
    assert_eq!(all, 2 * half);
    assert!(
        report.cores.conns_peak < half + half / 4,
        "the halves must not overlap much: peak {}",
        report.cores.conns_peak
    );
    ((all_cost.0 - warm_cost.0, all_cost.1 - warm_cost.1), report)
}

/// Allocations per connection of the measured half of two
/// [`client_hellos`] halves through `runtime`, and the full run's
/// report.
fn allocs_per_client_hello(
    runtime: &mut MultiRuntime<CompiledFilter>,
    answered: bool,
) -> (f64, RunReport) {
    allocs_per_conn(runtime, |first, start| {
        client_hellos(first, start, answered)
    })
}

/// Allocations per connection of the measured half of two `half`s of
/// `TLS_N` connections through `runtime`, and the full run's report.
/// Warm-up connections establish in the first second and expire (5 min
/// inactivity) when the measured half, at 400 s, moves the clock; the
/// measured ones are flushed by the end-of-run drain.
fn allocs_per_conn(
    runtime: &mut MultiRuntime<CompiledFilter>,
    half: impl Fn(u32, u64) -> Vec<(Bytes, u64)>,
) -> (f64, RunReport) {
    let mut packets = half(0, 0);
    let warm = packets.len();
    packets.extend(half(TLS_N, 400 * SEC));
    let ((allocs, _), report) = measured_half(runtime, &packets, warm);
    assert_eq!(report.cores.conns_created, u64::from(2 * TLS_N));
    #[allow(clippy::cast_precision_loss)] // counts far below 2^52
    let per_conn = allocs as f64 / f64::from(TLS_N);
    (per_conn, report)
}

#[test]
fn a_probed_tls_connection_instantiates_only_the_winning_parser() {
    // Nothing is ever delivered (no ServerHello, and the other three
    // protocols never show), so every allocation counted is the
    // pipeline's own.
    let mut runtime = RuntimeBuilder::new(RuntimeConfig::with_cores(1))
        .subscribe_named("tls", "tls", |_: TlsHandshakeData| {})
        .subscribe_named("http", "http", |_: HttpTransactionData| {})
        .subscribe_named("dns", "dns", |_: DnsTransactionData| {})
        .subscribe_named("ssh", "ssh", |_: SshHandshakeData| {})
        .build()
        .expect("runtime builds");
    let (per_conn, report) = allocs_per_client_hello(&mut runtime, false);
    assert_eq!(report.cores.app_parsing.runs, u64::from(2 * TLS_N));
    // With a boxed candidate per protocol at the first SYN (the commit
    // before the prototypes) this read 14.02, and 8.02 with only the
    // winner boxed. Gone since: the candidate list, the per-segment alive
    // list, the prefix buffer (the ClientHello is probed where it lies),
    // the boxed probe state (it lives in the phase), and — the parser
    // reading the record and its handshake message where they lie — its
    // two reassembly buffers and its copies of the record and of the
    // message (6.97 before). Left, field by field:
    //   1. the parser's box: all 2000 connections of a half are
    //      mid-handshake at once, and the core's pool keeps only a burst's
    //      worth of idle parsers;
    //   2. the handshake's offered cipher list;
    //   3. the handshake's SNI.
    // No handshake completes, so none reaches the session filter and none
    // is handed back to its parser: a parser reset mid-handshake drops
    // what it built. The handshakes that complete and fail the filter
    // allocate nothing on a warm core
    // (`a_rejected_tls_handshake_on_a_warm_core_allocates_nothing`).
    assert!(
        per_conn <= 3.00 + 0.05,
        "{per_conn:.3} allocations per probed TLS connection"
    );
}

#[test]
fn a_delivered_tls_handshake_allocates_only_what_it_carries() {
    static HANDSHAKES: AtomicU64 = AtomicU64::new(0);
    let mut runtime = RuntimeBuilder::new(RuntimeConfig::with_cores(1))
        .subscribe_named("tls", "tls", |hs: TlsHandshakeData| {
            assert_eq!(hs.tls.sni(), "video.example.net");
            HANDSHAKES.fetch_add(1, Ordering::Relaxed);
        })
        .build()
        .expect("runtime builds");
    let (per_conn, report) = allocs_per_client_hello(&mut runtime, true);
    // The prefix run delivered TLS_N handshakes, the full run 2 * TLS_N.
    assert_eq!(HANDSHAKES.load(Ordering::Relaxed), u64::from(3 * TLS_N));
    assert_eq!(report.cores.app_parsing.runs, u64::from(4 * TLS_N));
    // One connection, one `TlsHandshakeData`. Its parser returns to the
    // pool at the ServerHello, so the next connection takes it; no record
    // or handshake message is copied, the handshake moves into its
    // session, the session is appended to the core's one buffer, and the
    // only subscriber moves it into its datum. Left, field by field:
    //   1. the parser's offered cipher list, now the datum's;
    //   2. the parser's SNI, now the datum's.
    // A `Vec<Session>` drained per completed parse, and the datum's clone
    // of both fields (`FromSession` borrowed the session), made it 5.00.
    assert!(
        per_conn <= 2.00 + 0.05,
        "{per_conn:.3} allocations per delivered TlsHandshakeData"
    );
}

#[test]
fn two_subscribers_to_a_handshake_pay_for_one_clone() {
    static TLS: Mutex<Vec<TlsHandshake>> = Mutex::new(Vec::new());
    static RECORDS: Mutex<Vec<Session>> = Mutex::new(Vec::new());
    // Room for both runs' deliveries, reserved outside the measurement.
    TLS.lock().unwrap().reserve(3 * TLS_N as usize);
    RECORDS.lock().unwrap().reserve(3 * TLS_N as usize);
    let mut runtime = RuntimeBuilder::new(RuntimeConfig::with_cores(1))
        .subscribe_named("tls", "tls", |hs: TlsHandshakeData| {
            TLS.lock().unwrap().push(hs.tls);
        })
        .subscribe_named("sessions", "tls", |r: SessionRecord| {
            RECORDS.lock().unwrap().push(r.session);
        })
        .build()
        .expect("runtime builds");
    let (per_conn, _) = allocs_per_client_hello(&mut runtime, true);
    let (tls, records) = (TLS.lock().unwrap(), RECORDS.lock().unwrap());
    assert_eq!(tls.len(), 3 * TLS_N as usize);
    let tls: Vec<Session> = tls.iter().cloned().map(Session::Tls).collect();
    assert!(
        tls == *records,
        "both subscribers receive the same handshakes"
    );
    // The parse's two (the cipher list and the SNI), which the last
    // subscriber served — `sessions` — takes by moving the session, and
    // the two of the clone the first one — `tls` — takes.
    assert!(
        per_conn <= 4.00 + 0.05,
        "{per_conn:.3} allocations per handshake delivered to two subscribers"
    );
}

#[test]
fn a_delivered_http_transaction_allocates_only_what_it_carries() {
    static TRANSACTIONS: AtomicU64 = AtomicU64::new(0);
    let mut runtime = RuntimeBuilder::new(RuntimeConfig::with_cores(1))
        .subscribe_named("http", "http", |t: HttpTransactionData| {
            assert_eq!((t.http.uri.as_str(), t.http.status), ("/video/1", 200));
            TRANSACTIONS.fetch_add(1, Ordering::Relaxed);
        })
        .build()
        .expect("runtime builds");
    let (per_conn, report) = allocs_per_conn(&mut runtime, http_exchanges);
    // The prefix run delivered TLS_N transactions, the full run 2 * TLS_N.
    assert_eq!(TRANSACTIONS.load(Ordering::Relaxed), u64::from(3 * TLS_N));
    assert_eq!(report.cores.app_parsing.runs, u64::from(4 * TLS_N));
    // One connection, one `HttpTransactionData`, moved out of the core's
    // buffer into the datum. Left, field by field:
    //   1. the parser's box: HTTP keeps parsing after a transaction, so
    //      all 2000 connections of a half hold a parser at once, and the
    //      core's pool keeps only a burst's worth of idle ones;
    //   2. the parser's queue of requests awaiting responses, grown at the
    //      first request;
    //   3. the transaction's method,
    //   4. URI,
    //   5. Host and
    //   6. User-Agent, each parsed from the request head once and moved
    //      into the datum.
    assert!(
        per_conn <= 6.00 + 0.05,
        "{per_conn:.3} allocations per delivered HttpTransactionData"
    );
}

/// `TLS_N` HTTP connections one at a time, 10 ms apart from `start_ns`:
/// each completes the handshake, sends one GET, receives its bodiless 200
/// and closes (FIN both ways) before the next opens, handing its parser
/// back to the core's pool for the next to draw.
fn http_one_at_a_time(first_source: u32, start_ns: u64) -> Vec<(Bytes, u64)> {
    let request = http::build_request("GET", "/video/1", "video.example.net", "agent/1.0");
    let response = http::build_response(200, 0);
    one_at_a_time(first_source, start_ns, 80, &request, &response)
}

/// `TLS_N` TLS connections one at a time, timed as
/// [`http_one_at_a_time`]: each completes the TCP handshake, sends a
/// ClientHello for `video.example.net`, receives the ServerHello that
/// completes the TLS handshake, and closes.
fn tls_one_at_a_time(first_source: u32, start_ns: u64) -> Vec<(Bytes, u64)> {
    let hello = client_hello_record(&ClientHelloSpec {
        sni: Some("video.example.net".to_string()),
        ciphers: vec![0x1301, 0xc02f],
        random: [0x42; 32],
        version: 0x0303,
        alpn: Some("h2".to_string()),
    });
    let answer = server_hello_record(&ServerHelloSpec {
        cipher: 0x1301,
        random: [0x99; 32],
        version: 0x0303,
        supported_version: Some(0x0304),
        alpn: None,
    });
    one_at_a_time(first_source, start_ns, 443, &hello, &answer)
}

/// `TLS_N` connections to port `port`, one at a time, 10 ms apart from
/// `start_ns`: each completes the handshake, sends `request`, receives
/// `response`, each in one segment, and closes (FIN both ways) before the
/// next opens.
fn one_at_a_time(
    first_source: u32,
    start_ns: u64,
    port: u16,
    request: &[u8],
    response: &[u8],
) -> Vec<(Bytes, u64)> {
    let (up, down) = (
        101 + u32::try_from(request.len()).unwrap(),
        501 + u32::try_from(response.len()).unwrap(),
    );
    let server = std::net::SocketAddr::new(std::net::Ipv4Addr::new(198, 51, 100, 1).into(), port);
    let mut out = Vec::new();
    for i in 0..TLS_N {
        let client = std::net::SocketAddr::new(
            std::net::Ipv4Addr::from(0x0a00_0000 + first_source + i).into(),
            40_000,
        );
        let t0 = start_ns + u64::from(i) * 10_000_000;
        let script: [(bool, u32, u32, u8, &[u8]); 8] = [
            (true, 100, 0, TcpFlags::SYN, &[]),
            (false, 500, 101, TcpFlags::SYN | TcpFlags::ACK, &[]),
            (true, 101, 501, TcpFlags::ACK, &[]),
            (true, 101, 501, TcpFlags::ACK | TcpFlags::PSH, request),
            (false, 501, up, TcpFlags::ACK | TcpFlags::PSH, response),
            (true, up, down, TcpFlags::FIN | TcpFlags::ACK, &[]),
            (false, down, up + 1, TcpFlags::FIN | TcpFlags::ACK, &[]),
            (true, up + 1, down + 1, TcpFlags::ACK, &[]),
        ];
        for (n, (from_client, seq, ack, flags, payload)) in (0u64..).zip(script) {
            let (src, dst) = if from_client {
                (client, server)
            } else {
                (server, client)
            };
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
            out.push((Bytes::from(frame), t0 + n * 1_000_000));
        }
    }
    out
}

#[test]
fn a_second_http_connection_on_a_warm_core_allocates_only_its_transaction() {
    let mut runtime = RuntimeBuilder::new(RuntimeConfig::with_cores(1))
        .subscribe_named("http", "http", |t: HttpTransactionData| {
            assert_eq!((t.http.uri.as_str(), t.http.status), ("/video/1", 200));
        })
        .build()
        .expect("runtime builds");
    let (per_conn, report) = allocs_per_conn(&mut runtime, http_one_at_a_time);
    assert_eq!(report.cores.conns_terminated, u64::from(2 * TLS_N));
    // Each connection draws the parser the one before it handed back,
    // its request queue kept: what is left are the transaction's method,
    // URI, Host and User-Agent — 4.000 measured, with a slack of 2
    // allocations over 2000 connections; a parser that drops its queue at
    // reset costs one allocation more.
    assert!(
        per_conn <= 4.00 + 0.001,
        "{per_conn:.3} allocations per HTTP connection on a warm core"
    );
}

#[test]
fn a_rejected_tls_handshake_on_a_warm_core_allocates_nothing() {
    let mut runtime = RuntimeBuilder::new(RuntimeConfig::with_cores(1))
        .subscribe_named(
            "nflx",
            r"tls.sni ~ '(.+?\.)?nflxvideo\.net'",
            |_: TlsHandshakeData| panic!("video.example.net is not a Netflix SNI"),
        )
        .build()
        .expect("runtime builds");
    let (per_conn, report) = allocs_per_conn(&mut runtime, tls_one_at_a_time);
    // Every handshake completed, reached the session filter and failed it.
    assert_eq!(report.cores.session_filter.runs, u64::from(2 * TLS_N));
    assert_eq!(report.cores.discard_session_filter, u64::from(2 * TLS_N));
    // Each connection draws the parser the one before it handed back, and
    // the handshake the filter rejected went back to that parser: its
    // SNI, ALPN and cipher list carry the next connection's hellos. A
    // parser that drops a rejected handshake allocates those three again
    // per connection.
    assert!(
        per_conn <= 0.001,
        "{per_conn:.3} allocations per rejected TLS handshake on a warm core"
    );
}

#[test]
fn every_built_in_probe_allocates_nothing() {
    // What each built-in protocol opens a connection with, QUIC's
    // Initial included.
    let openings = [
        client_hello_record(&ClientHelloSpec {
            sni: Some("video.example.net".to_string()),
            ciphers: vec![0x1301, 0xc02f],
            random: [0x42; 32],
            version: 0x0303,
            alpn: Some("h2".to_string()),
        }),
        http::build_request("GET", "/video/1", "video.example.net", "agent/1.0"),
        http::build_response(200, 0),
        dns::build_query(7, "www.example.com", 1),
        ssh::build_banner("OpenSSH_9.6"),
        quic::build_long_header(1, &[0xaa; 8], &[0x11; 4], 1_200),
    ];
    // Each opening whole and cut at each of its first 16 bytes, and a
    // binary segment.
    let mut inputs: Vec<&[u8]> = Vec::new();
    for opening in &openings {
        inputs.extend((0..=16).map(|n| &opening[..n]));
        inputs.push(opening);
    }
    let binary = [0xf5; 1460];
    inputs.push(&binary);
    let registry = ParserRegistry::default();
    let prototypes: Vec<_> = (registry.protocols().into_iter())
        .map(|name| registry.instantiate(name).expect("registered"))
        .collect();
    let both = [Direction::ToServer, Direction::ToClient];
    let before = counters();
    for prototype in &prototypes {
        for input in &inputs {
            for dir in both {
                std::hint::black_box(prototype.probe(input, dir));
            }
        }
    }
    let after = counters();
    assert_eq!(after, before, "(calls, bytes) allocated probing");
    for (i, opening) in openings.iter().enumerate() {
        let certain = (prototypes.iter()).any(|p| {
            both.iter()
                .any(|&dir| p.probe(opening, dir) == ProbeResult::Certain)
        });
        assert!(certain, "opening {i} is recognized");
    }
}

#[test]
fn a_dns_probe_allocates_nothing() {
    // The tracker probes a datagram against every candidate's prototype;
    // DNS's walks the question name without building it.
    let registry = ParserRegistry::default();
    let prototypes: Vec<_> = (registry.protocols().into_iter())
        .map(|name| (name, registry.new_parser(name).expect("registered")))
        .collect();
    let query = dns::build_query(7, "www.example.com", 1);
    let response = dns::build_response(7, "www.example.com", 1, 2, 0);
    let framed = [
        &u16::try_from(query.len()).unwrap().to_be_bytes()[..],
        &query,
    ]
    .concat();
    let datagrams = [
        (Direction::ToServer, &query[..]),
        (Direction::ToClient, &response[..]),
        (Direction::ToServer, &framed[..]),
    ];
    let mut verdicts = [ProbeResult::NotForUs; 3];
    let before = counters();
    for (verdict, (dir, datagram)) in verdicts.iter_mut().zip(datagrams) {
        for (name, parser) in &prototypes {
            let v = parser.probe(datagram, dir);
            if *name == "dns" {
                *verdict = v;
            }
        }
    }
    let after = counters();
    assert_eq!(verdicts, [ProbeResult::Certain; 3]);
    assert_eq!(
        after, before,
        "(calls, bytes) allocated probing DNS datagrams"
    );
}

#[test]
fn a_tls_conn_record_borrows_its_service_name() {
    static RECORDS: AtomicU64 = AtomicU64::new(0);
    let mut runtime = RuntimeBuilder::new(RuntimeConfig::with_cores(1))
        .subscribe_named("tls-conns", "tls", |record: ConnRecord| {
            assert_eq!(record.service, Some("tls"));
            RECORDS.fetch_add(1, Ordering::Relaxed);
        })
        .build()
        .expect("runtime builds");
    let (per_conn, _) = allocs_per_client_hello(&mut runtime, false);
    // The prefix run delivered TLS_N records, the full run 2 * TLS_N.
    assert_eq!(RECORDS.load(Ordering::Relaxed), u64::from(3 * TLS_N));
    // Nothing is left: the record names its service by the parser's
    // `&'static str`. A `String` copied from it at delivery made this
    // 1.02; a boxed probe state, the winning parser (built whether or not
    // anyone parsed with it) and the boxed record, 4.02; a `String` in the
    // tracked state, cloned from the service name at the match, one more;
    // a prefix buffer the ClientHello was copied into before probing,
    // another.
    assert!(
        per_conn <= 0.05,
        "{per_conn:.3} allocations per tls-filtered ConnRecord"
    );
}

#[test]
fn a_session_filter_regex_allocates_nothing() {
    let run = |filter: &str| {
        let mut runtime = RuntimeBuilder::new(RuntimeConfig::with_cores(1))
            .subscribe_named("nflx", filter, |_: TlsHandshakeData| {
                panic!("video.example.net is not a Netflix SNI");
            })
            .build()
            .expect("runtime builds");
        let mut packets = client_hellos(0, 0, true);
        let warm = packets.len();
        packets.extend(client_hellos(TLS_N, 400 * SEC, true));
        let ((allocs, _), report) = measured_half(&mut runtime, &packets, warm);
        // Every handshake reached the session filter, and failed it.
        assert_eq!(report.cores.session_filter.runs, u64::from(2 * TLS_N));
        allocs
    };
    let regex = run(r"tls.sni ~ '(.+?\.)?nflxvideo\.net'");
    let equality = run("tls.sni = 'nflxvideo.net'");
    // A copy of the field per evaluation — a `Vec<char>` collected from
    // it, grown twice on the way — made this 3 * TLS_N more.
    assert_eq!(
        regex, equality,
        "allocations of {TLS_N} failing `~` vs `=` session filters"
    );
}

/// Connections per half of the byte-stream test, and data segments each.
const STREAM_N: u32 = 20;
const SEGMENTS: u32 = 200;

/// `STREAM_N` connections that carry `SEGMENTS` in-order data segments
/// of `payload` bytes — a 17-byte request, the rest a download — and
/// close: 10 µs between a connection's packets, connections 10 ms apart
/// from `start_ns`, so each ends before the next begins.
fn downloads(first_source: u32, start_ns: u64, payload: usize) -> Vec<(Bytes, u64)> {
    let server: std::net::SocketAddr = "198.51.100.1:8080".parse().unwrap();
    let body = vec![0x5a; payload];
    let mut out = Vec::new();
    for i in 0..STREAM_N {
        let client = std::net::SocketAddr::new(
            std::net::Ipv4Addr::from(0x0a00_0000 + first_source + i).into(),
            40_000,
        );
        let mut ts = start_ns + u64::from(i) * 10_000_000;
        let (mut cseq, mut sseq) = (100u32, 500u32);
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
            ts += 10_000;
            out.push((Bytes::from(frame), ts));
        };
        push(true, TcpFlags::SYN, &[]);
        push(false, TcpFlags::SYN | TcpFlags::ACK, &[]);
        push(true, TcpFlags::ACK, &[]);
        push(true, TcpFlags::ACK | TcpFlags::PSH, b"GET /the/download");
        for _ in 1..SEGMENTS {
            push(false, TcpFlags::ACK, &body);
        }
        push(true, TcpFlags::FIN | TcpFlags::ACK, &[]);
        push(false, TcpFlags::FIN | TcpFlags::ACK, &[]);
        push(true, TcpFlags::ACK, &[]);
    }
    out
}

#[test]
fn a_conn_bytes_segment_costs_a_view_whatever_its_payload() {
    static STREAMED: AtomicU64 = AtomicU64::new(0);
    // Matched at the packet layer: nothing is probed or parsed, every
    // data segment goes to the stream hook and nowhere else.
    let mut runtime = RuntimeBuilder::new(RuntimeConfig::with_cores(1))
        .subscribe_named("bytes", "tcp", |conn: ConnBytes| {
            assert!(!conn.truncated);
            let len = conn.client_stream.len() + conn.server_stream.len();
            STREAMED.fetch_add(len as u64, Ordering::Relaxed);
        })
        .build()
        .expect("runtime builds");
    let mut cost_of = |payload: usize| {
        let mut packets = downloads(0, 0, payload);
        let warm = packets.len();
        packets.extend(downloads(STREAM_N, 10 * SEC, payload));
        let before = STREAMED.load(Ordering::Relaxed);
        let (cost, _) = measured_half(&mut runtime, &packets, warm);
        // The prefix run delivered one half, the full run two.
        let per_conn = 17 + (u64::from(SEGMENTS) - 1) * payload as u64;
        let streamed = STREAMED.load(Ordering::Relaxed) - before;
        assert_eq!(streamed, 3 * u64::from(STREAM_N) * per_conn);
        cost
    };
    let (small, full) = (cost_of(100), cost_of(1460));
    assert_eq!(small, full, "(calls, bytes) for 100- vs 1460-byte payloads");
    // 62 today: a 48-byte view per segment in a doubling `Vec` (256
    // slots for 199 segments) and the slack of the first test; the datum
    // travels in its output lane, not in a box.
    let per_segment = small.1 / u64::from(STREAM_N * SEGMENTS);
    assert!(
        per_segment <= 96,
        "{per_segment} bytes allocated per segment"
    );
}
