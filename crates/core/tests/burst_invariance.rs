//! The burst pipeline's contract: however a packet sequence is cut into
//! bursts, everything an observer can see is what bursts of one produce.
//!
//! `CorePipeline::on_burst` stages a burst (prefetch, parse, packet
//! filter, an unverified connection-table hint) before any packet of it
//! reaches the connection tracker, so a packet's staged hint can be
//! stale by the time it is consumed: the connection may have been
//! opened, closed, or its slot handed to someone else by an earlier
//! packet *of the same burst*. These tests drive the same frames through
//! every burst size — via `run_stepped` (`rx_batch`), `run_offline` and
//! the pipeline itself under arbitrary cuts — and pin the hazards one by
//! one.

// Test-harness narrowing: loop counters into header fields.
#![allow(clippy::cast_possible_truncation)]

use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

use retina_core::offline::Direct;
use retina_core::subscribables::{
    ConnRecord, DnsTransactionData, HttpTransactionData, TlsHandshakeData, ZcFrame,
};
use retina_core::{
    run_offline, CompiledFilter, CorePipeline, CoreStats, ErasedSubscription, MultiRuntime,
    RunReport, RuntimeBuilder, RuntimeConfig, StepConfig, Subscribable, TraceConfig,
    TypedSubscription,
};
use retina_protocols::tls::build::{
    ccs_record, client_hello_record, server_hello_record, ClientHelloSpec, ServerHelloSpec,
};
use retina_protocols::{dns, http};
use retina_support::bytes::Bytes;
use retina_support::proptest::prelude::*;
use retina_support::rand::{RngExt, SeedableRng, SmallRng};
use retina_wire::build::{build_tcp, build_udp, TcpSpec, UdpSpec};
use retina_wire::TcpFlags;

const MS: u64 = 1_000_000;
const SEC: u64 = 1000 * MS;

/// One side-aware TCP conversation builder (frames only; the caller
/// assigns timestamps when it interleaves conversations).
struct Conv {
    client: SocketAddr,
    server: SocketAddr,
    cseq: u32,
    sseq: u32,
    out: Vec<Bytes>,
}

impl Conv {
    fn open(client: SocketAddr, server: SocketAddr) -> Conv {
        let mut c = Conv {
            client,
            server,
            cseq: 1000,
            sseq: 5000,
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
        self.out.push(Bytes::from(build_tcp(&TcpSpec {
            src,
            dst,
            seq,
            ack,
            flags,
            window: 65535,
            ttl: 64,
            payload,
        })));
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

    fn close(&mut self) {
        self.push(true, TcpFlags::FIN | TcpFlags::ACK, &[]);
        self.push(false, TcpFlags::FIN | TcpFlags::ACK, &[]);
        self.push(true, TcpFlags::ACK, &[]);
    }
}

fn addr(s: &str) -> SocketAddr {
    s.parse().unwrap()
}

fn client_hello(sni: &str) -> Vec<u8> {
    client_hello_record(&ClientHelloSpec {
        sni: Some(sni.to_string()),
        ciphers: vec![0x1301],
        random: [0x42; 32],
        version: 0x0303,
        alpn: None,
    })
}

fn server_hello() -> Vec<u8> {
    server_hello_record(&ServerHelloSpec {
        cipher: 0x1301,
        random: [0x99; 32],
        version: 0x0303,
        supported_version: Some(0x0304),
        alpn: None,
    })
}

fn syn(src: SocketAddr, dst: SocketAddr) -> Bytes {
    Bytes::from(build_tcp(&TcpSpec {
        src,
        dst,
        seq: 1,
        ack: 0,
        flags: TcpFlags::SYN,
        window: 65535,
        ttl: 64,
        payload: &[],
    }))
}

/// A frame the wire parser rejects (an ARP ethertype).
fn unparseable() -> Bytes {
    let mut frame = vec![0u8; 42];
    frame[12..14].copy_from_slice(&[0x08, 0x06]);
    Bytes::from(frame)
}

/// The frames of conversation `n`, its kind cycling through everything
/// the pipeline treats differently: TLS and HTTP sessions (probe, parse,
/// session filter, early removal), a conversation that closes and whose
/// tuple is then reused at once (closed set, slot reuse), a bare scan
/// SYN, a DNS exchange over UDP, and a plain TCP exchange.
fn conversation(n: usize) -> Vec<Bytes> {
    let client = addr(&format!("10.7.{}.{}:{}", n / 200, n % 200 + 1, 30_000 + n));
    match n % 6 {
        0 => {
            let mut c = Conv::open(client, addr("198.38.96.1:443"));
            c.data(true, &client_hello(&format!("v{n}.nflxvideo.net")));
            c.data(false, &server_hello());
            c.data(false, &ccs_record());
            c.data(true, &[0x17; 90]);
            c.close();
            c.out
        }
        1 => {
            let mut c = Conv::open(client, addr("93.184.216.34:80"));
            c.data(true, &http::build_request("GET", "/", "example.com", "t/1"));
            c.data(false, &http::build_response(200, 32));
            c.close();
            c.out
        }
        2 => {
            let mut c = Conv::open(client, addr("198.51.100.9:8443"));
            c.data(true, b"ping");
            c.close();
            // The same tuple again, straight away.
            let mut again = Conv::open(client, addr("198.51.100.9:8443"));
            again.data(true, b"pong");
            c.out.extend(again.out);
            c.out
        }
        3 => vec![syn(client, addr("203.0.113.77:22"))],
        4 => {
            let resolver = addr("9.9.9.9:53");
            let name = format!("host{n}.example.org");
            let datagram = |src, dst, payload: &[u8]| {
                Bytes::from(build_udp(&UdpSpec {
                    src,
                    dst,
                    ttl: 64,
                    payload,
                }))
            };
            vec![
                datagram(client, resolver, &dns::build_query(n as u16, &name, 1)),
                datagram(
                    resolver,
                    client,
                    &dns::build_response(n as u16, &name, 1, 1, 0),
                ),
            ]
        }
        _ => {
            let mut c = Conv::open(client, addr("198.51.100.1:443"));
            c.data(true, &[0xAA; 64]);
            c.data(false, &[0xBB; 128]);
            c.close();
            c.out
        }
    }
}

/// `conns` conversations interleaved under `seed` — each keeps its own
/// packet order, so neighbours in the result are often the same
/// connection's consecutive packets and often not — 20 µs apart, with an
/// unparseable frame dropped in now and then. The whole trace stays
/// inside the 5 s establish timeout, so nothing here expires; expiry
/// under every cut has a test of its own
/// (`every_cut_expires_the_same_connections`).
fn workload(seed: u64, conns: usize) -> Vec<(Bytes, u64)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pending: Vec<std::vec::IntoIter<Bytes>> =
        (0..conns).map(|n| conversation(n).into_iter()).collect();
    // A window of open conversations, as on a real link.
    let mut open: Vec<std::vec::IntoIter<Bytes>> = Vec::new();
    let mut out = Vec::new();
    let mut ts = 0u64;
    while !(pending.is_empty() && open.is_empty()) {
        while open.len() < 4 && !pending.is_empty() {
            open.push(pending.remove(0));
        }
        let pick = rng.random_range(0..open.len());
        // Runs of one to four packets of the same conversation.
        for _ in 0..rng.random_range(1..5usize) {
            ts += 20_000;
            match open[pick].next() {
                Some(frame) => out.push((frame, ts)),
                None => break,
            }
        }
        if open[pick].len() == 0 {
            open.remove(pick);
        }
        if rng.random_range(0..23u32) == 0 {
            ts += 20_000;
            out.push((unparseable(), ts));
        }
    }
    out
}

/// An order-sensitive `(count, checksum)` of everything a subscription
/// was handed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Seen {
    count: u64,
    checksum: u64,
}

impl Seen {
    fn fold(&mut self, datum: &impl std::fmt::Debug) {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in format!("{datum:?}").bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.count += 1;
        self.checksum = self.checksum.rotate_left(7) ^ h;
    }
}

type Shared = Arc<Mutex<Seen>>;

fn counting<S: Subscribable + std::fmt::Debug>(
    seen: &Shared,
) -> impl Fn(S) + Send + Sync + 'static {
    let seen = Arc::clone(seen);
    move |datum: S| seen.lock().unwrap().fold(&datum)
}

/// The five-subscription union the sweep runs: a packet-level
/// subscription (the bypass), two session-level ones, a connection-level
/// one, and DNS over UDP.
fn union(trace: Option<TraceConfig>) -> (MultiRuntime<CompiledFilter>, Vec<Shared>) {
    let seen: Vec<Shared> = (0..5).map(|_| Shared::default()).collect();
    let mut builder = RuntimeBuilder::new(RuntimeConfig::default())
        .subscribe_named("frames", "tcp.port = 8443", {
            let seen = Arc::clone(&seen[0]);
            move |f: ZcFrame| seen.lock().unwrap().fold(&(f.data(), f.mbuf.timestamp_ns))
        })
        .subscribe_named("tls", "tls", counting::<TlsHandshakeData>(&seen[1]))
        .subscribe_named("http", "http", counting::<HttpTransactionData>(&seen[2]))
        .subscribe_named("conns", "ipv4 and tcp", counting::<ConnRecord>(&seen[3]))
        .subscribe_named("dns", "dns", counting::<DnsTransactionData>(&seen[4]));
    if let Some(trace) = trace {
        builder = builder.trace(trace);
    }
    (builder.build().expect("union builds"), seen)
}

fn stepped(
    packets: &[(Bytes, u64)],
    rx_batch: usize,
    trace: Option<TraceConfig>,
) -> (RunReport, Vec<Seen>) {
    let (mut runtime, seen) = union(trace);
    let cfg = StepConfig {
        rx_batch,
        ..StepConfig::seeded(3)
    };
    let report = runtime.run_stepped(packets, &cfg);
    report.check_accounting().expect("accounting exact");
    let seen = seen.iter().map(|s| *s.lock().unwrap()).collect();
    (report, seen)
}

/// Every sampled flow's canonical span tree, in trace-id order.
fn span_trees(report: &RunReport) -> Vec<(u64, Vec<u8>)> {
    let session = &report.trace.as_ref().expect("trace report").session;
    assert_eq!(session.dropped_events, 0, "trace buffers overflowed");
    let ids = session.trace_ids();
    ids.into_iter()
        .map(|id| (id, session.flow(id).expect("flow").canonical_bytes()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `run_stepped` under every `rx_batch` — bursts of 1 to 32, and one
    /// past the staging cap — delivers the same data in the same order,
    /// counts the same and traces the same span trees as `rx_batch` 1.
    #[test]
    fn rx_batch_is_invisible(seed in any::<u64>(), conns in 6usize..40, batch in 2usize..=33) {
        let packets = workload(seed, conns);
        let trace = || Some(TraceConfig { sample_one_in: 1, seed, ..TraceConfig::default() });
        let (one, seen_one) = stepped(&packets, 1, trace());
        let (many, seen_many) = stepped(&packets, batch, trace());
        prop_assert_eq!(one.deterministic_digest(), many.deterministic_digest());
        for sub in &one.subs {
            prop_assert_eq!(one.sub_digest(&sub.name), many.sub_digest(&sub.name), "{}", sub.name);
        }
        prop_assert!(seen_one.iter().map(|s| s.count).sum::<u64>() > 0);
        prop_assert_eq!(seen_one, seen_many);
        prop_assert_eq!(span_trees(&one), span_trees(&many));
    }

    /// The pipeline itself, fed the same frames under arbitrary cuts
    /// (sizes 1..=32, mixed), ends in the same state and has delivered
    /// the same records in the same order as under bursts of one.
    #[test]
    fn arbitrary_cuts_are_invisible(
        seed in any::<u64>(),
        conns in 6usize..40,
        cuts in collection::vec(1usize..=32, 1..12),
    ) {
        let packets = workload(seed, conns);
        let ones = piped::<ConnRecord>("ipv4 and tcp", &packets, &[1]);
        let cut = piped::<ConnRecord>("ipv4 and tcp", &packets, &cuts);
        prop_assert!(ones.1.count > 0);
        prop_assert_eq!(ones, cut);
    }

    /// `run_offline` (the whole iterator handed over as one burst)
    /// agrees with the stepped harness taking the frames one at a time.
    #[test]
    fn offline_agrees_with_bursts_of_one(seed in any::<u64>(), conns in 6usize..40) {
        let packets = workload(seed, conns);
        let filter = Arc::new(CompiledFilter::build("tls", &Default::default()).unwrap());
        let mut offline = Seen::default();
        let stats = run_offline(
            &filter,
            &RuntimeConfig::default(),
            packets.iter().cloned(),
            |d: TlsHandshakeData| offline.fold(&d),
        );

        let seen = Shared::default();
        let mut runtime = RuntimeBuilder::new(RuntimeConfig::default())
            .subscribe_named("sub0", "tls", counting::<TlsHandshakeData>(&seen))
            .build()
            .unwrap();
        let cfg = StepConfig { rx_batch: 1, ..StepConfig::seeded(3) };
        let report = runtime.run_stepped(&packets, &cfg);
        prop_assert!(offline.count > 0);
        prop_assert_eq!(offline, *seen.lock().unwrap());
        prop_assert_eq!(counters(&stats), counters(&report.cores));
    }
}

/// `CoreStats` as text (it carries no `PartialEq`; with profiling off
/// every field is a deterministic count).
fn counters(stats: &CoreStats) -> String {
    format!("{stats:?}")
}

/// Drives a single-subscription pipeline over `packets`, cut into bursts
/// of the sizes in `cuts` (cycled), then drains it. Returns the final
/// statistics and what the subscription saw.
fn piped<S: Subscribable + std::fmt::Debug>(
    filter: &str,
    packets: &[(Bytes, u64)],
    cuts: &[usize],
) -> (String, Seen) {
    let mut seen = Seen::default();
    let stats = {
        let filter = Arc::new(CompiledFilter::build(filter, &Default::default()).unwrap());
        let sub: Arc<dyn ErasedSubscription> = Arc::new(TypedSubscription::<S>::spec_only("sub0"));
        let mut pipeline = CorePipeline::new(filter, &[sub], &RuntimeConfig::default(), None);
        let mut transport = Direct::new(|datum: S| seen.fold(&datum));
        let mut rest = packets;
        for cut in cuts.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (burst, tail) = rest.split_at((*cut).min(rest.len()));
            pipeline.on_burst(burst, [], &mut transport);
            rest = tail;
            let received = pipeline.tracker().stats().rx_packets;
            assert_eq!(received, (packets.len() - rest.len()) as u64);
        }
        pipeline.drain(&mut transport);
        pipeline.finish().0
    };
    stats.check_conn_accounting().expect("connection identity");
    (counters(&stats), seen)
}

/// What a `tcp` → `ConnRecord` pipeline delivers, and its final
/// statistics, for `packets` handed over as `bursts`.
fn tcp_run<'a>(bursts: impl Iterator<Item = &'a [(Bytes, u64)]>) -> (Vec<ConnRecord>, CoreStats) {
    let mut records = Vec::new();
    let stats = {
        let filter = Arc::new(CompiledFilter::build("tcp", &Default::default()).unwrap());
        let sub: Arc<dyn ErasedSubscription> =
            Arc::new(TypedSubscription::<ConnRecord>::spec_only("sub0"));
        let mut pipeline = CorePipeline::new(filter, &[sub], &RuntimeConfig::default(), None);
        let mut transport = Direct::new(|r: ConnRecord| records.push(r));
        for burst in bursts {
            pipeline.on_burst(burst, [], &mut transport);
        }
        pipeline.drain(&mut transport);
        pipeline.finish().0
    };
    (records, stats)
}

/// Runs `frames` (1 ms apart) with the first `warm` as a warm-up burst
/// and the rest as **one** burst, asserts that bursts of one deliver and
/// count exactly the same, and returns the records and statistics.
fn one_burst_after(warm: usize, frames: &[Bytes]) -> (Vec<ConnRecord>, CoreStats) {
    assert!(frames.len() - warm <= retina_core::BURST_MAX);
    let packets: Vec<(Bytes, u64)> = frames
        .iter()
        .enumerate()
        .map(|(i, f)| (f.clone(), (i as u64 + 1) * MS))
        .collect();
    let (head, tail) = packets.split_at(warm);
    let (as_one, stats) = tcp_run([head, tail].into_iter());
    let (singly, stats_singly) = tcp_run(packets.chunks(1));
    assert_eq!(as_one, singly, "one burst vs bursts of one");
    assert_eq!(counters(&stats), counters(&stats_singly));
    (as_one, stats)
}

/// SYN, SYN-ACK, ACK and the first data of one connection in one burst:
/// every hint was taken before the connection existed, so the first
/// packet inserts and the other three find it by a verified lookup.
#[test]
fn a_connection_born_inside_the_burst_is_found_by_its_later_packets() {
    let mut c = Conv::open(addr("10.0.0.1:40001"), addr("198.51.100.1:443"));
    c.data(true, b"hello");
    let (records, stats) = one_burst_after(0, &c.out);
    assert_eq!(stats.conns_created, 1);
    assert_eq!(stats.conn_tracking.runs, 4);
    assert_eq!(records.len(), 1);
    let r = &records[0];
    assert_eq!((r.pkts_up, r.pkts_down, r.bytes_up), (3, 1, 5));
    assert!(r.established && !r.terminated);
}

/// FIN/FIN closes a connection and a new SYN reuses the tuple, all in
/// one burst: the SYN's hint still names the dead connection's slot. It
/// must be ignored, and the closed set must swallow the SYN exactly as
/// it does when the packets arrive one at a time.
#[test]
fn a_tuple_reused_inside_the_burst_honours_the_closed_set() {
    let (client, server) = (addr("10.0.0.2:40002"), addr("198.51.100.1:443"));
    let mut c = Conv::open(client, server);
    // The connection is in the table before the burst under test.
    let opened = c.out.len();
    c.close();
    c.out.push(syn(client, server));
    let (records, stats) = one_burst_after(opened, &c.out);
    assert_eq!(stats.conns_created, 1, "the trailing SYN opens nothing");
    assert_eq!(stats.conns_terminated, 1);
    assert_eq!(records.len(), 1);
    assert!(records[0].terminated);
    assert_eq!((records[0].pkts_up, records[0].pkts_down), (3, 2));
}

/// A connection is torn down mid-burst, a new one takes over its arena
/// slot, and then a straggler of the dead connection arrives — carrying
/// a hint that now points at the newcomer's slot. Nothing of the
/// straggler may land on the newcomer.
#[test]
fn a_slot_reused_inside_the_burst_is_not_mistaken_for_its_old_tenant() {
    let server = addr("198.51.100.1:443");
    let mut old = Conv::open(addr("10.0.0.3:40003"), server);
    // A warm-up burst opens `old`; the burst under test resets it, opens
    // the newcomer (into the freed slot) and delivers the straggler.
    let opened = old.out.len();
    old.push(true, TcpFlags::RST, &[]);
    old.out.push(syn(addr("10.0.0.4:40004"), server));
    old.data(true, b"late");
    let (records, stats) = one_burst_after(opened, &old.out);
    assert_eq!(stats.conns_created, 2);
    assert_eq!(stats.conns_peak, 1, "one slot, two tenants");
    assert_eq!(records.len(), 2);
    let new = records
        .iter()
        .find(|r| r.tuple.orig.port() == 40004)
        .expect("the newcomer's record");
    assert_eq!(
        (new.pkts_up, new.bytes_up),
        (1, 0),
        "nothing of the straggler"
    );
    assert!(new.single_syn);
}

/// A frame that fails to parse sits between two packets of one flow: it
/// is counted and goes no further, and the flow's packets on either side
/// are processed in order.
#[test]
fn a_parse_failure_inside_the_burst_does_not_disturb_its_neighbours() {
    let mut c = Conv::open(addr("10.0.0.5:40005"), addr("198.51.100.1:443"));
    c.data(true, b"before");
    c.out.push(unparseable());
    c.data(true, b"after");
    let (records, stats) = one_burst_after(0, &c.out);
    assert_eq!((stats.rx_packets, stats.parse_failures), (6, 1));
    assert_eq!(stats.packet_filter.runs, 5);
    assert_eq!(records.len(), 1);
    assert_eq!((records[0].pkts_up, records[0].bytes_up), (4, 11));
    assert_eq!(records[0].ooo_up, 0);
}

/// `n` frames 10 ms apart: bare SYNs from distinct sources, except that
/// the frames at `garbage` fail to parse.
fn timed_syns(n: usize, garbage: &[usize]) -> Vec<(Bytes, u64)> {
    (0..n)
        .map(|i| {
            let frame = if garbage.contains(&i) {
                unparseable()
            } else {
                let src = addr(&format!("10.{}.{}.9:{}", i / 250, i % 250, 20_000 + i));
                syn(src, addr("198.51.100.1:443"))
            };
            (frame, i as u64 * 10 * MS)
        })
        .collect()
}

/// SYNs of [`timed_syns`] whose 5 s establish timeout has run out by the
/// time frame `at` is the clock.
fn expired_by(at: usize, garbage: &[usize]) -> u64 {
    let now = at as u64 * 10 * MS;
    (0..=at)
        .filter(|i| !garbage.contains(i) && *i as u64 * 10 * MS + 5 * SEC <= now)
        .count() as u64
}

/// The pipeline sweeps idle connections right after every
/// `SWEEP_EVERY`th frame it receives, parsed or not, so which
/// connections expire is a function of the frame sequence alone: the
/// stepped harness at any `rx_batch`, `run_offline` and the pipeline
/// under arbitrary cuts expire the same connections and deliver the same
/// records in the same order. Three sweeps fire in this trace. The
/// 1024th frame and the one before it are unparseable, and so is the
/// first frame after the second sweep.
#[test]
fn every_cut_expires_the_same_connections() {
    let garbage = [1022, 1023, 2048, 3000];
    let packets = timed_syns(3200, &garbage);
    let created = 3200 - garbage.len() as u64;
    // The last sweep runs with frame 3071 as the clock.
    let last_sweep = 3 * retina_core::SWEEP_EVERY as usize - 1;
    let expired = expired_by(last_sweep, &garbage);
    assert_eq!(expired, 2569, "pinned");

    let filter = Arc::new(CompiledFilter::build("tcp", &Default::default()).unwrap());
    let mut offline = Seen::default();
    let stats = run_offline(
        &filter,
        &RuntimeConfig::default(),
        packets.iter().cloned(),
        |r: ConnRecord| offline.fold(&r),
    );
    assert_eq!(stats.parse_failures, garbage.len() as u64);
    assert_eq!(stats.conns_created, created);
    assert_eq!(stats.conns_expired, expired);
    assert_eq!(stats.conns_drained, created - expired);
    assert_eq!(offline.count, created);

    for rx_batch in [1, 3, 4, 33] {
        let seen = Shared::default();
        let mut runtime = RuntimeBuilder::new(RuntimeConfig::default())
            .subscribe_named("sub0", "tcp", counting::<ConnRecord>(&seen))
            .build()
            .unwrap();
        let cfg = StepConfig {
            rx_batch,
            ..StepConfig::seeded(1)
        };
        let report = runtime.run_stepped(&packets, &cfg);
        report.check_accounting().unwrap();
        assert_eq!(
            counters(&report.cores),
            counters(&stats),
            "rx_batch {rx_batch}"
        );
        assert_eq!(*seen.lock().unwrap(), offline, "rx_batch {rx_batch}");
    }

    for cuts in [&[1][..], &[32], &[7, 1, 100, 1023, 3], &[1025, 2], &[4000]] {
        let cut = piped::<ConnRecord>("tcp", &packets, cuts);
        assert_eq!(cut, (counters(&stats), offline), "cuts {cuts:?}");
    }
}

/// `run_offline` sweeps right after the 1024th parsed packet, and not a
/// packet later, however the frames fall into bursts. Every frame up to
/// that boundary parses in this trace, so the 1024th parsed packet is
/// also the 1024th frame, which is what the sweep counts; the parse
/// failures come after it and move nothing. One sweep fires; how many
/// connections it expires says exactly where.
#[test]
fn offline_sweeps_right_after_the_1024th_parsed_packet() {
    let garbage = [1100, 1300];
    let packets = timed_syns(1400, &garbage);
    let boundary = retina_core::SWEEP_EVERY as usize - 1; // frame 1023 is the clock
    let expired = expired_by(boundary, &garbage);
    assert_eq!(expired, 524, "pinned");
    assert_ne!(expired, expired_by(boundary + 1, &garbage));

    let filter = Arc::new(CompiledFilter::build("tcp", &Default::default()).unwrap());
    let mut offline = Seen::default();
    let stats = run_offline(
        &filter,
        &RuntimeConfig::default(),
        packets.iter().cloned(),
        |r: ConnRecord| offline.fold(&r),
    );
    assert_eq!(stats.parse_failures, 2);
    assert_eq!(stats.conns_created, 1398);
    assert_eq!(stats.conns_expired, expired);
    assert_eq!(stats.conns_drained, 1398 - expired);
    assert_eq!(offline.count, 1398);

    for cuts in [&[boundary][..], &[boundary + 1], &[boundary, 2]] {
        let cut = piped::<ConnRecord>("tcp", &packets, cuts);
        assert_eq!(cut, (counters(&stats), offline), "cuts {cuts:?}");
    }
}

/// The stepped harness sweeps every 64 RX steps when `rx_batch` packs
/// 64 steps into exactly 1024 frames, whether those frames parse: with
/// `rx_batch` 16 the last sweep of this trace runs with frame 2047 as
/// the clock.
#[test]
fn stepped_sweeps_every_64_steps_of_rx_batch_frames() {
    let rx_batch = retina_core::SWEEP_EVERY as usize / 64;
    assert_eq!(rx_batch, 16);
    let garbage = [255, 256, 600];
    let packets = timed_syns(2100, &garbage);
    let mut runtime = RuntimeBuilder::new(RuntimeConfig::default())
        .subscribe_named("conns", "tcp", |_: ConnRecord| {})
        .build()
        .unwrap();
    let cfg = StepConfig {
        rx_batch,
        ..StepConfig::seeded(1)
    };
    let report = runtime.run_stepped(&packets, &cfg);
    report.check_accounting().unwrap();
    assert_eq!(report.cores.parse_failures, 3);
    assert_eq!(
        report.cores.conns_expired,
        expired_by(2 * 64 * rx_batch - 1, &garbage)
    );
    assert_eq!(report.cores.conns_expired, 1545, "pinned");
    assert_eq!(report.cores.conns_drained, 2097 - 1545);
}
