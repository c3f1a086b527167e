//! Live-reconfiguration tests: epoch-based RCU hot swap of the
//! subscription set on a running pipeline.
//!
//! The contract under test (the PR 9 tentpole):
//!
//! * **Zero loss, exact accounting** — a swap in the middle of a run
//!   never loses a frame or a connection outcome:
//!   [`RunReport::check_accounting`] stays green, including the new
//!   `conns_swapped` identity for connections whose last subscription
//!   was removed.
//! * **Untouched subscriptions are untouched** — a subscription that
//!   survives the swap delivers byte-for-byte what it delivers in a
//!   no-swap run over the same traffic ([`RunReport::sub_digest`]).
//! * **Removed subscriptions drain** — matched connections get their
//!   final delivery at the swap point; nothing vanishes silently.
//! * **Both execution modes** — the same invariants hold on the
//!   threaded runtime (via [`SwapController`]) and under the
//!   deterministic stepped harness (via
//!   `MultiRuntime::run_stepped_with_swap`), with and without injected
//!   chaos faults.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use retina_chaos::{ChaosSource, Fault, FaultPlan};
use retina_core::subscribables::{ConnRecord, DnsTransactionData, ZcFrame};
use retina_core::{
    DispatchMode, MultiRuntime, RunReport, RuntimeBuilder, RuntimeConfig, StepConfig,
    SwapController, SwapError, SwapSpec, TraceConfig, TrafficSource, STEP_NS,
};
use retina_filter::registry::{FilterLayer, ProtocolDef};
use retina_filter::CompiledFilter;
use retina_protocols::{ConnParser, Direction, ParseResult, ProbeResult, Session, SessionState};
use retina_support::bytes::Bytes;
use retina_telemetry::TraceKind;
use retina_trafficgen::campus::{generate, CampusConfig};
use retina_trafficgen::PreloadedSource;
use retina_wire::build::{build_icmpv4_echo, build_tcp, TcpSpec};
use retina_wire::TcpFlags;

/// A shared medium campus mix (TCP + UDP, so swaps can add/remove
/// protocol-disjoint subscriptions).
fn workload() -> Vec<(Bytes, u64)> {
    generate(&CampusConfig {
        seed: 0x5AFE,
        target_packets: 6_000,
        duration_secs: 5.0,
        ..CampusConfig::default()
    })
}

/// Original configuration: an all-TCP connection log (the subscription
/// every test keeps across the swap) plus a port-443 log (the one swaps
/// remove).
fn build_runtime(counter: &Arc<AtomicU64>) -> MultiRuntime<CompiledFilter> {
    build_runtime_with(2, counter, DispatchMode::Inline)
}

/// [`build_runtime`] on `cores` RX cores with `tls443` run in `mode`. A
/// dispatched `tls443` gives the stepped executor a worker to
/// interleave, so its schedule seed decides what is still queued when a
/// swap removes it.
fn build_runtime_with(
    cores: u16,
    counter: &Arc<AtomicU64>,
    mode: DispatchMode,
) -> MultiRuntime<CompiledFilter> {
    let c = Arc::clone(counter);
    RuntimeBuilder::new(RuntimeConfig::with_cores(cores))
        .subscribe_named::<ConnRecord>("conns", "ipv4 and tcp", move |_| {
            c.fetch_add(1, Ordering::Relaxed);
        })
        .subscribe_dispatched::<ConnRecord>("tls443", "ipv4 and tcp.port = 443", mode, |_| {})
        .build()
        .expect("runtime builds")
}

/// The swap target: keep `conns` (same name, same source), drop
/// `tls443`, add a UDP connection log. The swap installs the *new*
/// spec's callbacks — a survivor keeps its state and counters, not its
/// closure — so the counting hook must be re-registered to keep
/// counting across the swap.
fn swap_spec(counter: &Arc<AtomicU64>) -> SwapSpec {
    let c = Arc::clone(counter);
    SwapSpec::new()
        .subscribe_named::<ConnRecord>("conns", "ipv4 and tcp", move |_| {
            c.fetch_add(1, Ordering::Relaxed);
        })
        .subscribe_named::<ConnRecord>("udp-conns", "udp", |_| {})
}

fn sub<'a>(report: &'a RunReport, name: &str) -> &'a retina_core::SubReport {
    report
        .subs
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no report row for {name}"))
}

/// A [`TrafficSource`] that yields `first`, then blocks until the gate
/// fires, then yields `second` — so a test can freeze the wire
/// mid-run, perform a swap against a live (but quiescent) pipeline,
/// and prove post-swap traffic lands under the new configuration.
struct GatedSource {
    first: Vec<(Bytes, u64)>,
    second: Vec<(Bytes, u64)>,
    gate: Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>,
    cursor: usize,
}

/// The test's side of a [`GatedSource`].
struct Gate {
    parked: mpsc::Receiver<()>,
    release: mpsc::Sender<()>,
}

impl Gate {
    /// Waits until the source has parked on the gate. The ingest thread
    /// asks for the next batch only once it has ingested every earlier
    /// one, so the whole first half has reached the port by then.
    fn wait_parked(&self) {
        self.parked
            .recv_timeout(Duration::from_secs(30))
            .expect("the first half never reached the port");
    }

    /// Lets the second half through.
    fn open(&self) {
        self.release.send(()).expect("run thread alive");
    }
}

impl GatedSource {
    /// Splits `packets` at `at`; returns the source and its gate.
    fn new(mut packets: Vec<(Bytes, u64)>, at: usize) -> (Self, Gate) {
        let second = packets.split_off(at.min(packets.len()));
        let (parked_tx, parked) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        (
            GatedSource {
                first: packets,
                second,
                gate: Some((parked_tx, release_rx)),
                cursor: 0,
            },
            Gate { parked, release },
        )
    }
}

impl TrafficSource for GatedSource {
    fn next_batch(&mut self, out: &mut Vec<(Bytes, u64)>) -> bool {
        const BATCH: usize = 256;
        if self.cursor < self.first.len() {
            let end = (self.cursor + BATCH).min(self.first.len());
            out.extend(self.first[self.cursor..end].iter().cloned());
            self.cursor = end;
            return true;
        }
        if let Some((parked, release)) = self.gate.take() {
            // First half done: park the wire until the test releases it.
            let _ = parked.send(());
            let _ = release.recv();
            self.cursor = self.first.len();
        }
        let off = self.cursor - self.first.len();
        if off >= self.second.len() {
            return false;
        }
        let end = (off + BATCH).min(self.second.len());
        out.extend(self.second[off..end].iter().cloned());
        self.cursor += end - off;
        true
    }
}

/// Runs the threaded runtime over a gated source, swapping to `spec`
/// while the wire is parked at the midpoint. Returns the report and
/// the swap's ledger entry.
fn threaded_swap_run(
    packets: Vec<(Bytes, u64)>,
    spec: &SwapSpec,
    plan: Option<&FaultPlan>,
    counter: &Arc<AtomicU64>,
) -> (RunReport, retina_core::SwapEvent) {
    let (_, report, event) = threaded_swap_run_on(build_runtime(counter), packets, spec, plan);
    (report, event)
}

/// [`threaded_swap_run`] on a runtime the caller built (and may hold
/// handles into), handed back after the run.
fn threaded_swap_run_on(
    mut rt: MultiRuntime<CompiledFilter>,
    packets: Vec<(Bytes, u64)>,
    spec: &SwapSpec,
    plan: Option<&FaultPlan>,
) -> (
    MultiRuntime<CompiledFilter>,
    RunReport,
    retina_core::SwapEvent,
) {
    let mid = packets.len() / 2;
    let controller = rt.swap_controller();
    let nic = Arc::clone(rt.nic());
    let plan = plan.cloned();
    if let Some(plan) = &plan {
        retina_chaos::install(rt.nic(), plan);
    }
    let (source, gate) = GatedSource::new(packets, mid);
    let handle = std::thread::spawn(move || {
        let report = match &plan {
            Some(plan) => rt.run(ChaosSource::new(source, plan)),
            None => rt.run(source),
        };
        rt.nic().clear_fault_hooks();
        (rt, report)
    });
    gate.wait_parked();
    assert!(nic.stats().rx_offered >= mid as u64, "first half ingested");
    let event = controller.swap(spec).expect("swap succeeds mid-run");
    gate.open();
    let (rt, report) = handle.join().expect("run thread panicked");
    (rt, report, event)
}

#[test]
fn stepped_swap_exact_accounting_and_untouched_digest() {
    let packets = workload();
    let at = (packets.len() / 2) as u64;
    // With every subscription inline on one core the schedule has one
    // actor and the seed changes nothing; a dispatched `tls443`, or more
    // RX cores, make it bite.
    let modes = [DispatchMode::Inline, DispatchMode::dedicated(2)];
    for (seed, mode, cores) in [0x1CE, 2, 3]
        .into_iter()
        .flat_map(|s| modes.map(|m| (s, m)))
        .flat_map(|(s, m)| [1, 2, 4].map(|c| (s, m, c)))
    {
        let cfg = StepConfig::seeded(seed);

        let hits = Arc::new(AtomicU64::new(0));
        let report = build_runtime_with(cores, &hits, mode)
            .run_stepped_with_swap(&packets, &cfg, at, &swap_spec(&hits))
            .expect("swap accepted");
        report
            .check_accounting()
            .expect("accounting exact across swap");

        // Control: the same runtime, same schedule, no swap.
        let control_hits = Arc::new(AtomicU64::new(0));
        let control = build_runtime_with(cores, &control_hits, mode).run_stepped(&packets, &cfg);
        control.check_accounting().expect("control accounting");

        // The untouched subscription is byte-identical to the no-swap run —
        // same deliveries, same discards, same callback count.
        assert_eq!(
            report.sub_digest("conns").expect("conns row"),
            control.sub_digest("conns").expect("control conns row"),
            "surviving subscription diverged from the no-swap run at seed {seed}, {mode:?}, \
             {cores} cores"
        );
        assert_eq!(
            hits.load(Ordering::Relaxed),
            control_hits.load(Ordering::Relaxed)
        );

        // The added subscription saw the second half's UDP traffic; the
        // removed one saw (only) the first half's 443 traffic.
        assert!(sub(&report, "udp-conns").delivered > 0, "added sub silent");
        assert!(
            sub(&report, "tls443").delivered > 0,
            "removed sub never delivered"
        );
        assert!(
            control.sub_digest("udp-conns").is_none(),
            "control has no udp row"
        );
    }
}

#[test]
fn stepped_swap_drains_orphaned_connections() {
    // Remove the *only* subscription covering UDP mid-run: every UDP
    // connection alive at the swap loses its last subscriber and must
    // be counted `conns_swapped` — a distinct outcome in the identity
    // created == discarded + terminated + expired + drained + swapped.
    let packets = workload();
    let mut rt = RuntimeBuilder::new(RuntimeConfig::with_cores(2))
        .subscribe_named::<ConnRecord>("conns", "ipv4 and tcp", |_| {})
        .subscribe_named::<ConnRecord>("udp-conns", "udp", |_| {})
        .build()
        .unwrap();
    let spec = SwapSpec::new().subscribe_named::<ConnRecord>("conns", "ipv4 and tcp", |_| {});
    let report = rt
        .run_stepped_with_swap(
            &packets,
            &StepConfig::seeded(9),
            (packets.len() / 2) as u64,
            &spec,
        )
        .expect("swap accepted");
    report.check_accounting().expect("accounting exact");
    assert!(
        report.cores.conns_swapped > 0,
        "no connection was orphaned by removing its only subscription"
    );
    // Post-swap UDP packets must not resurrect the removed subscription.
    let udp = sub(&report, "udp-conns");
    assert_eq!(
        udp.delivered,
        udp.cb_executed + udp.cb_dropped_full + udp.cb_dropped_disconnected
    );
}

/// Regression: the exported counters carry the whole connection
/// identity, `conns_swapped` included, so an exporter alone can check
/// `created == discarded + terminated + expired + drained + swapped`.
/// `conns_swapped` used to be missing from `RunReport::telemetry()`.
#[test]
fn exported_counters_balance_the_connection_identity_across_a_swap() {
    let packets = workload();
    let mut rt = RuntimeBuilder::new(RuntimeConfig::with_cores(2))
        .subscribe_named::<ConnRecord>("conns", "ipv4 and tcp", |_| {})
        .subscribe_named::<ConnRecord>("udp-conns", "udp", |_| {})
        .build()
        .unwrap();
    let spec = SwapSpec::new().subscribe_named::<ConnRecord>("conns", "ipv4 and tcp", |_| {});
    let report = rt
        .run_stepped_with_swap(
            &packets,
            &StepConfig::seeded(9),
            (packets.len() / 2) as u64,
            &spec,
        )
        .expect("swap accepted");
    let counters: HashMap<String, u64> = report.telemetry().counters.into_iter().collect();
    let get = |name: &str| {
        *counters
            .get(&format!("core.{name}"))
            .unwrap_or_else(|| panic!("core.{name} not exported"))
    };
    assert!(get("conns_swapped") > 0, "the swap orphaned nothing");
    assert_eq!(
        get("conns_created"),
        get("conns_discarded")
            + get("conns_terminated")
            + get("conns_expired")
            + get("conns_drained")
            + get("conns_swapped")
    );
}

/// A name removed by one swap and re-added by a later one is one row for
/// the whole run: its counts from both tables add up, its queue capacity
/// is the re-added ring's, and the rows read as the final table in
/// order, then the retired names sorted. The two swaps publish
/// generations 1 and 2, each picked up by every core, with no loss.
#[test]
fn a_removed_and_readded_name_is_one_whole_run_row() {
    let hits = Arc::new(AtomicU64::new(0));
    let mut rt = build_runtime(&hits);
    let controller = rt.swap_controller();
    let packets = workload();
    let third = packets.len() / 3;
    let nic = Arc::clone(rt.nic());
    let (source, gate) = GatedSource::new(packets, third);
    let handle = std::thread::spawn(move || rt.run(source));
    gate.wait_parked();
    assert!(
        nic.stats().rx_offered >= third as u64,
        "first third ingested"
    );
    // Drop `tls443`, adding two names the final table drops again.
    let drop_tls = SwapSpec::new()
        .subscribe_named::<ConnRecord>("conns", "ipv4 and tcp", |_| {})
        .subscribe_named::<ConnRecord>("udp-conns", "udp", |_| {})
        .subscribe_named::<DnsTransactionData>("dns", "dns", |_| {});
    let first = controller.swap(&drop_tls).expect("first swap");
    // Re-add it, now on a dedicated worker.
    let readd = SwapSpec::new()
        .subscribe_named::<ConnRecord>("conns", "ipv4 and tcp", |_| {})
        .subscribe_dispatched::<ConnRecord>(
            "tls443",
            "ipv4 and tcp.port = 443",
            DispatchMode::dedicated(8),
            |_| {},
        );
    let second = controller.swap(&readd).expect("second swap");
    gate.open();
    let report = handle.join().expect("run thread panicked");
    report.check_accounting().expect("accounting exact");
    assert!(report.zero_loss(), "two swaps must not drop a frame");

    // Each swap publishes the next generation, every core picks it up,
    // and its grace period ends after it was published.
    for (k, event) in [first, second].iter().enumerate() {
        assert_eq!(event.generation, k as u64 + 1, "swap {k}");
        assert_eq!(
            event.pickup_lag_us.len(),
            2,
            "one pickup per core, swap {k}"
        );
        assert!(event.retired_at >= event.published_at, "swap {k}");
    }
    assert!(sub(&report, "conns").delivered > 0, "survivor silent");

    let names: Vec<&str> = report.subs.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["conns", "tls443", "dns", "udp-conns"]);
    let tls = sub(&report, "tls443");
    assert!(tls.delivered > 0, "tls443 never delivered");
    assert_eq!(
        tls.delivered,
        tls.cb_executed + tls.cb_dropped_full + tls.cb_dropped_disconnected
    );
    assert_eq!(tls.queue_capacity, 2 * 8, "one 8-deep ring per RX core");
}

/// Regression: every way a connection leaves the table leaves one
/// `conn-expire` tracepoint, a swap-time eviction included — with reason
/// 5 (`TraceConnEnd::Swapped`), once per connection counted
/// `conns_swapped`. Evictions used to leave none, so a sampled flow's
/// span tree ended without an end.
#[test]
fn stepped_swap_evictions_leave_an_end_tracepoint() {
    let packets = workload();
    let trace = TraceConfig {
        sample_one_in: 1,
        lane_capacity: 1 << 20,
        ..TraceConfig::default()
    };
    let mut rt = RuntimeBuilder::new(RuntimeConfig::with_cores(2))
        .subscribe_named::<ConnRecord>("conns", "ipv4 and tcp", |_| {})
        .subscribe_named::<ConnRecord>("udp-conns", "udp", |_| {})
        .trace(trace)
        .build()
        .unwrap();
    let spec = SwapSpec::new().subscribe_named::<ConnRecord>("conns", "ipv4 and tcp", |_| {});
    let report = rt
        .run_stepped_with_swap(
            &packets,
            &StepConfig::seeded(9),
            (packets.len() / 2) as u64,
            &spec,
        )
        .expect("swap accepted");
    report.check_accounting().expect("accounting exact");
    let session = &report.trace.as_ref().expect("trace report").session;
    assert_eq!(session.dropped_events, 0, "trace buffers overflowed");

    // Trace ids come from the 16-bit symmetric RSS hash, so distinct
    // connections may share one: balance inserts against ends per id.
    let mut open: HashMap<u64, i64> = HashMap::new();
    let mut swapped = 0;
    for event in session.lanes.iter().flat_map(|(_, events)| events) {
        match event.kind {
            TraceKind::ConnInsert => *open.entry(event.trace_id).or_default() += 1,
            TraceKind::ConnExpire => {
                *open.entry(event.trace_id).or_default() -= 1;
                swapped += u64::from(event.a == 5);
            }
            _ => {}
        }
    }
    assert!(!open.is_empty(), "no connection was traced");
    let unbalanced: Vec<_> = open.iter().filter(|(_, n)| **n != 0).collect();
    assert!(
        unbalanced.is_empty(),
        "conn-insert without exactly one conn-expire: {unbalanced:?}"
    );
    assert!(report.cores.conns_swapped > 0, "the swap orphaned nothing");
    assert_eq!(swapped, report.cores.conns_swapped);
}

/// Regression: a swap that decides an undecided survivor at the packet
/// layer ("promotes" it) delivers the survivor's `on_match` output at
/// the swap point, and the old transport flushes it. That output used to
/// carry the survivor's *new* index, which the old transport routes to
/// whoever held it in the old table: `frames`' three buffered handshake
/// frames went to old sink 0 (`dns`), whose downcast panicked. Every
/// frame of the port-80 connection must reach `frames` exactly once —
/// the handshake through the promotion, the rest off the packet filter.
#[test]
fn stepped_swap_routes_a_promoted_survivor_to_itself() {
    let rt = frames_runtime("http", RuntimeConfig::with_cores(1));
    let spec = frames_spec("tcp.port = 80", &rt.1);
    assert_survivor_gets_every_frame(rt, &http_exchange(64, 65535), &spec, Driver::Stepped);
}

/// A swap decides a survivor by the new filter's verdict on the
/// connection's real first packet. It once read a synthetic SYN with
/// TTL 64 and window 65 535 instead: a TTL-128 connection swapped to a
/// filter on `ipv4.ttl > 100` lost its three buffered handshake frames
/// (5 of 8 delivered), and `tcp.window < 1000` could never promote one.
#[test]
fn a_swap_re_verdicts_a_survivor_on_its_real_ttl() {
    for driver in [Driver::Stepped, Driver::Threaded] {
        let rt = frames_runtime("http", RuntimeConfig::with_cores(1));
        let spec = frames_spec("ipv4.ttl > 100 and tcp.port = 80", &rt.1);
        assert_survivor_gets_every_frame(rt, &http_exchange(128, 65535), &spec, driver);
    }
}

#[test]
fn a_swap_re_verdicts_a_survivor_on_its_real_window() {
    for driver in [Driver::Stepped, Driver::Threaded] {
        let rt = frames_runtime("http", RuntimeConfig::with_cores(1));
        let spec = frames_spec("tcp.window < 1000 and tcp.port = 80", &rt.1);
        assert_survivor_gets_every_frame(rt, &http_exchange(64, 512), &spec, driver);
    }
}

/// A survivor that is neither TCP nor UDP gets a verdict too: an ICMP
/// echo connection, undecided under a connection-layer protocol that
/// never identifies, is promoted by `icmp.type = 8`. It used to be
/// dropped at every swap, its buffered frames with it.
#[test]
fn a_swap_re_verdicts_an_icmp_survivor() {
    for driver in [Driver::Stepped, Driver::Threaded] {
        let rt = frames_runtime("ping", ping_config());
        let spec = frames_spec("icmp.type = 8", &rt.1);
        assert_survivor_gets_every_frame(rt, &echo_requests(), &spec, driver);
    }
}

/// The frames a `ZcFrame` subscription saw, in delivery order.
type Seen = Arc<Mutex<Vec<Vec<u8>>>>;

fn record(seen: &Seen) -> impl Fn(ZcFrame) + Send + Sync + 'static {
    let seen = Arc::clone(seen);
    move |f: ZcFrame| seen.lock().unwrap().push(f.data().to_vec())
}

/// A runtime serving `dns` and, behind it, a `ZcFrame` subscription
/// `frames` on `filter`, which a swap to [`frames_spec`] moves to index
/// 0; and what `frames` saw.
fn frames_runtime(filter: &str, config: RuntimeConfig) -> (MultiRuntime<CompiledFilter>, Seen) {
    let seen = Seen::default();
    let rt = RuntimeBuilder::new(config)
        .subscribe_named::<DnsTransactionData>("dns", "dns", |_| {})
        .subscribe_named::<ZcFrame>("frames", filter, record(&seen))
        .build()
        .unwrap();
    (rt, seen)
}

/// The swap target: `frames` alone, on `filter`, recording into `seen`.
fn frames_spec(filter: &str, seen: &Seen) -> SwapSpec {
    SwapSpec::new().subscribe_named::<ZcFrame>("frames", filter, record(seen))
}

/// A client's exchange with a web server, every frame with IP TTL `ttl`
/// and TCP window `window`. Its connection is still probing after the
/// handshake's three frames.
fn http_exchange(ttl: u8, window: u16) -> Vec<(Bytes, u64)> {
    let client: SocketAddr = "10.9.0.1:40000".parse().unwrap();
    let server: SocketAddr = "93.184.216.34:80".parse().unwrap();
    let frame = |from_client: bool, seq: u32, ack: u32, flags: u8, payload: &[u8]| {
        let (src, dst) = if from_client {
            (client, server)
        } else {
            (server, client)
        };
        Bytes::from(build_tcp(&TcpSpec {
            src,
            dst,
            seq,
            ack,
            flags,
            window,
            ttl,
            payload,
        }))
    };
    let (ack, psh) = (TcpFlags::ACK, TcpFlags::ACK | TcpFlags::PSH);
    let frames = [
        frame(true, 1000, 0, TcpFlags::SYN, &[]),
        frame(false, 5000, 1001, TcpFlags::SYN | ack, &[]),
        frame(true, 1001, 5001, ack, &[]),
        frame(true, 1001, 5001, psh, b"GET / HTTP/1.1\r\nHost: a\r\n\r\n"),
        frame(false, 5001, 1028, psh, b"HTTP/1.1 204 No Content\r\n\r\n"),
        frame(true, 1028, 5028, TcpFlags::FIN | ack, &[]),
        frame(false, 5028, 1029, TcpFlags::FIN | ack, &[]),
        frame(true, 1029, 5029, ack, &[]),
    ];
    (1u64..)
        .zip(frames)
        .map(|(t, f)| (f, t * 1_000_000))
        .collect()
}

/// Eight ICMP echo requests of one ping: one connection.
fn echo_requests() -> Vec<(Bytes, u64)> {
    let (src, dst) = (
        "10.9.0.1".parse().unwrap(),
        "93.184.216.34".parse().unwrap(),
    );
    (1u16..=8)
        .map(|seq| {
            let frame = Bytes::from(build_icmpv4_echo(src, dst, 7, seq));
            (frame, u64::from(seq) * 1_000_000)
        })
        .collect()
}

/// A runtime configuration on one core that knows a connection-layer
/// protocol `ping` over ICMP whose prober is never sure: a `ping`
/// subscription's ICMP connections stay undecided.
fn ping_config() -> RuntimeConfig {
    struct Undecided;
    impl ConnParser for Undecided {
        fn name(&self) -> &'static str {
            "ping"
        }
        fn probe(&self, _: &[u8], _: Direction) -> ProbeResult {
            ProbeResult::Unsure
        }
        fn parse(&mut self, _: &[u8], _: Direction, _: &mut Vec<Session>) -> ParseResult {
            ParseResult::Continue
        }
        fn drain_sessions(&mut self, _: &mut Vec<Session>) {}
        fn reset(&mut self) -> usize {
            0
        }
        fn session_match_state(&self) -> SessionState {
            SessionState::KeepParsing
        }
    }
    let mut config = RuntimeConfig::with_cores(1);
    config.filter_registry.register(ProtocolDef {
        name: "ping",
        layer: FilterLayer::Connection,
        parents: vec!["icmp"],
        fields: Vec::new(),
    });
    config.parsers.register("ping", || Box::new(Undecided));
    config
}

/// Which driver runs a swap test.
#[derive(Debug, Clone, Copy)]
enum Driver {
    Stepped,
    Threaded,
}

/// Runs `rt` over `packets` on `driver`, swapping to `spec` once the RX
/// core has worked through the first three — while `frames` is still
/// undecided on their connection — and asserts that `frames` got each
/// frame exactly once: the first three through the promotion, the rest
/// off the packet filter.
fn assert_survivor_gets_every_frame(
    (mut rt, seen): (MultiRuntime<CompiledFilter>, Seen),
    packets: &[(Bytes, u64)],
    spec: &SwapSpec,
    driver: Driver,
) {
    const AT: usize = 3;
    let report = match driver {
        Driver::Stepped => {
            let cfg = StepConfig {
                rx_batch: 1,
                ..StepConfig::seeded(7)
            };
            rt.run_stepped_with_swap(packets, &cfg, AT as u64, spec)
                .expect("swap accepted")
        }
        Driver::Threaded => {
            let (controller, gauges) = (rt.swap_controller(), rt.gauges());
            let (source, gate) = GatedSource::new(packets.to_vec(), AT);
            let handle = std::thread::spawn(move || rt.run(source));
            gate.wait_parked();
            // Received is not enough: the swap must find the connection
            // the first frames opened, so wait until the core has worked
            // through them.
            let deadline = Instant::now() + Duration::from_secs(30);
            while gauges.sim_clock_ns() < packets[AT - 1].1 {
                assert!(
                    Instant::now() < deadline,
                    "the first frames never got through"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            controller.swap(spec).expect("swap succeeds mid-run");
            gate.open();
            handle.join().expect("run thread panicked")
        }
    };
    report.check_accounting().expect("accounting exact");
    for s in &report.subs {
        assert_eq!(
            s.delivered,
            s.cb_executed + s.cb_dropped_full + s.cb_dropped_disconnected,
            "{}: delivered != executed + dropped",
            s.name
        );
    }
    let mut got = seen.lock().unwrap().clone();
    let mut want: Vec<Vec<u8>> = packets.iter().map(|(f, _)| f[..].to_vec()).collect();
    got.sort();
    want.sort();
    assert_eq!(
        got, want,
        "{driver:?}: frames saw its connection's frames other than exactly once"
    );
    assert_eq!(sub(&report, "frames").delivered, packets.len() as u64);
}

#[test]
fn stepped_swap_under_worker_stall_stays_exact() {
    // Chaos variant of the stepped proof: a virtual worker held by a
    // callback stall overlapping the swap point must not break
    // quiescence or accounting, and the untouched subscription still
    // matches the no-swap run under the *same* fault plan.
    let packets = workload();
    let cfg = StepConfig::seeded(0xC4A05);
    let plan = FaultPlan::new(0xC4A05).with(Fault::CallbackStall {
        sub: 0,
        start_item: 10,
        items: 1,
        delay: Duration::from_nanos(600 * STEP_NS),
    });
    let hits = Arc::new(AtomicU64::new(0));
    let mut rt = {
        let c = Arc::clone(&hits);
        RuntimeBuilder::new(RuntimeConfig::with_cores(2))
            .subscribe_dispatched::<ConnRecord>(
                "conns",
                "ipv4 and tcp",
                DispatchMode::dedicated(4),
                move |_| {
                    c.fetch_add(1, Ordering::Relaxed);
                },
            )
            .subscribe_named::<ConnRecord>("tls443", "ipv4 and tcp.port = 443", |_| {})
            .build()
            .unwrap()
    };
    retina_chaos::install(rt.nic(), &plan);
    let report = rt
        .run_stepped_with_swap(
            &packets,
            &cfg,
            (packets.len() / 3) as u64,
            &swap_spec(&Arc::new(AtomicU64::new(0))),
        )
        .expect("swap accepted");
    report
        .check_accounting()
        .expect("accounting exact under stall");

    let control_hits = Arc::new(AtomicU64::new(0));
    let mut control = {
        let c = Arc::clone(&control_hits);
        RuntimeBuilder::new(RuntimeConfig::with_cores(2))
            .subscribe_dispatched::<ConnRecord>(
                "conns",
                "ipv4 and tcp",
                DispatchMode::dedicated(4),
                move |_| {
                    c.fetch_add(1, Ordering::Relaxed);
                },
            )
            .subscribe_named::<ConnRecord>("tls443", "ipv4 and tcp.port = 443", |_| {})
            .build()
            .unwrap()
    };
    retina_chaos::install(control.nic(), &plan);
    let control = control.run_stepped(&packets, &cfg);
    control.check_accounting().expect("control accounting");
    assert_eq!(
        report.sub_digest("conns").unwrap(),
        control.sub_digest("conns").unwrap(),
        "stalled survivor diverged from the no-swap run"
    );
}

/// A stepped swap during a `SwapStall` on core 1 of 2: core 1 is held
/// for 3 000 steps where its pickup of the new table comes due, while
/// core 0 runs on under it. The grace period waits for the stalled
/// core: after the hold, core 1 drains the removed (dispatched)
/// `tls443` through the old epoch's ring, which is still alive, and
/// nothing is lost. The accounting is exact, and the run replays bit
/// for bit from its seed.
#[test]
fn stepped_swap_waits_out_a_swap_stall() {
    use retina_core::TriggerReason;
    use retina_telemetry::{LaneKind, TraceEvent};

    const HELD: u64 = 3_000;
    let packets = workload();
    let plan = FaultPlan::new(0x5A11).with(Fault::SwapStall {
        core: 1,
        pickups: 1,
        delay: Duration::from_nanos(HELD * STEP_NS),
    });
    let run = || {
        let hits = Arc::new(AtomicU64::new(0));
        let mut rt = build_runtime_with(2, &hits, DispatchMode::dedicated(2));
        rt.set_trace_config(TraceConfig {
            sample_one_in: 1,
            ..TraceConfig::default()
        });
        retina_chaos::install(rt.nic(), &plan);
        let at = (packets.len() / 3) as u64;
        rt.run_stepped_with_swap(&packets, &StepConfig::seeded(0x5A11), at, &swap_spec(&hits))
            .expect("swap accepted")
    };
    let (a, b) = (run(), run());
    a.check_accounting().expect("accounting exact");
    let tls = sub(&a, "tls443");
    assert!(tls.delivered > 0);
    assert_eq!((tls.cb_dropped_full, tls.cb_dropped_disconnected), (0, 0));
    assert_eq!(tls.cb_executed, tls.delivered);

    // One injected delay: core 1's pickup, held from the step it came due.
    let trace = a.trace.as_ref().expect("traced");
    let flight = trace
        .flight
        .as_ref()
        .expect("the stall froze the flight recorder");
    let stalls: Vec<_> = (flight.triggers.iter())
        .filter(|t| t.reason == TriggerReason::ChaosFault)
        .collect();
    assert_eq!(stalls.len(), 1, "{:?}", flight.triggers);
    assert_eq!(stalls[0].detail, 1, "the stalled core");
    let held = stalls[0].tsc..stalls[0].tsc + HELD;
    let lane = |core| -> &Vec<TraceEvent> {
        let mut lanes = trace.session.lanes.iter();
        &lanes
            .find(|(l, _)| *l == LaneKind::Rx(core))
            .expect("RX lane")
            .1
    };
    assert!(
        lane(1).iter().all(|e| !held.contains(&e.tsc)),
        "the held core recorded nothing"
    );
    assert!(
        lane(0).iter().any(|e| held.contains(&e.tsc)),
        "core 0 ran on"
    );
    assert!(
        lane(1)
            .iter()
            .any(|e| { e.tsc >= held.end && e.kind == TraceKind::DispatchEnqueue && e.sub == 1 }),
        "after the hold core 1 sends tls443's drained results to the old ring"
    );

    assert_eq!(a.deterministic_digest(), b.deterministic_digest());
    assert_eq!(format!("{:?}", a.subs), format!("{:?}", b.subs));
    let b_flight = b.trace.as_ref().and_then(|t| t.flight.as_ref()).unwrap();
    assert_eq!(flight.to_bytes(), b_flight.to_bytes());
}

#[test]
fn threaded_swap_zero_loss_and_untouched_digest() {
    let packets = workload();
    let hits = Arc::new(AtomicU64::new(0));
    let (report, event) = threaded_swap_run(packets.clone(), &swap_spec(&hits), None, &hits);
    report
        .check_accounting()
        .expect("accounting exact across swap");
    assert!(report.zero_loss(), "swap must not drop a single frame");

    // Ledger entry describes exactly what changed, in order.
    assert_eq!(event.generation, 1);
    assert_eq!(event.added, vec!["udp-conns".to_string()]);
    assert_eq!(event.removed, vec!["tls443".to_string()]);
    assert!(event.staged_at >= event.requested_at);
    assert!(event.published_at >= event.staged_at);
    assert!(event.retired_at >= event.published_at);

    // Untouched subscription: byte-identical to a no-swap threaded run.
    let control_hits = Arc::new(AtomicU64::new(0));
    let mut control_rt = build_runtime(&control_hits);
    let control = control_rt.run(PreloadedSource::new(packets));
    control.check_accounting().expect("control accounting");
    assert_eq!(
        report.sub_digest("conns").unwrap(),
        control.sub_digest("conns").unwrap(),
        "surviving subscription diverged from the no-swap threaded run"
    );
    assert_eq!(
        hits.load(Ordering::Relaxed),
        control_hits.load(Ordering::Relaxed)
    );
    assert!(sub(&report, "udp-conns").delivered > 0, "added sub silent");
}

/// Regression: the runtime has one dispatch hub and its membership
/// follows the live table. A swap used to build a second hub for the new
/// epoch while `dispatch_hub()` — the governor's dispatch-occupancy input
/// and the monitor's queue-depth sample — kept the epoch-0 one, so a
/// subscription a swap added was never seen.
#[test]
fn dispatch_hub_follows_a_threaded_swap() {
    let hits = Arc::new(AtomicU64::new(0));
    let rt = build_runtime(&hits);
    let hub = rt.dispatch_hub();
    assert_eq!(hub.len(), 2);
    // Keep both running subscriptions and add a dispatched one.
    let spec = SwapSpec::new()
        .subscribe_named::<ConnRecord>("conns", "ipv4 and tcp", |_| {})
        .subscribe_named::<ConnRecord>("tls443", "ipv4 and tcp.port = 443", |_| {})
        .subscribe_dispatched::<ConnRecord>(
            "udp-conns",
            "udp",
            DispatchMode::dedicated(64),
            |_| {},
        );
    let (_, report, event) = threaded_swap_run_on(rt, workload(), &spec, None);
    report
        .check_accounting()
        .expect("accounting exact across swap");
    assert_eq!(event.added, vec!["udp-conns".to_string()]);

    assert_eq!(hub.len(), spec.names().len(), "hub kept the old table");
    let added = hub.snapshots()[2];
    assert_eq!(added.capacity, 2 * 64, "one 64-deep ring per RX core");
    assert!(added.executed > 0, "hub never saw the added subscription");
    assert_eq!(added.executed, sub(&report, "udp-conns").cb_executed);
}

#[test]
fn threaded_swap_under_chaos_keeps_accounting() {
    // The full tentpole proof: mempool pressure + a slow worker + a
    // stalled epoch pickup, all while the subscription set is swapped
    // under live (gated) traffic. Every frame and connection outcome
    // must still be attributed exactly.
    let packets = workload();
    let plan = FaultPlan {
        seed: 0xBAD5EED,
        faults: vec![
            Fault::WorkerSlowdown {
                core: 1,
                start_poll: 10,
                polls: 40,
                delay: Duration::from_micros(200),
            },
            Fault::SwapStall {
                core: 1,
                pickups: 4,
                delay: Duration::from_millis(20),
            },
        ],
    };
    let hits = Arc::new(AtomicU64::new(0));
    let (report, event) = threaded_swap_run(packets, &swap_spec(&hits), Some(&plan), &hits);
    report
        .check_accounting()
        .expect("accounting exact under chaos + swap");
    assert_eq!(event.generation, 1);
    // The stalled core still adopted the epoch (grace period completed).
    assert_eq!(event.pickup_lag_us.len(), 2);
}

#[test]
fn swap_stall_is_visible_in_pickup_lag() {
    // Satellite: Fault::SwapStall delays one core's epoch pickup; the
    // swap event's per-core lag must expose it, and the grace period
    // must outlast the slowest core.
    let packets = workload();
    let plan = FaultPlan {
        seed: 7,
        faults: vec![Fault::SwapStall {
            core: 1,
            pickups: 8,
            delay: Duration::from_millis(50),
        }],
    };
    let hits = Arc::new(AtomicU64::new(0));
    let (report, event) = threaded_swap_run(packets, &swap_spec(&hits), Some(&plan), &hits);
    report.check_accounting().expect("accounting exact");
    assert_eq!(event.pickup_lag_us.len(), 2);
    assert!(
        event.pickup_lag_us[1] >= 10_000,
        "stalled core's pickup lag ({}) must show the 50ms injected delay",
        event.pickup_lag_us[1]
    );
    assert!(
        event.pickup_lag_us[0] < event.pickup_lag_us[1],
        "unstalled core ({}) should adopt faster than the stalled one ({})",
        event.pickup_lag_us[0],
        event.pickup_lag_us[1]
    );
    // Retirement (grace end) cannot precede the slowest pickup.
    assert!(event.retired_at >= event.published_at + Duration::from_micros(event.pickup_lag_us[1]));
}

#[test]
fn swap_pickup_lag_gauge_reads_the_most_recent_swap() {
    // Two swaps on one parked run; only the first is stalled. The gauge
    // is the worst lag of the latest swap, not a maximum over the run.
    let plan = FaultPlan {
        seed: 7,
        faults: vec![Fault::SwapStall {
            core: 1,
            pickups: 1,
            delay: Duration::from_millis(50),
        }],
    };
    let hits = Arc::new(AtomicU64::new(0));
    let mut rt = build_runtime(&hits);
    let gauges = rt.gauges();
    let controller = rt.swap_controller();
    let nic = Arc::clone(rt.nic());
    retina_chaos::install(rt.nic(), &plan);
    let packets = workload();
    let mid = packets.len() / 2;
    let (source, gate) = GatedSource::new(packets, mid);
    let handle = std::thread::spawn(move || {
        let report = rt.run(ChaosSource::new(source, &plan));
        rt.nic().clear_fault_hooks();
        report
    });
    gate.wait_parked();
    assert!(nic.stats().rx_offered >= mid as u64, "first half ingested");
    let specs = [
        swap_spec(&hits),
        SwapSpec::new().subscribe_named::<ConnRecord>("conns", "ipv4 and tcp", |_| {}),
    ];
    let mut worst = Vec::new();
    for spec in &specs {
        let event = controller.swap(spec).expect("swap succeeds mid-run");
        let max = event.pickup_lag_us.iter().copied().max().unwrap();
        assert_eq!(
            gauges.swap_pickup_lag_us(),
            max,
            "after swap {}",
            event.generation
        );
        worst.push(max);
    }
    gate.open();
    let report = handle.join().expect("run thread panicked");
    report.check_accounting().expect("accounting exact");
    assert!(
        worst[0] >= 10_000,
        "the stalled swap shows its delay: {worst:?}"
    );
    assert!(
        worst[1] < worst[0],
        "the second swap was not stalled: {worst:?}"
    );
}

#[test]
fn swap_rejections_leave_the_run_untouched() {
    let packets = workload();
    let mid = packets.len() / 2;
    let hits = Arc::new(AtomicU64::new(0));
    let mut rt = build_runtime(&hits);
    let controller = rt.swap_controller();

    // Before the run starts there is nothing to reconfigure.
    assert!(matches!(
        controller.swap(&swap_spec(&Arc::new(AtomicU64::new(0)))),
        Err(SwapError::NotRunning)
    ));

    let nic = Arc::clone(rt.nic());
    let (source, gate) = GatedSource::new(packets.clone(), mid);
    let handle = std::thread::spawn(move || rt.run(source));
    gate.wait_parked();
    assert!(nic.stats().rx_offered >= mid as u64, "first half ingested");

    // A filter that fails analysis (E-code) rejects before staging.
    let bad_filter = SwapSpec::new().subscribe_named::<ConnRecord>("conns", "ipv4 and and", |_| {});
    assert!(matches!(
        controller.swap(&bad_filter),
        Err(SwapError::Filter(_))
    ));
    // Duplicate names are a spec error.
    let dup = SwapSpec::new()
        .subscribe_named::<ConnRecord>("x", "tcp", |_| {})
        .subscribe_named::<ConnRecord>("x", "udp", |_| {});
    assert!(matches!(controller.swap(&dup), Err(SwapError::Spec(_))));
    // An empty spec is a spec error.
    assert!(matches!(
        controller.swap(&SwapSpec::new()),
        Err(SwapError::Spec(_))
    ));
    assert_eq!(controller.generation(), 0, "failed swaps publish nothing");

    gate.open();
    let report = handle.join().unwrap();
    report.check_accounting().expect("accounting exact");
    assert!(report.zero_loss());

    // Stepped rejection surfaces identically, before any packet runs.
    let mut rt2 = build_runtime(&Arc::new(AtomicU64::new(0)));
    assert!(matches!(
        rt2.run_stepped_with_swap(&packets, &StepConfig::seeded(1), 0, &SwapSpec::new()),
        Err(SwapError::Spec(_))
    ));
    // A run's first table is held to the same rule: `subscribe` names
    // its first subscription `sub0`.
    let dup = RuntimeBuilder::new(RuntimeConfig::with_cores(1))
        .subscribe::<ConnRecord>("tcp", |_| {})
        .subscribe_named::<ConnRecord>("sub0", "udp", |_| {})
        .build();
    assert!(matches!(
        dup,
        Err(retina_core::RuntimeError::Subscriptions(_))
    ));
}

/// Regression: a run serves its own table's hardware rules, whatever an
/// earlier run swapped to. `run()` used to publish its first epoch from
/// the runtime's table without re-staging its rules, so after a threaded
/// swap to `conns` alone the NIC kept dropping the UDP that `udp-conns`
/// subscribes to. A stepped swap, with no device in front, never touches
/// the NIC.
#[test]
fn a_run_after_a_swap_serves_its_own_table() {
    let packets = workload();
    let build = || {
        RuntimeBuilder::new(RuntimeConfig::with_cores(1))
            .subscribe_named::<ConnRecord>("conns", "ipv4 and tcp", |_| {})
            .subscribe_named::<ConnRecord>("udp-conns", "udp", |_| {})
            .build()
            .unwrap()
    };
    let conns_only =
        || SwapSpec::new().subscribe_named::<ConnRecord>("conns", "ipv4 and tcp", |_| {});
    let mut fresh_rt = build();
    let rules = fresh_rt.nic().rules_snapshot();
    let fresh = fresh_rt.run(PreloadedSource::new(packets.clone()));
    assert!(sub(&fresh, "udp-conns").delivered > 0, "udp-conns silent");

    for threaded in [true, false] {
        let mut rt = build();
        let (mut rt, swapped) = if threaded {
            let (rt, report, event) =
                threaded_swap_run_on(rt, packets.clone(), &conns_only(), None);
            assert!(event.rules_removed > 0, "the swap removed no rule");
            (rt, report)
        } else {
            let mid = (packets.len() / 2) as u64;
            let report = rt
                .run_stepped_with_swap(&packets, &StepConfig::seeded(1), mid, &conns_only())
                .expect("swap accepted");
            (rt, report)
        };
        swapped.check_accounting().expect("accounting exact");
        // Port counters add up over a runtime's runs: compare this run's.
        let before = rt.nic().stats();
        let again = rt.run(PreloadedSource::new(packets.clone()));
        let how = if threaded { "threaded" } else { "stepped" };
        assert_eq!(rt.nic().rules_snapshot(), rules, "{how} swap: rules");
        assert_eq!(
            again.nic.hw_dropped - before.hw_dropped,
            fresh.nic.hw_dropped,
            "{how} swap: hardware drops"
        );
        assert_eq!(
            again.nic.rx_delivered - before.rx_delivered,
            again.cores.rx_packets,
            "{how} swap: the cores saw every delivered frame"
        );
        for name in ["conns", "udp-conns"] {
            assert_eq!(
                again.sub_digest(name),
                fresh.sub_digest(name),
                "{how} swap: {name}"
            );
        }
    }
}

/// No thread reaches a stepped run's epochs: the run keeps its own, so a
/// controller of its runtime — even one called from inside the run, by a
/// callback — finds nothing running, and the run is untouched.
#[test]
fn a_controller_cannot_reach_a_stepped_run() {
    let packets = workload();
    let controller: Arc<OnceLock<SwapController>> = Arc::default();
    let outcomes: Arc<Mutex<Vec<bool>>> = Arc::default();
    let mut rt = {
        let (controller, outcomes) = (Arc::clone(&controller), Arc::clone(&outcomes));
        RuntimeBuilder::new(RuntimeConfig::with_cores(2))
            .subscribe_named::<ConnRecord>("conns", "ipv4 and tcp", move |_| {
                let spec = SwapSpec::new().subscribe_named::<ConnRecord>("udp", "udp", |_| {});
                let swap = controller.get().expect("set before the run").swap(&spec);
                let refused = matches!(swap, Err(SwapError::NotRunning));
                outcomes.lock().unwrap().push(refused);
            })
            .build()
            .unwrap()
    };
    assert!(controller.set(rt.swap_controller()).is_ok());
    let report = rt.run_stepped(&packets, &StepConfig::seeded(4));
    report.check_accounting().expect("accounting exact");
    let outcomes = outcomes.lock().unwrap();
    assert_eq!(outcomes.len() as u64, sub(&report, "conns").delivered);
    assert!(!outcomes.is_empty() && outcomes.iter().all(|&refused| refused));
    assert_eq!(controller.get().unwrap().generation(), 0);
    assert_eq!(report.subs.len(), 1, "the run kept its table");
}
