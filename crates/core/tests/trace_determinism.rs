//! Acceptance tests for per-flow causal tracing: the canonical span
//! tree of a sampled flow must be *byte-identical* between the
//! threaded runtime ([`MultiRuntime::run`]) and the virtual-time
//! stepped executor ([`MultiRuntime::run_stepped`]) for the same
//! workload and trace seed — across dispatch-mode mixes and seeded
//! worker schedules — and a chaos-triggered flight-recorder dump must
//! replay bit-for-bit across same-seed stepped runs.
//!
//! Byte-identity holds because the canonical rendering excludes
//! everything schedule-dependent (timestamps, lane ids, ring
//! occupancy, RSS queue choice) while keeping everything
//! deterministic (filter verdict bitsets, frontier node ids, conn
//! lifecycle reasons, ingest sequence numbers, subscription ids). A
//! tracer attached but disabled must record nothing at all.
//! The workload pins the remaining sources of divergence: one RX
//! core, `hw_filtering = false` (no rules → both modes see the same
//! RSS verdict), paced ingest (no load-dependent drops), lossless
//! Block dispatch, and FIN-terminated conns (no timeout races).

// Narrowing casts in this file are intentional: test harnesses narrow
// loop counters to compact header fields by design.
#![allow(clippy::cast_possible_truncation)]

use std::net::SocketAddr;

use retina_core::runtime::TrafficSource;
use retina_core::subscribables::ConnRecord;
use retina_core::telemetry::json;
use retina_core::{
    DispatchMode, MultiRuntime, RuntimeBuilder, RuntimeConfig, StepConfig, TraceConfig,
    TriggerReason, STEP_NS,
};
use retina_filter::CompiledFilter;
use retina_support::bytes::Bytes;
use retina_support::proptest::prelude::*;
use retina_wire::build::{build_tcp, TcpSpec};
use retina_wire::TcpFlags;

/// The 4-subscription union under test: three tiers that match the
/// all-TCP workload plus `udp`, which matches nothing (the
/// empty-delivery path must also trace identically — i.e. not at all).
const FILTERS: [&str; 4] = ["tcp", "ipv4 and tcp", "tcp.port = 443", "udp"];

fn frame(src: SocketAddr, dst: SocketAddr, seq: u32, ack: u32, flags: u8, payload: &[u8]) -> Bytes {
    Bytes::from(build_tcp(&TcpSpec {
        src,
        dst,
        seq,
        ack,
        flags,
        window: 65535,
        ttl: 64,
        payload,
    }))
}

/// One graceful TCP conversation: handshake, one payload exchange,
/// FIN teardown. Every frame is a fixed function of the endpoints, so
/// both execution modes ingest byte-identical packets.
fn conversation(client: SocketAddr, server: SocketAddr, start_ts: u64) -> Vec<(Bytes, u64)> {
    let (mut cseq, mut sseq) = (1000u32, 5000u32);
    let mut ts = start_ts;
    let mut out = Vec::new();
    let mut push = |f: Bytes| {
        ts += 1_000_000; // 1 ms apart
        out.push((f, ts));
    };
    push(frame(client, server, cseq, 0, TcpFlags::SYN, &[]));
    cseq += 1;
    push(frame(
        server,
        client,
        sseq,
        cseq,
        TcpFlags::SYN | TcpFlags::ACK,
        &[],
    ));
    sseq += 1;
    push(frame(client, server, cseq, sseq, TcpFlags::ACK, &[]));
    let up = [0xAA; 64];
    push(frame(
        client,
        server,
        cseq,
        sseq,
        TcpFlags::ACK | TcpFlags::PSH,
        &up,
    ));
    cseq += up.len() as u32;
    let down = [0xBB; 128];
    push(frame(
        server,
        client,
        sseq,
        cseq,
        TcpFlags::ACK | TcpFlags::PSH,
        &down,
    ));
    sseq += down.len() as u32;
    push(frame(
        client,
        server,
        cseq,
        sseq,
        TcpFlags::FIN | TcpFlags::ACK,
        &[],
    ));
    push(frame(
        server,
        client,
        sseq,
        cseq + 1,
        TcpFlags::FIN | TcpFlags::ACK,
        &[],
    ));
    push(frame(
        client,
        server,
        cseq + 1,
        sseq + 1,
        TcpFlags::ACK,
        &[],
    ));
    out
}

/// `conns` conversations to distinct client endpoints, concatenated in
/// a fixed order — the shared ingest order of both execution modes.
fn workload(conns: usize) -> Vec<(Bytes, u64)> {
    let server: SocketAddr = "198.51.100.1:443".parse().unwrap();
    let mut all = Vec::new();
    for c in 0..conns {
        let client: SocketAddr = format!(
            "10.2.{}.{}:{}",
            c / 200,
            (c % 200) + 1,
            u16::try_from(40_000 + c).unwrap()
        )
        .parse()
        .unwrap();
        all.extend(conversation(client, server, c as u64 * 10_000_000));
    }
    all
}

/// Feeds every frame in one batch, preserving order: the single
/// ingest thread then assigns the same `rx_offered` sequence numbers
/// the stepped run derives from packet indices.
struct Seq(Vec<(Bytes, u64)>);

impl TrafficSource for Seq {
    fn next_batch(&mut self, out: &mut Vec<(Bytes, u64)>) -> bool {
        if self.0.is_empty() {
            return false;
        }
        out.append(&mut self.0);
        true
    }
}

fn build_runtime(mix: &[DispatchMode], trace: TraceConfig) -> MultiRuntime<CompiledFilter> {
    // No hardware rules: both modes must see the same RSS verdict for
    // every packet (a stepped run has no rule engine in front of it).
    let config = RuntimeConfig {
        hw_filtering: false,
        ..RuntimeConfig::default()
    };
    let mut b = RuntimeBuilder::new(config);
    for (i, mode) in mix.iter().enumerate() {
        b = b.subscribe_dispatched::<ConnRecord>(format!("s{i}"), FILTERS[i], *mode, |_c| {});
    }
    b.trace(trace).build().expect("union builds")
}

fn trace_config(seed: u64) -> TraceConfig {
    TraceConfig {
        // Sample every flow: the strongest identity check.
        sample_one_in: 1,
        seed,
        ..TraceConfig::default()
    }
}

fn mode_from(kind: u8, depth: usize) -> DispatchMode {
    if kind == 0 {
        DispatchMode::shared(depth)
    } else {
        DispatchMode::dedicated(depth)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A sampled flow through the 4-subscription dispatched union
    /// yields the same span tree — byte for byte — whether the
    /// pipeline ran on real threads or under a seeded virtual-time
    /// schedule, for every dispatch-mode mix and schedule shape.
    #[test]
    fn span_trees_identical_across_run_and_run_stepped(
        sched_seed in any::<u64>(),
        trace_seed in any::<u64>(),
        conns in 1usize..5,
        rx_batch in 1usize..5,
        worker_batch in 1usize..5,
        kinds in collection::vec((0u8..2, prop_oneof![Just(2usize), Just(8)]), 4),
    ) {
        let packets = workload(conns);
        let mix: Vec<DispatchMode> = kinds
            .iter()
            .map(|&(kind, depth)| mode_from(kind, depth))
            .collect();

        let mut threaded_rt = build_runtime(&mix, trace_config(trace_seed));
        let threaded = threaded_rt.run(Seq(packets.clone()));
        threaded.check_accounting().expect("threaded accounting");

        let mut stepped_rt = build_runtime(&mix, trace_config(trace_seed));
        let cfg = StepConfig {
            seed: sched_seed,
            rx_batch,
            worker_batch,
        };
        let stepped = stepped_rt.run_stepped(&packets, &cfg);
        stepped.check_accounting().expect("stepped accounting");

        let t = threaded.trace.as_ref().expect("threaded trace report");
        let s = stepped.trace.as_ref().expect("stepped trace report");
        prop_assert_eq!(t.session.dropped_events, 0, "threaded trace buffers overflowed");
        prop_assert_eq!(s.session.dropped_events, 0, "stepped trace buffers overflowed");

        let ids = t.session.trace_ids();
        prop_assert!(!ids.is_empty(), "every flow is sampled at 1-in-1");
        prop_assert_eq!(&ids, &s.session.trace_ids(), "sampled populations diverged");
        for id in &ids {
            let a = t.session.flow(*id).expect("threaded flow");
            let b = s.session.flow(*id).expect("stepped flow");
            prop_assert_eq!(
                String::from_utf8(a.canonical_bytes()).unwrap(),
                String::from_utf8(b.canonical_bytes()).unwrap(),
                "span tree diverged for flow {:016x}",
                id
            );
        }
    }
}

/// Holds subscription 0's worker for 64 steps before its first item:
/// `retina-chaos`'s `Fault::CallbackStall { sub: 0, start_item: 0,
/// items: 1, delay: 64 × STEP_NS }`, as this crate's own `FaultHooks`
/// (retina-chaos depends on retina-core).
struct FirstItemStall;

impl retina_nic::FaultHooks for FirstItemStall {
    fn callback_delay(&self, sub: u16, seq: u64) -> Option<std::time::Duration> {
        (sub == 0 && seq == 0).then(|| std::time::Duration::from_nanos(64 * STEP_NS))
    }
}

/// A chaos callback stall under the stepped executor freezes the
/// flight recorder, and the dump replays bit-for-bit across two runs
/// of the same seed: same triggers, same rings, same bytes.
#[test]
fn chaos_stall_flight_dump_replays_bit_for_bit() {
    let packets = workload(6);
    let mix = [
        DispatchMode::dedicated(2),
        DispatchMode::dedicated(2),
        DispatchMode::shared(2),
        DispatchMode::shared(2),
    ];
    let cfg = StepConfig::seeded(11);
    let run = || {
        let mut rt = build_runtime(&mix, trace_config(3));
        rt.nic()
            .set_fault_hooks(std::sync::Arc::new(FirstItemStall));
        rt.run_stepped(&packets, &cfg)
    };
    let r1 = run();
    let r2 = run();
    let f1 = r1
        .trace
        .expect("trace report")
        .flight
        .expect("the stall's first activation froze the flight recorder");
    let f2 = r2.trace.expect("trace report").flight.expect("flight dump");
    assert!(
        f1.triggers
            .iter()
            .any(|t| t.reason == TriggerReason::ChaosFault),
        "triggers: {:?}",
        f1.triggers
    );
    assert!(f1.event_count() > 0, "flight rings captured events");
    assert_eq!(
        f1.to_bytes(),
        f2.to_bytes(),
        "flight dump must replay exactly"
    );
}

/// The sampled span tree is structurally complete end to end: ingest
/// events, pipeline verdicts, per-subscription worker segments with
/// paired dispatch and callback spans, and a renderable text form.
#[test]
fn span_tree_covers_every_stage() {
    let packets = workload(2);
    let mix = [
        DispatchMode::dedicated(8),
        DispatchMode::dedicated(8),
        DispatchMode::shared(8),
        DispatchMode::shared(8),
    ];
    let mut stepped_rt = build_runtime(&mix, trace_config(0));
    let report = stepped_rt.run_stepped(&packets, &StepConfig::seeded(5));
    let session = report.trace.expect("trace report").session;
    let flows = session.assemble();
    assert_eq!(flows.len(), 2, "both conns sampled at 1-in-1");
    for flow in &flows {
        assert!(!flow.ingest.is_empty(), "NIC-side events present");
        assert!(!flow.pipeline.is_empty(), "RX-core events present");
        // Subs 0..3 match TCP traffic and are all dispatched; sub 3
        // (udp) must not appear.
        let subs: Vec<u16> = flow.workers.iter().map(|(s, _)| *s).collect();
        assert_eq!(
            subs,
            vec![0, 1, 2],
            "exactly the matching subs have worker spans"
        );
        let text = flow.canonical_text();
        assert!(text.contains("rx seq="), "{text}");
        assert!(text.contains("packet-verdict"), "{text}");
        assert!(text.contains("conn-insert"), "{text}");
        assert!(text.contains("conn-expire"), "{text}");
        assert!(text.contains("dispatch-enqueue"), "{text}");
        assert!(text.contains("dispatch-dequeue"), "{text}");
        assert!(text.contains("callback-start"), "{text}");
        // Latency attribution pairs every enqueue with a dequeue.
        for (_, waits, execs) in flow.dispatch_latencies() {
            assert!(!waits.is_empty());
            assert_eq!(waits.len(), execs.len());
        }
        assert!(!flow.render_text().is_empty());
        assert!(
            json::parse(&flow.to_json()).is_ok(),
            "span-tree JSON parses"
        );
    }
}

/// A tracer attached with `enabled: false` to a threaded run records
/// nothing — no lane event, no dropped event, no flight dump — even at
/// 1-in-1 sampling, and the run stays lossless with exact accounting.
#[test]
fn disabled_tracer_records_nothing_on_a_threaded_run() {
    let mix = [
        DispatchMode::dedicated(8),
        DispatchMode::shared(8),
        DispatchMode::Inline,
        DispatchMode::Inline,
    ];
    let trace = TraceConfig {
        enabled: false,
        ..trace_config(0)
    };
    let mut rt = build_runtime(&mix, trace);
    let report = rt.run(Seq(workload(4)));
    report.check_accounting().expect("accounting exact");
    assert!(report.zero_loss());
    assert!(report.subs[0].delivered > 0, "the run delivered");
    let trace = report.trace.expect("an attached tracer reports a session");
    assert!(
        trace
            .session
            .lanes
            .iter()
            .all(|(_, events)| events.is_empty()),
        "a disabled tracer recorded events"
    );
    assert_eq!(trace.session.dropped_events, 0);
    assert!(
        trace.flight.is_none(),
        "a disabled tracer froze a flight dump"
    );
}
