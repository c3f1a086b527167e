//! The virtual multi-queue port.
//!
//! [`VirtualNic`] ties the flow-rule engine, RSS hasher, and redirection
//! table together into a device with bounded per-queue descriptor rings.
//! A traffic source calls [`VirtualNic::ingest`]; worker cores poll their
//! queue with [`VirtualNic::rx_burst`]. When a ring overflows or the
//! mempool is exhausted the packet is lost and counted, which is exactly
//! the signal the paper's zero-loss throughput methodology keys off.

// Narrowing casts in this file are intentional: tick, index, and counter arithmetic narrows to compact fields by design.
#![allow(clippy::cast_possible_truncation)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use retina_support::bytes::Bytes;
use retina_support::sync::ArrayQueue;
use retina_support::sync::RwLock;
use retina_telemetry::{
    trace::{TraceDropCode, TraceHwAction},
    DropBreakdown, DropReason, TraceKind, Tracer, TriggerReason,
};
use retina_wire::ParsedPacket;

use crate::faults::FaultHooks;
use crate::flow::{DeviceCaps, FlowAction, FlowRule, FlowRuleEngine};
use crate::mbuf::{Mbuf, Mempool};
use crate::reta::{RedirectionTable, SINK_QUEUE};
use crate::rss::RssHasher;

/// Device configuration.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Number of RX queues (one per worker core).
    pub num_queues: u16,
    /// Descriptors per RX ring.
    pub ring_capacity: usize,
    /// Mempool capacity in buffers.
    pub mempool_capacity: usize,
    /// Redirection table size.
    pub reta_size: usize,
    /// Flow-engine capability profile.
    pub caps: DeviceCaps,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            num_queues: 1,
            ring_capacity: 4096,
            mempool_capacity: 1 << 20,
            reta_size: RedirectionTable::DEFAULT_SIZE,
            caps: DeviceCaps::connectx5(),
        }
    }
}

/// Port statistics, all monotonically increasing.
#[derive(Debug, Default)]
pub struct PortStats {
    /// Frames offered to the port.
    pub rx_offered: AtomicU64,
    /// Frames delivered into an RX ring.
    pub rx_delivered: AtomicU64,
    /// Bytes delivered into RX rings.
    pub rx_bytes: AtomicU64,
    /// Frames dropped by hardware flow rules (intentional).
    pub hw_dropped: AtomicU64,
    /// Frames sampled out via sink RETA entries (intentional, §6.1).
    pub sunk: AtomicU64,
    /// Frames lost to full descriptor rings (packet loss).
    pub rx_missed: AtomicU64,
    /// Frames lost to mempool exhaustion (packet loss).
    pub rx_nombuf: AtomicU64,
}

/// A point-in-time copy of [`PortStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PortStatsSnapshot {
    /// Frames offered to the port.
    pub rx_offered: u64,
    /// Frames delivered into an RX ring.
    pub rx_delivered: u64,
    /// Bytes delivered into RX rings.
    pub rx_bytes: u64,
    /// Frames dropped by hardware flow rules.
    pub hw_dropped: u64,
    /// Frames sampled out via sink RETA entries.
    pub sunk: u64,
    /// Frames lost to full descriptor rings.
    pub rx_missed: u64,
    /// Frames lost to mempool exhaustion.
    pub rx_nombuf: u64,
}

impl PortStatsSnapshot {
    /// Total *unintentional* loss — the quantity that must be zero for a
    /// measurement to count as "zero packet loss".
    pub fn lost(&self) -> u64 {
        self.rx_missed + self.rx_nombuf
    }

    /// The port's packet-subject drop taxonomy: hardware-rule drops,
    /// ring overflow, and mempool exhaustion, attributed exclusively.
    /// (Sink sampling is a measurement choice, not a drop, so `sunk`
    /// stays out of the breakdown.)
    pub fn drop_breakdown(&self) -> DropBreakdown {
        let mut drops = DropBreakdown::new();
        drops.add(DropReason::HwRule, self.hw_dropped);
        drops.add(DropReason::RingOverflow, self.rx_missed);
        drops.add(DropReason::MempoolExhausted, self.rx_nombuf);
        drops
    }

    /// Checks that every offered frame is attributed to exactly one
    /// outcome: delivered, sunk, or one of the drop reasons.
    pub fn fully_attributed(&self) -> bool {
        self.rx_offered == self.rx_delivered + self.sunk + self.drop_breakdown().packet_total()
    }
}

/// Outcome of ingesting one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// Delivered to the given RX queue.
    Delivered(u16),
    /// Dropped by a hardware flow rule.
    HwDropped,
    /// Mapped to a sink RETA entry and discarded.
    Sunk,
    /// Lost: the target ring was full.
    Missed,
    /// Lost: the mempool was exhausted.
    NoMbuf,
}

/// The virtual 100GbE port.
pub struct VirtualNic {
    queues: Vec<ArrayQueue<Mbuf>>,
    reta: RwLock<RedirectionTable>,
    hasher: RssHasher,
    engine: RwLock<FlowRuleEngine>,
    mempool: Mempool,
    stats: PortStats,
    /// Installed fault-injection layer (`None` in normal operation).
    faults: RwLock<Option<Arc<dyn FaultHooks>>>,
    /// Attached tracer recording per-frame ingest tracepoints on the
    /// ingest lane (`None` in normal operation).
    tracer: RwLock<Option<Arc<Tracer>>>,
}

impl VirtualNic {
    /// Creates a port with the given configuration.
    pub fn new(cfg: &DeviceConfig) -> Self {
        let queues = (0..cfg.num_queues)
            .map(|_| ArrayQueue::new(cfg.ring_capacity))
            .collect();
        VirtualNic {
            queues,
            reta: RwLock::new(RedirectionTable::new(cfg.reta_size, cfg.num_queues)),
            hasher: RssHasher::symmetric(),
            engine: RwLock::new(FlowRuleEngine::new(cfg.caps)),
            mempool: Mempool::new(cfg.mempool_capacity),
            stats: PortStats::default(),
            faults: RwLock::new(None),
            tracer: RwLock::new(None),
        }
    }

    /// Installs a fault-injection layer (see [`crate::faults`]); the
    /// device consults it on every ingest and poll until cleared.
    pub fn set_fault_hooks(&self, hooks: Arc<dyn FaultHooks>) {
        *self.faults.write() = Some(hooks);
    }

    /// Removes the fault-injection layer, restoring clean operation.
    pub fn clear_fault_hooks(&self) {
        *self.faults.write() = None;
    }

    /// Attaches a tracer: every subsequent ingest records its outcome
    /// (rx + hardware verdict for sampled flows; drops for all flows)
    /// on the tracer's ingest lane.
    pub fn set_tracer(&self, tracer: Arc<Tracer>) {
        *self.tracer.write() = Some(tracer);
    }

    /// Detaches the tracer, restoring untraced ingest.
    pub fn clear_tracer(&self) {
        *self.tracer.write() = None;
    }

    /// The delay `hook` reads off the installed fault layer, if any. An
    /// injected delay fires the attached tracer's
    /// [`TriggerReason::ChaosFault`], `detail` naming the faulted core or
    /// subscription, whichever driver then waits it out.
    fn injected(
        &self,
        detail: u16,
        hook: impl FnOnce(&dyn FaultHooks) -> Option<std::time::Duration>,
    ) -> Option<std::time::Duration> {
        let delay = hook(self.faults.read().as_deref()?)?;
        if let Some(t) = self.tracer.read().as_ref() {
            t.trigger(TriggerReason::ChaosFault, u64::from(detail));
        }
        Some(delay)
    }

    /// Extra worker-core latency the installed fault layer wants to
    /// inject for `core` right now (`None` when unfaulted).
    pub fn fault_worker_delay(&self, core: u16) -> Option<std::time::Duration> {
        self.injected(core, |hooks| hooks.worker_delay(core))
    }

    /// Extra latency the installed fault layer wants to inject before
    /// subscription `sub`'s `seq`-th dispatched callback (`None` when
    /// unfaulted).
    pub fn fault_callback_delay(&self, sub: u16, seq: u64) -> Option<std::time::Duration> {
        self.injected(sub, |hooks| hooks.callback_delay(sub, seq))
    }

    /// Extra latency the installed fault layer wants to inject before
    /// worker core `core` picks up a newly published configuration
    /// epoch (`None` when unfaulted).
    pub fn fault_swap_pickup_delay(&self, core: u16) -> Option<std::time::Duration> {
        self.injected(core, |hooks| hooks.swap_pickup_delay(core))
    }

    /// Frames currently held in flight by the fault layer (0 when
    /// unfaulted). The runtime's final drain waits for this to reach
    /// zero so injected delay lines cannot strand frames.
    pub fn faults_in_flight(&self) -> usize {
        self.faults
            .read()
            .as_ref()
            .map_or(0, |hooks| hooks.in_flight())
    }

    /// Number of RX queues.
    pub fn num_queues(&self) -> u16 {
        self.queues.len() as u16
    }

    /// The device's mempool (for memory monitoring).
    pub fn mempool(&self) -> &Mempool {
        &self.mempool
    }

    /// Installs a hardware flow rule.
    pub fn install_rule(&self, rule: FlowRule) -> Result<(), crate::flow::FlowError> {
        self.engine.write().install(rule)
    }

    /// Snapshot of the installed rule table, in match order. A live
    /// reconfiguration diffs this against the new union to compute the
    /// minimal add/remove set.
    pub fn rules_snapshot(&self) -> Vec<FlowRule> {
        self.engine.read().rules().to_vec()
    }

    /// Applies a reconfiguration rule diff under one engine write lock:
    /// every add installs (validated against device caps) and every
    /// remove unlinks before any reader sees the table again. Atomicity
    /// matters at the empty/non-empty boundary — an empty table means
    /// "deliver everything via RSS", so installing the first add before
    /// removing stale rules (rather than the reverse) can only ever
    /// widen what the hardware delivers, never narrow it mid-swap.
    pub fn apply_rule_diff(
        &self,
        adds: Vec<FlowRule>,
        removes: &[FlowRule],
    ) -> Result<(), crate::flow::FlowError> {
        self.engine.write().apply_diff(adds, removes)
    }

    /// Remaps a fraction of RETA entries to the sink (§6.1 rate control).
    pub fn set_sink_fraction(&self, fraction: f64) {
        self.reta.write().set_sink_fraction(fraction);
    }

    /// Fraction of RETA entries currently mapped to the sink queue.
    pub fn sink_fraction(&self) -> f64 {
        self.reta.read().sink_fraction()
    }

    /// Descriptors currently waiting in `queue`'s RX ring.
    pub fn ring_depth(&self, queue: u16) -> usize {
        self.queues[queue as usize].len()
    }

    /// Per-ring descriptor capacity.
    pub fn ring_capacity(&self) -> usize {
        self.queues
            .first()
            .map_or(0, retina_support::sync::ArrayQueue::capacity)
    }

    /// The deepest RX ring's occupancy as a fraction of its capacity —
    /// the per-queue backpressure signal a governor keys off.
    pub fn max_ring_occupancy(&self) -> f64 {
        let cap = self.ring_capacity();
        if cap == 0 {
            return 0.0;
        }
        let deepest = self
            .queues
            .iter()
            .map(retina_support::sync::ArrayQueue::len)
            .max()
            .unwrap_or(0);
        deepest as f64 / cap as f64
    }

    /// Offers one frame to the port at the given timestamp.
    pub fn ingest(&self, frame: Bytes, timestamp_ns: u64) -> IngestOutcome {
        self.ingest_inner(frame, timestamp_ns, false)
    }

    /// Like [`VirtualNic::ingest`], but blocks (spins) instead of dropping
    /// when a descriptor ring is full or the mempool is exhausted —
    /// applying backpressure to the source. Never returns
    /// [`IngestOutcome::Missed`] or [`IngestOutcome::NoMbuf`].
    pub fn ingest_paced(&self, frame: Bytes, timestamp_ns: u64) -> IngestOutcome {
        self.ingest_inner(frame, timestamp_ns, true)
    }

    fn ingest_inner(&self, frame: Bytes, timestamp_ns: u64, paced: bool) -> IngestOutcome {
        let seq = self.stats.rx_offered.fetch_add(1, Ordering::Relaxed);
        let tracer = self.tracer.read();
        // Injected mempool-squeeze windows are keyed on the ingress
        // sequence number, so they hit the same frames on every run.
        // They drop even under paced ingest: a seq-keyed squeeze never
        // clears for this frame, so spinning would deadlock the source.
        if let Some(hooks) = self.faults.read().as_ref() {
            if hooks.mempool_squeezed(seq) {
                self.stats.rx_nombuf.fetch_add(1, Ordering::Relaxed);
                if let Some(t) = tracer.as_ref() {
                    // The frame was never parsed, so the flow is unknown:
                    // the drop lands in the flight recorder only.
                    t.emit(
                        t.ingest_lane(),
                        0,
                        TraceKind::Drop,
                        0,
                        TraceDropCode::NoMbuf as u64,
                        seq,
                    );
                }
                return IngestOutcome::NoMbuf;
            }
        }
        let parsed = ParsedPacket::parse(&frame);
        let (action, hash) = match &parsed {
            Ok(pkt) => (self.engine.read().apply(pkt), self.hasher.hash_packet(pkt)),
            Err(_) => (self.engine.read().apply_unparsed(), 0),
        };
        // The sampling decision reuses the RSS hash computed above:
        // one splitmix finalizer per frame, nothing re-parsed.
        let tid = match (tracer.as_ref(), &parsed) {
            (Some(t), Ok(_)) => t.sample_flow(hash),
            _ => 0,
        };
        if tid != 0 {
            if let Some(t) = tracer.as_ref() {
                t.emit(
                    t.ingest_lane(),
                    tid,
                    TraceKind::Rx,
                    0,
                    frame.len() as u64,
                    seq,
                );
            }
        }
        let queue = match action {
            FlowAction::Drop => {
                self.stats.hw_dropped.fetch_add(1, Ordering::Relaxed);
                if tid != 0 {
                    if let Some(t) = tracer.as_ref() {
                        t.emit(
                            t.ingest_lane(),
                            tid,
                            TraceKind::HwVerdict,
                            0,
                            TraceHwAction::Drop as u64,
                            0,
                        );
                    }
                }
                return IngestOutcome::HwDropped;
            }
            FlowAction::Queue(q) => q.min(self.num_queues() - 1),
            FlowAction::Rss => {
                let q = self.reta.read().lookup(hash);
                if q == SINK_QUEUE {
                    self.stats.sunk.fetch_add(1, Ordering::Relaxed);
                    if tid != 0 {
                        if let Some(t) = tracer.as_ref() {
                            t.emit(
                                t.ingest_lane(),
                                tid,
                                TraceKind::HwVerdict,
                                0,
                                TraceHwAction::Sunk as u64,
                                0,
                            );
                        }
                    }
                    return IngestOutcome::Sunk;
                }
                q
            }
        };
        if tid != 0 {
            if let Some(t) = tracer.as_ref() {
                let act = match action {
                    FlowAction::Queue(_) => TraceHwAction::Queue,
                    _ => TraceHwAction::Rss,
                };
                t.emit(
                    t.ingest_lane(),
                    tid,
                    TraceKind::HwVerdict,
                    0,
                    act as u64,
                    u64::from(queue),
                );
            }
        }
        while self.mempool.exhausted() {
            if !paced {
                self.stats.rx_nombuf.fetch_add(1, Ordering::Relaxed);
                if let Some(t) = tracer.as_ref() {
                    t.emit(
                        t.ingest_lane(),
                        tid,
                        TraceKind::Drop,
                        0,
                        TraceDropCode::NoMbuf as u64,
                        seq,
                    );
                }
                return IngestOutcome::NoMbuf;
            }
            std::thread::yield_now();
        }
        let len = frame.len() as u64;
        let mut mbuf = Mbuf::from_bytes_in(frame, &self.mempool);
        mbuf.timestamp_ns = timestamp_ns;
        mbuf.rss_hash = hash;
        loop {
            match self.queues[queue as usize].push(mbuf) {
                Ok(()) => {
                    self.stats.rx_delivered.fetch_add(1, Ordering::Relaxed);
                    self.stats.rx_bytes.fetch_add(len, Ordering::Relaxed);
                    return IngestOutcome::Delivered(queue);
                }
                Err(rejected) => {
                    if !paced {
                        self.stats.rx_missed.fetch_add(1, Ordering::Relaxed);
                        if let Some(t) = tracer.as_ref() {
                            t.emit(
                                t.ingest_lane(),
                                tid,
                                TraceKind::Drop,
                                0,
                                TraceDropCode::RxMissed as u64,
                                seq,
                            );
                        }
                        return IngestOutcome::Missed;
                    }
                    mbuf = rejected;
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Polls up to `max` packets from `queue` into `out`. Returns the
    /// number of packets received.
    pub fn rx_burst(&self, queue: u16, out: &mut Vec<Mbuf>, max: usize) -> usize {
        // A stalled queue delivers nothing this poll; its descriptors
        // stay put (a stall delays frames, it never drops them).
        if let Some(hooks) = self.faults.read().as_ref() {
            if hooks.ring_stalled(queue) {
                return 0;
            }
        }
        let ring = &self.queues[queue as usize];
        let mut n = 0;
        while n < max {
            match ring.pop() {
                Some(mbuf) => {
                    out.push(mbuf);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// Snapshot of the port counters.
    pub fn stats(&self) -> PortStatsSnapshot {
        PortStatsSnapshot {
            rx_offered: self.stats.rx_offered.load(Ordering::Relaxed),
            rx_delivered: self.stats.rx_delivered.load(Ordering::Relaxed),
            rx_bytes: self.stats.rx_bytes.load(Ordering::Relaxed),
            hw_dropped: self.stats.hw_dropped.load(Ordering::Relaxed),
            sunk: self.stats.sunk.load(Ordering::Relaxed),
            rx_missed: self.stats.rx_missed.load(Ordering::Relaxed),
            rx_nombuf: self.stats.rx_nombuf.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::RuleItem;
    use retina_wire::build::{build_tcp, build_udp, TcpSpec, UdpSpec};
    use retina_wire::TcpFlags;

    fn tcp_frame(src: &str, dst: &str) -> Bytes {
        Bytes::from(build_tcp(&TcpSpec {
            src: src.parse().unwrap(),
            dst: dst.parse().unwrap(),
            seq: 1,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 64,
            ttl: 64,
            payload: b"",
        }))
    }

    fn udp_frame(src: &str, dst: &str) -> Bytes {
        Bytes::from(build_udp(&UdpSpec {
            src: src.parse().unwrap(),
            dst: dst.parse().unwrap(),
            ttl: 64,
            payload: b"x",
        }))
    }

    #[test]
    fn delivery_and_burst() {
        let nic = VirtualNic::new(&DeviceConfig {
            num_queues: 2,
            ..Default::default()
        });
        let outcome = nic.ingest(tcp_frame("10.0.0.1:1000", "10.0.0.2:443"), 42);
        let IngestOutcome::Delivered(q) = outcome else {
            panic!("not delivered: {outcome:?}");
        };
        let mut out = Vec::new();
        assert_eq!(nic.rx_burst(q, &mut out, 32), 1);
        assert_eq!(out[0].timestamp_ns, 42);
        let stats = nic.stats();
        assert_eq!(stats.rx_delivered, 1);
        assert_eq!(stats.lost(), 0);
    }

    #[test]
    fn flow_consistency_across_directions() {
        let nic = VirtualNic::new(&DeviceConfig {
            num_queues: 8,
            ..Default::default()
        });
        let IngestOutcome::Delivered(q1) =
            nic.ingest(tcp_frame("10.0.0.1:1000", "10.0.0.2:443"), 0)
        else {
            panic!()
        };
        let IngestOutcome::Delivered(q2) =
            nic.ingest(tcp_frame("10.0.0.2:443", "10.0.0.1:1000"), 1)
        else {
            panic!()
        };
        assert_eq!(q1, q2, "symmetric RSS must keep both directions together");
    }

    #[test]
    fn ring_overflow_counts_missed() {
        let nic = VirtualNic::new(&DeviceConfig {
            num_queues: 1,
            ring_capacity: 2,
            ..Default::default()
        });
        for i in 0..5 {
            nic.ingest(tcp_frame("10.0.0.1:1000", "10.0.0.2:443"), i);
        }
        let stats = nic.stats();
        assert_eq!(stats.rx_delivered, 2);
        assert_eq!(stats.rx_missed, 3);
        assert_eq!(stats.lost(), 3);
    }

    #[test]
    fn mempool_exhaustion_counts_nombuf() {
        let nic = VirtualNic::new(&DeviceConfig {
            num_queues: 1,
            ring_capacity: 64,
            mempool_capacity: 1,
            ..Default::default()
        });
        nic.ingest(tcp_frame("10.0.0.1:1", "10.0.0.2:2"), 0);
        nic.ingest(tcp_frame("10.0.0.1:1", "10.0.0.2:2"), 1);
        let stats = nic.stats();
        assert_eq!(stats.rx_delivered, 1);
        assert_eq!(stats.rx_nombuf, 1);
    }

    #[test]
    fn hw_filter_drops_udp() {
        let nic = VirtualNic::new(&DeviceConfig::default());
        nic.install_rule(FlowRule::rss(vec![RuleItem::Tcp {
            src_port: None,
            dst_port: None,
        }]))
        .unwrap();
        assert_eq!(
            nic.ingest(udp_frame("1.1.1.1:53", "2.2.2.2:5000"), 0),
            IngestOutcome::HwDropped
        );
        assert!(matches!(
            nic.ingest(tcp_frame("1.1.1.1:80", "2.2.2.2:5000"), 0),
            IngestOutcome::Delivered(_)
        ));
        assert_eq!(nic.stats().hw_dropped, 1);
    }

    #[test]
    fn sink_sampling_preserves_flows() {
        let nic = VirtualNic::new(&DeviceConfig {
            num_queues: 4,
            ..Default::default()
        });
        nic.set_sink_fraction(0.5);
        // Each flow must be consistently delivered or consistently sunk.
        for flow in 0..64u16 {
            let src = format!("10.0.{}.{}:{}", flow / 8, flow % 8, 10000 + flow);
            let first = nic.ingest(tcp_frame(&src, "1.1.1.1:443"), 0);
            for _ in 0..3 {
                let again = nic.ingest(tcp_frame(&src, "1.1.1.1:443"), 1);
                match (first, again) {
                    (IngestOutcome::Sunk, IngestOutcome::Sunk) => {}
                    (IngestOutcome::Delivered(a), IngestOutcome::Delivered(b)) => {
                        assert_eq!(a, b);
                    }
                    other => panic!("inconsistent sampling: {other:?}"),
                }
            }
        }
        let stats = nic.stats();
        assert!(stats.sunk > 0, "expected some sunk traffic");
        assert_eq!(stats.lost(), 0);
    }

    #[test]
    fn drop_breakdown_attributes_every_frame() {
        let nic = VirtualNic::new(&DeviceConfig {
            num_queues: 1,
            ring_capacity: 2,
            ..Default::default()
        });
        nic.install_rule(FlowRule::rss(vec![RuleItem::Tcp {
            src_port: None,
            dst_port: None,
        }]))
        .unwrap();
        // 1 hw drop (UDP), 2 delivered, 3 ring overflows.
        nic.ingest(udp_frame("1.1.1.1:53", "2.2.2.2:5000"), 0);
        for i in 0..5 {
            nic.ingest(tcp_frame("10.0.0.1:1000", "10.0.0.2:443"), i);
        }
        let stats = nic.stats();
        let drops = stats.drop_breakdown();
        assert_eq!(drops.get(DropReason::HwRule), 1);
        assert_eq!(drops.get(DropReason::RingOverflow), 3);
        assert_eq!(drops.get(DropReason::MempoolExhausted), 0);
        assert_eq!(drops.lost(), stats.lost());
        assert!(stats.fully_attributed(), "{stats:?}");
    }

    #[test]
    fn burst_respects_max() {
        let nic = VirtualNic::new(&DeviceConfig::default());
        for i in 0..10 {
            nic.ingest(tcp_frame("10.0.0.1:1000", "10.0.0.2:443"), i);
        }
        let mut out = Vec::new();
        assert_eq!(nic.rx_burst(0, &mut out, 4), 4);
        assert_eq!(nic.rx_burst(0, &mut out, 100), 6);
        assert_eq!(nic.rx_burst(0, &mut out, 100), 0);
    }

    #[test]
    fn unparsed_frames_follow_default_action() {
        let nic = VirtualNic::new(&DeviceConfig::default());
        let mut arp = vec![0u8; 60];
        arp[12] = 0x08;
        arp[13] = 0x06;
        // With no rules the frame is delivered (queue 0, hash 0).
        assert!(matches!(
            nic.ingest(Bytes::from(arp.clone()), 0),
            IngestOutcome::Delivered(_)
        ));
        // With any rule installed, unparsed frames are dropped.
        nic.install_rule(FlowRule::rss(vec![RuleItem::Eth {
            ethertype: Some(retina_wire::EtherType::Ipv4),
        }]))
        .unwrap();
        assert_eq!(nic.ingest(Bytes::from(arp), 0), IngestOutcome::HwDropped);
    }

    #[test]
    fn mempool_released_after_drop() {
        let nic = VirtualNic::new(&DeviceConfig::default());
        nic.ingest(tcp_frame("10.0.0.1:1", "10.0.0.2:2"), 0);
        assert_eq!(nic.mempool().in_use(), 1);
        let mut out = Vec::new();
        nic.rx_burst(0, &mut out, 8);
        assert_eq!(nic.mempool().in_use(), 1);
        out.clear();
        assert_eq!(nic.mempool().in_use(), 0);
    }
}
