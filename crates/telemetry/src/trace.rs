//! Sampled per-flow causal tracing plus an always-on anomaly flight
//! recorder.
//!
//! The §5.3 monitoring loop reports *how much* was dropped or shed but
//! never *which* flow, *at which layer*, or *why that one*. This module
//! closes that gap with two cooperating mechanisms sharing one event
//! vocabulary:
//!
//! 1. **Causal tracing** — a lock-free per-lane tracepoint API
//!    ([`Tracer::emit`], a no-op when disabled) records fixed-size
//!    binary [`TraceEvent`]s keyed by a flow trace id. Flows are
//!    sampled 1-in-N by mixing a seed into the NIC's symmetric RSS
//!    hash ([`Tracer::sample_flow`]) — direction-independent for free,
//!    already computed per packet, so the sampling decision costs one
//!    multiply-mix on the hot path and the same connection is sampled
//!    in a threaded run, a virtual-time stepped run, and a chaos
//!    replay. [`TraceSession::assemble`] reconstructs
//!    per-flow span trees with per-stage latency attribution and
//!    text/JSON renderers; [`FlowTrace::canonical_bytes`] is a
//!    timestamp-free form that is byte-identical across execution
//!    modes.
//! 2. **Flight recorder** — every lane continuously overwrites a fixed
//!    ring with the last K events of *all* flows (sampled or not).
//!    Anomaly triggers ([`Tracer::trigger`]) freeze the rings on first
//!    fire, so the moments before an incident are always
//!    reconstructable as a black-box [`FlightDump`].
//!
//! # Event layout
//!
//! An event is exactly five little-endian `u64` words (40 bytes):
//!
//! | word | contents                                            |
//! |------|-----------------------------------------------------|
//! | 0    | flow trace id (0 = unsampled flow)                  |
//! | 1    | timestamp (cycles, or virtual step in stepped runs) |
//! | 2    | `kind` (bits 0..8) · `lane` (8..24) · `sub` (24..40)|
//! | 3    | argument `a` (kind-specific)                        |
//! | 4    | argument `b` (kind-specific)                        |
//!
//! # Lanes
//!
//! Each writer thread owns a lane: lane 0 is the ingest (NIC) thread,
//! lanes `1..=rx_cores` the RX cores, and the rest dispatch workers.
//! Per-lane buffers are single-writer, so emission is a `fetch_add`
//! plus five relaxed stores — no locks, no CAS loops. Cross-lane
//! ordering for one flow needs no global clock: a flow lives on one RX
//! core (symmetric RSS) and each of its per-subscription deliveries
//! crosses one SPSC ring in FIFO order, so the k-th enqueue pairs with
//! the k-th worker-side dequeue.

// Narrowing casts in this file are intentional: lane/sub indices and
// packed event words narrow to compact fields by design.
#![allow(clippy::cast_possible_truncation)]

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::json;

/// Number of `u64` words per event.
pub const EVENT_WORDS: usize = 5;
/// Size of one encoded event in bytes.
pub const EVENT_BYTES: usize = EVENT_WORDS * 8;

/// What a tracepoint records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum TraceKind {
    /// Packet received by the NIC; `b` = ingress sequence number.
    Rx = 1,
    /// Hardware-rule verdict; `a` = action code
    /// (0 drop, 1 queue, 2 rss, 3 sunk), `b` = queue chosen.
    HwVerdict = 2,
    /// Software packet-filter verdict; `a` = matched subscription
    /// bitmap, `b` = live subscription bitmap.
    PacketVerdict = 3,
    /// One packet-filter frontier node left live for later layers;
    /// `a` = trie node id in the merged filter, `b` = layer
    /// (0 = packet).
    FilterNode = 4,
    /// Connection-filter verdict; `a` = matched bitmap, `b` = live.
    ConnVerdict = 5,
    /// Session-filter verdict; `a` = matched bitmap, `b` = live.
    SessionVerdict = 6,
    /// Connection inserted into the tracker table.
    ConnInsert = 7,
    /// Existing connection updated by a packet; `a` = direction
    /// (0 originator, 1 responder).
    ConnUpdate = 8,
    /// Connection left the table; `a` = reason
    /// (1 terminated, 2 expired, 3 drained, 4 completed early, 5 swapped).
    ConnExpire = 9,
    /// Result enqueued onto a dispatch ring; `sub` = subscription,
    /// `b` = ring depth after the enqueue (not canonical).
    DispatchEnqueue = 10,
    /// Result dequeued by a dispatch worker; `sub` = subscription,
    /// `b` = ring depth before the dequeue (not canonical).
    DispatchDequeue = 11,
    /// Callback invocation started; `sub` = subscription.
    CallbackStart = 12,
    /// Callback invocation finished; `sub` = subscription.
    CallbackEnd = 13,
    /// Packet or result dropped; `a` = [`TraceDropCode`], `b` = aux
    /// (ingress sequence for NIC drops).
    Drop = 14,
}

impl TraceKind {
    /// Decodes a kind byte; `None` for unknown values.
    #[must_use]
    pub fn from_u8(v: u8) -> Option<TraceKind> {
        Some(match v {
            1 => TraceKind::Rx,
            2 => TraceKind::HwVerdict,
            3 => TraceKind::PacketVerdict,
            4 => TraceKind::FilterNode,
            5 => TraceKind::ConnVerdict,
            6 => TraceKind::SessionVerdict,
            7 => TraceKind::ConnInsert,
            8 => TraceKind::ConnUpdate,
            9 => TraceKind::ConnExpire,
            10 => TraceKind::DispatchEnqueue,
            11 => TraceKind::DispatchDequeue,
            12 => TraceKind::CallbackStart,
            13 => TraceKind::CallbackEnd,
            14 => TraceKind::Drop,
            _ => return None,
        })
    }

    /// Stable lowercase name used by the renderers.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::Rx => "rx",
            TraceKind::HwVerdict => "hw-verdict",
            TraceKind::PacketVerdict => "packet-verdict",
            TraceKind::FilterNode => "filter-node",
            TraceKind::ConnVerdict => "conn-verdict",
            TraceKind::SessionVerdict => "session-verdict",
            TraceKind::ConnInsert => "conn-insert",
            TraceKind::ConnUpdate => "conn-update",
            TraceKind::ConnExpire => "conn-expire",
            TraceKind::DispatchEnqueue => "dispatch-enqueue",
            TraceKind::DispatchDequeue => "dispatch-dequeue",
            TraceKind::CallbackStart => "callback-start",
            TraceKind::CallbackEnd => "callback-end",
            TraceKind::Drop => "drop",
        }
    }
}

/// Reason codes carried in the `a` argument of [`TraceKind::Drop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceDropCode {
    /// RX descriptor ring was full.
    RxMissed = 1,
    /// Mempool exhausted at ingest.
    NoMbuf = 2,
    /// Dispatch ring full under the Shed policy.
    DispatchShed = 3,
    /// Dispatch worker disconnected.
    WorkerDisconnected = 4,
}

/// Hardware-rule action codes carried in the `a` argument of
/// [`TraceKind::HwVerdict`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceHwAction {
    /// Dropped in "hardware".
    Drop = 0,
    /// Steered to an explicit queue.
    Queue = 1,
    /// RSS-hashed to a queue.
    Rss = 2,
    /// Steered to the sink queue.
    Sunk = 3,
}

/// Connection-retirement reason codes carried in the `a` argument of
/// [`TraceKind::ConnExpire`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceConnEnd {
    /// FIN/RST teardown observed.
    Terminated = 1,
    /// Idle timeout.
    Expired = 2,
    /// Drained at end of run.
    Drained = 3,
    /// Removed mid-stream because every subscription completed early
    /// (e.g. a delivered TLS handshake).
    CompletedEarly = 4,
    /// Evicted at a live swap: no subscription of the new table watches
    /// it any more.
    Swapped = 5,
}

/// One fixed-size tracepoint record. See the module docs for the
/// binary layout and per-kind argument semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Flow trace id (0 for unsampled flows — flight recorder only).
    pub trace_id: u64,
    /// Timestamp: CPU cycles, or the virtual step in stepped runs.
    pub tsc: u64,
    /// What happened.
    pub kind: TraceKind,
    /// Lane (writer thread) that recorded the event.
    pub lane: u16,
    /// Subscription index, where applicable (otherwise 0).
    pub sub: u16,
    /// Kind-specific argument.
    pub a: u64,
    /// Kind-specific argument.
    pub b: u64,
}

impl TraceEvent {
    /// Encodes the event into its five-word binary form.
    #[must_use]
    pub fn to_words(&self) -> [u64; EVENT_WORDS] {
        let packed =
            u64::from(self.kind as u8) | (u64::from(self.lane) << 8) | (u64::from(self.sub) << 24);
        [self.trace_id, self.tsc, packed, self.a, self.b]
    }

    /// Decodes an event from its five-word binary form; `None` when
    /// the kind byte is unknown (e.g. an unwritten flight-ring slot).
    #[must_use]
    pub fn from_words(words: [u64; EVENT_WORDS]) -> Option<TraceEvent> {
        let kind = TraceKind::from_u8((words[2] & 0xff) as u8)?;
        Some(TraceEvent {
            trace_id: words[0],
            tsc: words[1],
            kind,
            lane: ((words[2] >> 8) & 0xffff) as u16,
            sub: ((words[2] >> 24) & 0xffff) as u16,
            a: words[3],
            b: words[4],
        })
    }
}

/// The role of a lane's writer thread, fixed at tracer construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneKind {
    /// The NIC ingest thread (rx + hardware verdicts + ingest drops).
    Ingest,
    /// An RX core's processing loop (filter, conntrack, enqueue).
    Rx(u16),
    /// A dispatch worker thread (dequeue + callback execution).
    Worker(u16),
}

impl LaneKind {
    fn tag(self) -> (u8, u16) {
        match self {
            LaneKind::Ingest => (0, 0),
            LaneKind::Rx(i) => (1, i),
            LaneKind::Worker(i) => (2, i),
        }
    }
}

/// Tracer configuration. All fields have workable defaults.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Whether the tracer starts recording at all. `false` builds and
    /// attaches the full lane layout but leaves every tracepoint at
    /// its one-relaxed-load fast path. Flip at runtime with
    /// [`Tracer::set_enabled`].
    pub enabled: bool,
    /// Sample one flow in N for full causal tracing (0 disables flow
    /// sampling; the flight recorder still runs).
    pub sample_one_in: u64,
    /// Seed mixed into the flow hash, making the sampled population
    /// reproducible and steerable.
    pub seed: u64,
    /// Capacity, in events, of each lane's sampled-trace buffer;
    /// events beyond it are counted as dropped, never block.
    pub lane_capacity: usize,
    /// Depth K, in events, of each lane's flight-recorder ring.
    pub flight_depth: usize,
    /// Lost-packet delta per monitor tick that fires the drop-burst
    /// flight-recorder trigger.
    pub drop_burst_threshold: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: true,
            sample_one_in: 1024,
            seed: 0,
            lane_capacity: 16_384,
            flight_depth: 1024,
            drop_burst_threshold: 10_000,
        }
    }
}

/// What fired a flight-recorder freeze.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerReason {
    /// The overload governor shed parsing.
    GovernorShed,
    /// The monitor saw a burst of lost packets in one tick.
    DropBurst,
    /// `check_accounting` failed at end of run.
    AccountingFailure,
    /// A chaos fault activated.
    ChaosFault,
    /// A dispatch ring shed a result (`dropped_full`).
    DispatchShed,
    /// A live reconfiguration swap failed (rejected by the analyzer or
    /// aborted mid-stage), freezing the recorder around the attempt.
    SwapFailed,
}

impl TriggerReason {
    /// Stable lowercase name used by the renderers.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            TriggerReason::GovernorShed => "governor-shed",
            TriggerReason::DropBurst => "drop-burst",
            TriggerReason::AccountingFailure => "accounting-failure",
            TriggerReason::ChaosFault => "chaos-fault",
            TriggerReason::DispatchShed => "dispatch-shed",
            TriggerReason::SwapFailed => "swap-failed",
        }
    }

    fn code(self) -> u8 {
        match self {
            TriggerReason::GovernorShed => 1,
            TriggerReason::DropBurst => 2,
            TriggerReason::AccountingFailure => 3,
            TriggerReason::ChaosFault => 4,
            TriggerReason::DispatchShed => 5,
            TriggerReason::SwapFailed => 6,
        }
    }
}

/// One recorded anomaly trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TriggerRecord {
    /// What fired.
    pub reason: TriggerReason,
    /// Timestamp at fire time (same timebase as events).
    pub tsc: u64,
    /// Reason-specific detail (e.g. lost-packet delta, sub index).
    pub detail: u64,
    /// Whether this trigger was the one that froze the rings.
    pub froze: bool,
}

/// Timestamp source for a tracer.
enum TraceClock {
    /// Caller-supplied cycle counter (threaded runs).
    External(Arc<dyn Fn() -> u64 + Send + Sync>),
    /// Virtual time advanced by the stepped harness.
    Virtual(AtomicU64),
}

/// Append-only single-writer event buffer for sampled flows.
struct LaneBuf {
    words: Box<[AtomicU64]>,
    /// Events claimed (may exceed capacity; the excess was dropped).
    claimed: AtomicUsize,
    dropped: AtomicU64,
}

impl LaneBuf {
    fn new(capacity_events: usize) -> LaneBuf {
        LaneBuf {
            words: (0..capacity_events * EVENT_WORDS)
                .map(|_| AtomicU64::new(0))
                .collect(),
            claimed: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    fn capacity(&self) -> usize {
        self.words.len() / EVENT_WORDS
    }

    fn push(&self, words: [u64; EVENT_WORDS]) {
        let slot = self.claimed.fetch_add(1, Ordering::Relaxed);
        if slot >= self.capacity() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let base = slot * EVENT_WORDS;
        for (i, w) in words.iter().enumerate() {
            self.words[base + i].store(*w, Ordering::Relaxed);
        }
    }

    fn events(&self) -> Vec<TraceEvent> {
        let len = self.claimed.load(Ordering::Acquire).min(self.capacity());
        (0..len)
            .filter_map(|slot| {
                let base = slot * EVENT_WORDS;
                let mut words = [0u64; EVENT_WORDS];
                for (i, w) in words.iter_mut().enumerate() {
                    *w = self.words[base + i].load(Ordering::Relaxed);
                }
                TraceEvent::from_words(words)
            })
            .collect()
    }
}

/// Fixed-depth overwrite ring holding the last K events of all flows.
struct FlightRing {
    words: Box<[AtomicU64]>,
    /// Total events ever written; `% depth` locates the next slot.
    written: AtomicUsize,
}

impl FlightRing {
    fn new(depth_events: usize) -> FlightRing {
        FlightRing {
            words: (0..depth_events * EVENT_WORDS)
                .map(|_| AtomicU64::new(0))
                .collect(),
            written: AtomicUsize::new(0),
        }
    }

    fn depth(&self) -> usize {
        self.words.len() / EVENT_WORDS
    }

    fn push(&self, words: [u64; EVENT_WORDS]) {
        let n = self.written.fetch_add(1, Ordering::Relaxed);
        let base = (n % self.depth()) * EVENT_WORDS;
        for (i, w) in words.iter().enumerate() {
            self.words[base + i].store(*w, Ordering::Relaxed);
        }
    }

    /// Ring contents oldest-first.
    fn events(&self) -> Vec<TraceEvent> {
        let written = self.written.load(Ordering::Acquire);
        let depth = self.depth();
        let (start, len) = if written >= depth {
            (written % depth, depth)
        } else {
            (0, written)
        };
        (0..len)
            .filter_map(|i| {
                let base = ((start + i) % depth) * EVENT_WORDS;
                let mut words = [0u64; EVENT_WORDS];
                for (j, w) in words.iter_mut().enumerate() {
                    *w = self.words[base + j].load(Ordering::Relaxed);
                }
                TraceEvent::from_words(words)
            })
            .collect()
    }
}

struct Lane {
    kind: LaneKind,
    trace: LaneBuf,
    flight: FlightRing,
}

/// Maximum trigger records retained; later fires only bump a counter.
const MAX_TRIGGERS: usize = 64;

/// The tracing pipeline: per-lane sampled-trace buffers plus per-lane
/// flight-recorder rings, shared across the NIC, RX cores, and
/// dispatch workers as an `Arc`.
///
/// Every hot-path entry point first checks a single relaxed atomic
/// (`enabled`), so an attached-but-disabled tracer costs one load and
/// branch per tracepoint, and an absent tracer (`Option::None` at call
/// sites) costs nothing.
pub struct Tracer {
    enabled: AtomicBool,
    config: TraceConfig,
    clock: TraceClock,
    lanes: Vec<Lane>,
    frozen: AtomicBool,
    triggers: Mutex<Vec<TriggerRecord>>,
    triggers_suppressed: AtomicU64,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled.load(Ordering::Relaxed))
            .field("lanes", &self.lanes.len())
            .field("frozen", &self.frozen.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Tracer {
    /// A tracer with an external (cycle-counter) clock: lane 0 for the
    /// ingest thread, `rx_cores` RX lanes, `workers` worker lanes.
    #[must_use]
    pub fn new(
        config: TraceConfig,
        rx_cores: usize,
        workers: usize,
        clock: Arc<dyn Fn() -> u64 + Send + Sync>,
    ) -> Tracer {
        Self::build(config, rx_cores, workers, TraceClock::External(clock))
    }

    /// A tracer driven by virtual time ([`Tracer::set_virtual_time`]),
    /// for deterministic stepped runs: timestamps are whatever the
    /// harness last set, so two runs with the same schedule produce
    /// bit-identical events.
    #[must_use]
    pub fn new_virtual(config: TraceConfig, rx_cores: usize, workers: usize) -> Tracer {
        Self::build(
            config,
            rx_cores,
            workers,
            TraceClock::Virtual(AtomicU64::new(0)),
        )
    }

    fn build(config: TraceConfig, rx_cores: usize, workers: usize, clock: TraceClock) -> Tracer {
        let mut kinds = Vec::with_capacity(1 + rx_cores + workers);
        kinds.push(LaneKind::Ingest);
        for i in 0..rx_cores {
            kinds.push(LaneKind::Rx(i as u16));
        }
        for i in 0..workers {
            kinds.push(LaneKind::Worker(i as u16));
        }
        let lanes = kinds
            .into_iter()
            .map(|kind| Lane {
                kind,
                trace: LaneBuf::new(config.lane_capacity),
                flight: FlightRing::new(config.flight_depth),
            })
            .collect();
        Tracer {
            enabled: AtomicBool::new(config.enabled),
            config,
            clock,
            lanes,
            frozen: AtomicBool::new(false),
            triggers: Mutex::new(Vec::new()),
            triggers_suppressed: AtomicU64::new(0),
        }
    }

    /// The lane index of the ingest thread.
    #[must_use]
    pub fn ingest_lane(&self) -> usize {
        0
    }

    /// The lane index of RX core `core`.
    #[must_use]
    pub fn rx_lane(&self, core: usize) -> usize {
        1 + core
    }

    /// The lane index of dispatch worker `worker`.
    #[must_use]
    pub fn worker_lane(&self, worker: usize) -> usize {
        self.lanes
            .iter()
            .position(|l| matches!(l.kind, LaneKind::Worker(_)))
            .unwrap_or(self.lanes.len().saturating_sub(1))
            + worker
    }

    /// Number of lanes.
    #[must_use]
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Whether tracepoints currently record anything. The single
    /// relaxed load on this flag is the entire disabled-mode cost.
    #[inline]
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns all recording (tracing, flight recorder, triggers) on or
    /// off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// The configuration this tracer was built with.
    #[must_use]
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// Advances virtual time (stepped harness). No-op with an external
    /// clock.
    pub fn set_virtual_time(&self, t: u64) {
        if let TraceClock::Virtual(v) = &self.clock {
            v.store(t, Ordering::Relaxed);
        }
    }

    fn now(&self) -> u64 {
        match &self.clock {
            TraceClock::External(f) => f(),
            TraceClock::Virtual(v) => v.load(Ordering::Relaxed),
        }
    }

    /// The deterministic flow hash: a splitmix64 finalizer over the
    /// seed and the NIC's symmetric RSS hash of the flow. The RSS hash
    /// is already direction-independent (both directions of a
    /// connection hash identically, §5.1) and already computed once
    /// per packet, so deriving the trace id from it keeps the
    /// per-packet sampling decision to a single finalizer. Every
    /// execution mode hashes the same frame bytes with the same
    /// symmetric key, so threaded, stepped, and replayed runs sample
    /// the same flows. Trace ids inherit the RSS hash's 32 bits of
    /// flow entropy: two flows *can* collide (their span trees would
    /// merge), which at 1-in-N sampling rates is vanishingly rare.
    #[must_use]
    #[inline]
    pub fn flow_hash(seed: u64, rss_hash: u32) -> u64 {
        let mut z = (seed ^ 0xA076_1D64_78BD_642F)
            ^ u64::from(rss_hash).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns the flow's trace id if the flow is sampled, else 0.
    /// `rss_hash` is the NIC's symmetric RSS hash of the packet (on
    /// delivered mbufs, `Mbuf::rss_hash`). Cheap enough to call per
    /// packet: one splitmix finalizer when enabled, one relaxed load
    /// when disabled.
    #[must_use]
    #[inline]
    pub fn sample_flow(&self, rss_hash: u32) -> u64 {
        if !self.enabled() || self.config.sample_one_in == 0 {
            return 0;
        }
        let h = Self::flow_hash(self.config.seed, rss_hash);
        if h.is_multiple_of(self.config.sample_one_in) {
            // Trace id 0 means "unsampled"; remap the (rare) zero hash.
            if h == 0 {
                1
            } else {
                h
            }
        } else {
            0
        }
    }

    /// Records one tracepoint on `lane`. Events always enter the
    /// lane's flight-recorder ring (until frozen); they additionally
    /// enter the sampled-trace buffer when `trace_id` is nonzero.
    #[inline]
    pub fn emit(&self, lane: usize, trace_id: u64, kind: TraceKind, sub: u16, a: u64, b: u64) {
        if !self.enabled() {
            return;
        }
        let event = TraceEvent {
            trace_id,
            tsc: self.now(),
            kind,
            lane: lane as u16,
            sub,
            a,
            b,
        };
        let words = event.to_words();
        let l = &self.lanes[lane];
        if !self.frozen.load(Ordering::Relaxed) {
            l.flight.push(words);
        }
        if trace_id != 0 {
            l.trace.push(words);
        }
    }

    /// Fires an anomaly trigger: the first fire freezes every lane's
    /// flight ring (preserving the moments before the incident);
    /// every fire is recorded, up to a cap.
    pub fn trigger(&self, reason: TriggerReason, detail: u64) {
        if !self.enabled() {
            return;
        }
        let froze = !self.frozen.swap(true, Ordering::SeqCst);
        let record = TriggerRecord {
            reason,
            tsc: self.now(),
            detail,
            froze,
        };
        let mut triggers = self.triggers.lock().unwrap();
        if triggers.len() < MAX_TRIGGERS {
            triggers.push(record);
        } else {
            self.triggers_suppressed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether a trigger has frozen the flight rings.
    #[must_use]
    pub fn frozen(&self) -> bool {
        self.frozen.load(Ordering::SeqCst)
    }

    /// All recorded triggers, in fire order.
    #[must_use]
    pub fn triggers(&self) -> Vec<TriggerRecord> {
        self.triggers.lock().unwrap().clone()
    }

    /// Extracts the sampled-trace session for assembly. Call after the
    /// run drains (writers quiesced).
    #[must_use]
    pub fn session(&self) -> TraceSession {
        TraceSession {
            lanes: self
                .lanes
                .iter()
                .map(|l| (l.kind, l.trace.events()))
                .collect(),
            dropped_events: self
                .lanes
                .iter()
                .map(|l| l.trace.dropped.load(Ordering::Relaxed))
                .sum(),
        }
    }

    /// The frozen flight-recorder snapshot, if any trigger fired.
    #[must_use]
    pub fn flight_dump(&self) -> Option<FlightDump> {
        if !self.frozen() {
            return None;
        }
        Some(FlightDump {
            triggers: self.triggers(),
            triggers_suppressed: self.triggers_suppressed.load(Ordering::Relaxed),
            lanes: self
                .lanes
                .iter()
                .map(|l| (l.kind, l.flight.events()))
                .collect(),
        })
    }

    /// The complete end-of-run trace artifact.
    #[must_use]
    pub fn report(&self) -> TraceReport {
        TraceReport {
            session: self.session(),
            flight: self.flight_dump(),
        }
    }
}

/// End-of-run trace artifact attached to the run report: the sampled
/// session plus the flight-recorder dump when a trigger fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceReport {
    /// Sampled per-flow events, per lane.
    pub session: TraceSession,
    /// Black-box snapshot, present iff an anomaly trigger fired.
    pub flight: Option<FlightDump>,
}

/// The sampled events of one run, per lane, ready for assembly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSession {
    /// Events in emission order, per lane.
    pub lanes: Vec<(LaneKind, Vec<TraceEvent>)>,
    /// Events lost to full trace buffers.
    pub dropped_events: u64,
}

impl TraceSession {
    /// The distinct sampled trace ids seen, ascending.
    #[must_use]
    pub fn trace_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .lanes
            .iter()
            .flat_map(|(_, events)| events.iter().map(|e| e.trace_id))
            .filter(|&id| id != 0)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Reconstructs every sampled flow's span tree, ordered by trace
    /// id.
    #[must_use]
    pub fn assemble(&self) -> Vec<FlowTrace> {
        self.trace_ids()
            .into_iter()
            .filter_map(|id| self.flow(id))
            .collect()
    }

    /// Reconstructs one flow's span tree.
    ///
    /// Cross-lane ordering needs no synchronized clock: the flow's
    /// ingest events, RX-core pipeline events, and per-subscription
    /// worker events are each totally ordered within their
    /// single-writer lane, and the k-th dispatch enqueue pairs with
    /// the k-th worker-side dequeue over the FIFO SPSC ring.
    #[must_use]
    pub fn flow(&self, trace_id: u64) -> Option<FlowTrace> {
        let mut ingest = Vec::new();
        let mut pipeline = Vec::new();
        let mut by_sub: std::collections::BTreeMap<u16, Vec<TraceEvent>> =
            std::collections::BTreeMap::new();
        for (kind, events) in &self.lanes {
            for e in events.iter().filter(|e| e.trace_id == trace_id) {
                match kind {
                    LaneKind::Ingest => ingest.push(*e),
                    LaneKind::Rx(_) => pipeline.push(*e),
                    LaneKind::Worker(_) => by_sub.entry(e.sub).or_default().push(*e),
                }
            }
        }
        if ingest.is_empty() && pipeline.is_empty() && by_sub.is_empty() {
            return None;
        }
        Some(FlowTrace {
            trace_id,
            ingest,
            pipeline,
            workers: by_sub.into_iter().collect(),
        })
    }
}

/// One sampled flow's assembled span tree: the ingest segment, the
/// RX-core pipeline segment, and one worker segment per subscription
/// that received dispatched deliveries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowTrace {
    /// The flow's trace id.
    pub trace_id: u64,
    /// NIC ingest-thread events, in order.
    pub ingest: Vec<TraceEvent>,
    /// RX-core events (filter layers, conntrack, enqueues, inline
    /// callbacks), in order.
    pub pipeline: Vec<TraceEvent>,
    /// Worker-side events per subscription, ascending by sub.
    pub workers: Vec<(u16, Vec<TraceEvent>)>,
}

/// Canonical (mode-independent) rendering of one event: kind, sub,
/// and the deterministic arguments only. Timestamps, lanes, and
/// load-dependent arguments (ring occupancy, queue choice) are
/// excluded so threaded and stepped runs render identically.
fn canonical_line(e: &TraceEvent) -> String {
    let name = e.kind.name();
    match e.kind {
        TraceKind::Rx => format!("{name} seq={}", e.b),
        TraceKind::HwVerdict => format!("{name} action={}", e.a),
        TraceKind::PacketVerdict | TraceKind::ConnVerdict | TraceKind::SessionVerdict => {
            format!("{name} matched={:#x} live={:#x}", e.a, e.b)
        }
        TraceKind::FilterNode => format!("{name} node={:#x} layer={}", e.a, e.b),
        TraceKind::ConnInsert => name.to_string(),
        TraceKind::ConnUpdate => format!("{name} dir={}", e.a),
        TraceKind::ConnExpire => format!("{name} reason={}", e.a),
        TraceKind::DispatchEnqueue | TraceKind::DispatchDequeue => {
            format!("{name} sub={}", e.sub)
        }
        TraceKind::CallbackStart | TraceKind::CallbackEnd => format!("{name} sub={}", e.sub),
        TraceKind::Drop => format!("{name} reason={}", e.a),
    }
}

impl FlowTrace {
    /// All events of the tree in segment order.
    fn segments(&self) -> Vec<(String, &[TraceEvent])> {
        let mut out: Vec<(String, &[TraceEvent])> = Vec::new();
        if !self.ingest.is_empty() {
            out.push(("ingest".to_string(), &self.ingest));
        }
        if !self.pipeline.is_empty() {
            out.push(("pipeline".to_string(), &self.pipeline));
        }
        for (sub, events) in &self.workers {
            out.push((format!("sub {sub}"), events));
        }
        out
    }

    /// The canonical text form: stable across threaded and stepped
    /// execution for the same workload and seed (no timestamps, no
    /// lane ids, no load-dependent arguments).
    #[must_use]
    pub fn canonical_text(&self) -> String {
        let mut out = format!("flow {:016x}\n", self.trace_id);
        for (title, events) in self.segments() {
            out.push_str(&format!("  {title}:\n"));
            for e in events {
                out.push_str("    ");
                out.push_str(&canonical_line(e));
                out.push('\n');
            }
        }
        out
    }

    /// [`FlowTrace::canonical_text`] as bytes, for byte-identity
    /// assertions across execution modes.
    #[must_use]
    pub fn canonical_bytes(&self) -> Vec<u8> {
        self.canonical_text().into_bytes()
    }

    /// Human-readable rendering with per-stage latency attribution:
    /// each event shows its delta from the previous event in its
    /// segment, and dispatch wait / callback execution spans are
    /// summarized per subscription.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = format!("flow {:016x}\n", self.trace_id);
        for (title, events) in self.segments() {
            out.push_str(&format!("  {title}:\n"));
            let mut prev: Option<u64> = None;
            for e in events {
                let delta = prev.map_or(0, |p| e.tsc.saturating_sub(p));
                prev = Some(e.tsc);
                out.push_str(&format!(
                    "    +{delta:<8} {} (lane {})\n",
                    canonical_line(e),
                    e.lane
                ));
            }
        }
        for (sub, waits, execs) in self.dispatch_latencies() {
            let wait: u64 = waits.iter().sum();
            let exec: u64 = execs.iter().sum();
            out.push_str(&format!(
                "  sub {sub} latency: dispatch-wait {wait} cycles over {} deliveries, callback {exec} cycles\n",
                waits.len().max(execs.len()),
            ));
        }
        out
    }

    /// Per-subscription (dispatch-wait, callback-execution) spans in
    /// cycles: the k-th enqueue on the pipeline pairs with the k-th
    /// dequeue on the worker, and each callback-start pairs with the
    /// following callback-end.
    #[must_use]
    pub fn dispatch_latencies(&self) -> Vec<(u16, Vec<u64>, Vec<u64>)> {
        let mut out = Vec::new();
        for (sub, events) in &self.workers {
            let enqueues: Vec<u64> = self
                .pipeline
                .iter()
                .filter(|e| e.kind == TraceKind::DispatchEnqueue && e.sub == *sub)
                .map(|e| e.tsc)
                .collect();
            let dequeues: Vec<u64> = events
                .iter()
                .filter(|e| e.kind == TraceKind::DispatchDequeue)
                .map(|e| e.tsc)
                .collect();
            let waits: Vec<u64> = enqueues
                .iter()
                .zip(&dequeues)
                .map(|(enq, deq)| deq.saturating_sub(*enq))
                .collect();
            let starts: Vec<u64> = events
                .iter()
                .filter(|e| e.kind == TraceKind::CallbackStart)
                .map(|e| e.tsc)
                .collect();
            let ends: Vec<u64> = events
                .iter()
                .filter(|e| e.kind == TraceKind::CallbackEnd)
                .map(|e| e.tsc)
                .collect();
            let execs: Vec<u64> = starts
                .iter()
                .zip(&ends)
                .map(|(s, e)| e.saturating_sub(*s))
                .collect();
            out.push((*sub, waits, execs));
        }
        out
    }

    /// JSON rendering of the span tree (parsable by
    /// [`crate::json::parse`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        fn events_json(events: &[TraceEvent]) -> String {
            let items: Vec<String> = events
                .iter()
                .map(|e| {
                    format!(
                        "{{\"kind\": {}, \"tsc\": {}, \"lane\": {}, \"sub\": {}, \"a\": {}, \"b\": {}}}",
                        json::escape(e.kind.name()),
                        e.tsc,
                        e.lane,
                        e.sub,
                        e.a,
                        e.b
                    )
                })
                .collect();
            format!("[{}]", items.join(", "))
        }
        let workers: Vec<String> = self
            .workers
            .iter()
            .map(|(sub, events)| format!("{{\"sub\": {sub}, \"events\": {}}}", events_json(events)))
            .collect();
        format!(
            "{{\"trace_id\": {}, \"ingest\": {}, \"pipeline\": {}, \"workers\": [{}]}}",
            json::escape(&format!("{:016x}", self.trace_id)),
            events_json(&self.ingest),
            events_json(&self.pipeline),
            workers.join(", ")
        )
    }
}

/// Frozen flight-recorder snapshot: the last K events of every lane
/// at the moment the first anomaly trigger fired, plus the trigger
/// log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDump {
    /// Every trigger that fired, in order (first one froze the rings).
    pub triggers: Vec<TriggerRecord>,
    /// Triggers beyond the retention cap.
    pub triggers_suppressed: u64,
    /// Ring contents oldest-first, per lane.
    pub lanes: Vec<(LaneKind, Vec<TraceEvent>)>,
}

impl FlightDump {
    /// Exact binary serialization (little-endian), for bit-for-bit
    /// replay comparison: triggers, then each lane's tagged event
    /// list.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.triggers.len() as u64).to_le_bytes());
        for t in &self.triggers {
            out.push(t.reason.code());
            out.push(u8::from(t.froze));
            out.extend_from_slice(&t.tsc.to_le_bytes());
            out.extend_from_slice(&t.detail.to_le_bytes());
        }
        out.extend_from_slice(&self.triggers_suppressed.to_le_bytes());
        for (kind, events) in &self.lanes {
            let (tag, idx) = kind.tag();
            out.push(tag);
            out.extend_from_slice(&idx.to_le_bytes());
            out.extend_from_slice(&(events.len() as u64).to_le_bytes());
            for e in events {
                for w in e.to_words() {
                    out.extend_from_slice(&w.to_le_bytes());
                }
            }
        }
        out
    }

    /// Total events captured across all lanes.
    #[must_use]
    pub fn event_count(&self) -> usize {
        self.lanes.iter().map(|(_, e)| e.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn virtual_tracer(sample_one_in: u64) -> Tracer {
        Tracer::new_virtual(
            TraceConfig {
                sample_one_in,
                seed: 7,
                lane_capacity: 64,
                flight_depth: 8,
                ..TraceConfig::default()
            },
            2,
            2,
        )
    }

    #[test]
    fn event_words_round_trip() {
        let e = TraceEvent {
            trace_id: 0xDEAD_BEEF,
            tsc: 12345,
            kind: TraceKind::DispatchEnqueue,
            lane: 3,
            sub: 9,
            a: 42,
            b: u64::MAX,
        };
        assert_eq!(TraceEvent::from_words(e.to_words()), Some(e));
        assert_eq!(TraceEvent::from_words([0; EVENT_WORDS]), None);
        assert_eq!(EVENT_BYTES, 40);
    }

    #[test]
    fn flow_hash_is_seeded_and_pure() {
        let h1 = Tracer::flow_hash(7, 0x1234_5678);
        assert_eq!(
            h1,
            Tracer::flow_hash(7, 0x1234_5678),
            "pure in (seed, hash)"
        );
        assert_ne!(
            Tracer::flow_hash(8, 0x1234_5678),
            h1,
            "seed must steer the sampled population"
        );
        assert_ne!(Tracer::flow_hash(7, 0x1234_5679), h1);
    }

    #[test]
    fn sampling_is_deterministic() {
        let t = virtual_tracer(4);
        let mut sampled = 0;
        for rss in 1000..2000u32 {
            let id1 = t.sample_flow(rss);
            assert_eq!(id1, t.sample_flow(rss));
            if id1 != 0 {
                sampled += 1;
            }
        }
        // 1-in-4 sampling over 1000 flows: expect roughly 250.
        assert!((100..400).contains(&sampled), "sampled {sampled} of 1000");
        let off = virtual_tracer(0);
        assert_eq!(off.sample_flow(1000), 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = virtual_tracer(1);
        t.set_enabled(false);
        assert_eq!(t.sample_flow(7), 0);
        t.emit(0, 5, TraceKind::Rx, 0, 0, 0);
        t.trigger(TriggerReason::DropBurst, 1);
        assert!(t.session().lanes.iter().all(|(_, e)| e.is_empty()));
        assert!(t.flight_dump().is_none());
    }

    #[test]
    fn lane_overflow_counts_dropped() {
        let t = Tracer::new_virtual(
            TraceConfig {
                sample_one_in: 1,
                lane_capacity: 4,
                flight_depth: 4,
                ..TraceConfig::default()
            },
            1,
            0,
        );
        for i in 0..10 {
            t.emit(1, 99, TraceKind::ConnUpdate, 0, i, 0);
        }
        let session = t.session();
        assert_eq!(session.lanes[1].1.len(), 4);
        assert_eq!(session.dropped_events, 6);
    }

    #[test]
    fn flight_ring_keeps_last_k_oldest_first() {
        let t = virtual_tracer(0);
        for i in 0..20u64 {
            t.set_virtual_time(i);
            t.emit(0, 0, TraceKind::Rx, 0, 0, i);
        }
        t.trigger(TriggerReason::DropBurst, 123);
        // Post-freeze events must not enter the ring.
        t.emit(0, 0, TraceKind::Rx, 0, 0, 999);
        let dump = t.flight_dump().expect("trigger froze the rings");
        let (_, lane0) = &dump.lanes[0];
        assert_eq!(lane0.len(), 8, "ring depth K");
        assert_eq!(
            lane0.iter().map(|e| e.b).collect::<Vec<_>>(),
            (12..20).collect::<Vec<_>>(),
            "last K events, oldest first"
        );
        assert_eq!(dump.triggers.len(), 1);
        assert!(dump.triggers[0].froze);
        assert_eq!(dump.triggers[0].detail, 123);
        // Dump serialization round-trips deterministically.
        assert_eq!(dump.to_bytes(), t.flight_dump().unwrap().to_bytes());
        assert!(dump.event_count() >= 8);
    }

    #[test]
    fn only_first_trigger_freezes() {
        let t = virtual_tracer(0);
        t.trigger(TriggerReason::GovernorShed, 1);
        t.trigger(TriggerReason::DispatchShed, 2);
        let dump = t.flight_dump().unwrap();
        assert_eq!(dump.triggers.len(), 2);
        assert!(dump.triggers[0].froze);
        assert!(!dump.triggers[1].froze);
    }

    #[test]
    fn assembles_segmented_span_tree() {
        let t = virtual_tracer(1);
        let id = 77;
        // Ingest lane: rx + hw verdict.
        t.set_virtual_time(10);
        t.emit(0, id, TraceKind::Rx, 0, 0, 0);
        t.emit(0, id, TraceKind::HwVerdict, 0, 2, 1);
        // RX lane: verdict, insert, enqueue for subs 1 and 0.
        t.set_virtual_time(20);
        t.emit(1, id, TraceKind::PacketVerdict, 0, 0b01, 0b10);
        t.emit(1, id, TraceKind::ConnInsert, 0, 0, 0);
        t.emit(1, id, TraceKind::DispatchEnqueue, 1, 0, 1);
        t.emit(1, id, TraceKind::DispatchEnqueue, 0, 0, 1);
        // Worker lanes: sub 1 on worker lane 3, sub 0 on lane 4.
        t.set_virtual_time(30);
        t.emit(3, id, TraceKind::DispatchDequeue, 1, 0, 1);
        t.emit(3, id, TraceKind::CallbackStart, 1, 0, 0);
        t.set_virtual_time(45);
        t.emit(3, id, TraceKind::CallbackEnd, 1, 0, 0);
        t.emit(4, id, TraceKind::DispatchDequeue, 0, 0, 1);
        // Unrelated flow must not leak in.
        t.emit(1, 555, TraceKind::ConnInsert, 0, 0, 0);

        let session = t.session();
        assert_eq!(session.trace_ids(), vec![77, 555]);
        let flows = session.assemble();
        assert_eq!(flows.len(), 2);
        let flow = &flows[0];
        assert_eq!(flow.trace_id, 77);
        assert_eq!(flow.ingest.len(), 2);
        assert_eq!(flow.pipeline.len(), 4);
        // Worker segments ordered by sub, regardless of lane.
        assert_eq!(flow.workers[0].0, 0);
        assert_eq!(flow.workers[1].0, 1);
        assert_eq!(flow.workers[1].1.len(), 3);
        // Latency attribution: sub 1 waited 30-20=10, executed 45-30=15.
        let lat = flow.dispatch_latencies();
        let sub1 = lat.iter().find(|(s, _, _)| *s == 1).unwrap();
        assert_eq!(sub1.1, vec![10]);
        assert_eq!(sub1.2, vec![15]);
        assert!(flow.render_text().contains("dispatch-wait 10"));
    }

    #[test]
    fn canonical_form_ignores_time_lane_and_occupancy() {
        let mk = |tsc_base: u64, lane: usize, occupancy: u64| {
            let t = virtual_tracer(1);
            t.set_virtual_time(tsc_base);
            t.emit(lane, 9, TraceKind::PacketVerdict, 0, 1, 2);
            t.emit(lane, 9, TraceKind::DispatchEnqueue, 2, 0, occupancy);
            t.session().flow(9).unwrap().canonical_bytes()
        };
        assert_eq!(mk(100, 1, 5), mk(9000, 2, 1));
    }

    #[test]
    fn json_rendering_parses() {
        let t = virtual_tracer(1);
        t.emit(0, 3, TraceKind::Rx, 0, 0, 7);
        t.emit(1, 3, TraceKind::ConnInsert, 0, 0, 0);
        t.emit(3, 3, TraceKind::CallbackStart, 1, 0, 0);
        let flow = t.session().flow(3).unwrap();
        let doc = json::parse(&flow.to_json()).expect("span-tree JSON must parse");
        assert_eq!(doc.get("trace_id").unwrap().as_str().unwrap().len(), 16);
        assert_eq!(doc.get("ingest").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(doc.get("workers").unwrap().as_arr().unwrap().len(), 1);
    }

    #[test]
    fn lane_layout_helpers() {
        let t = virtual_tracer(1);
        assert_eq!(t.ingest_lane(), 0);
        assert_eq!(t.rx_lane(1), 2);
        assert_eq!(t.worker_lane(0), 3);
        assert_eq!(t.worker_lane(1), 4);
        assert_eq!(t.lane_count(), 5);
    }
}
